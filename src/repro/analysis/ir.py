"""The static-analysis IR: a per-module AST index.

:class:`CodeIndex` parses every module under a package root once and
indexes functions and methods by qualified name.

The index is purely syntactic — nothing is imported or executed — so it
can safely chew on planted-defect fixtures and on the live tree alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["CodeIndex", "FunctionInfo", "ModuleIndex", "dotted"]

#: Modules never scanned: the analysis plane itself is offline tooling,
#: not part of the simulation's byte-identical replay contract.
DEFAULT_EXCLUDES: Tuple[str, ...] = ("repro.analysis",)


def dotted(node: Optional[ast.AST]) -> Optional[Tuple[str, ...]]:
    """The name chain of an attribute expression, outermost name first.

    ``self.obs.tracer.span`` -> ``("self", "obs", "tracer", "span")``;
    returns ``None`` for anything that is not a pure ``Name.attr...``
    chain (calls, subscripts, literals).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    module: "ModuleIndex"
    name: str
    qualname: str  #: ``"Cls.method"`` or bare ``"function"``
    cls: Optional[str]
    node: ast.FunctionDef

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.module.name}:{self.qualname})"


class ModuleIndex:
    """The parsed AST of one module plus its symbol tables."""

    def __init__(self, name: str, path: Path, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.functions: Dict[str, FunctionInfo] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(
                    module=self, name=node.name, qualname=node.name, cls=None, node=node
                )
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{node.name}.{item.name}"
                        self.functions[qualname] = FunctionInfo(
                            module=self,
                            name=item.name,
                            qualname=qualname,
                            cls=node.name,
                            node=item,
                        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleIndex({self.name}, {len(self.functions)} functions)"


class CodeIndex:
    """Every indexed module of one package root."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleIndex] = {}
        self.errors: List[Tuple[str, str]] = []  #: (path, parse error)

    @classmethod
    def build(
        cls,
        root: Path,
        package: Optional[str] = None,
        exclude: Sequence[str] = DEFAULT_EXCLUDES,
    ) -> "CodeIndex":
        """Index every ``*.py`` under ``root``.

        ``package`` names the dotted prefix (defaults to the root
        directory's name); ``exclude`` drops modules whose dotted name
        starts with any given prefix.
        """
        root = Path(root)
        package = package if package is not None else root.name
        index = cls()
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            name = ".".join((package, *parts)) if parts else package
            if any(name == p or name.startswith(p + ".") for p in exclude):
                continue
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError as error:  # pragma: no cover - defensive
                index.errors.append((str(path), str(error)))
                continue
            index.modules[name] = ModuleIndex(name, path, tree)
        return index
