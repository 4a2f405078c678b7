"""Determinism lint: keep ambient nondeterminism out of the simulation.

The replay contract (DESIGN §8) is byte-identical: same seed, same
schedule digest, same provenance ledger. Any ambient entropy source —
wall clock, OS randomness, the process-global ``random`` state, hash-
order iteration feeding a digest — silently voids that contract, and no
run can notice it by itself. This lint forbids them inside ``src/repro``:

- ``wall-clock``      — ``time.time()/monotonic()/perf_counter()``,
  ``datetime.now()/utcnow()``, ``date.today()``; simulated components
  use the virtual clock / scheduler step counter instead.
- ``unseeded-random`` — ``random.Random()`` constructed with no seed.
- ``global-random``   — module-level ``random.random()/randint()/...``,
  which share the process-global, ambient-seeded generator.
- ``entropy``         — ``os.urandom``, ``uuid.uuid4``,
  ``random.SystemRandom``, ``secrets.*``.
- ``set-iteration-digest`` — iterating a ``set(...)`` / set literal
  inside a digest-computing function without ``sorted(...)``.
- ``parse-error``     — a file that does not parse is not lint-clean.

Each call's callee is resolved to a canonical dotted name through the
module's ``import X as Y`` and ``from X import Y as Z`` statements, so
``from time import perf_counter`` cannot hide a clock read. The code is
parsed, never imported. Intentional uses (host timing in the profiling
layers) sit in :data:`ALLOWLIST` with a written justification; an entry
that matches nothing fails the run like a new finding does.

Run ``python -m repro.analysis``: exit 0 when the installed ``repro``
package is clean modulo the allowlist, 1 on any new finding, stale
entry or unparsable file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["ALLOWLIST", "Finding", "check", "lint", "main"]

#: Canonical callee (or module prefix) -> the rule a call to it breaks.
RULES: Dict[str, str] = {
    **{f"time.{fn}": "wall-clock" for fn in (
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns",
    )},
    "datetime.datetime.now": "wall-clock",
    "datetime.datetime.utcnow": "wall-clock",
    "datetime.date.today": "wall-clock",
    **{f"random.{fn}": "global-random" for fn in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "getrandbits", "gauss", "betavariate",
    )},
    "os.urandom": "entropy",
    "uuid.uuid4": "entropy",
    "random.SystemRandom": "entropy",
    "secrets": "entropy",
}

MESSAGES: Dict[str, str] = {
    "wall-clock": "ambient wall-clock read {}() — simulated time must come "
    "from the virtual clock / scheduler step counter",
    "unseeded-random": "{}() constructed without a seed — replay requires "
    "every generator to be derived from the run seed",
    "global-random": "module-global {}() uses the ambient-seeded process "
    "RNG — thread a seeded random.Random through instead",
    "entropy": "{}() is ambient entropy — derive it from the run seed instead",
    "set-iteration-digest": "iteration over a set inside a digest path "
    "depends on hash order — wrap the set in sorted(...) first",
}

_HOST_TIMING = (
    "span timings measure host wall time for the perf gate; they are "
    "display-only and never enter a schedule digest, provenance ledger, "
    "or replay comparison"
)

#: (rule, module, symbol) -> why the finding is acceptable.
ALLOWLIST: Dict[Tuple[str, str, str], str] = {
    ("wall-clock", "repro.obs.trace", "Span.__enter__"): _HOST_TIMING,
    ("wall-clock", "repro.obs.trace", "Span.__exit__"): _HOST_TIMING,
    ("wall-clock", "repro.obs.trace", "Span.elapsed_ms"):
        "elapsed_ms reports host wall time for profiling output only",
    ("wall-clock", "repro.workloads.harness", "measure"):
        "the profiling harness times the host, not the simulation; its "
        "timings feed the perf report and never any replayed state",
}

_DIGEST_MARKERS = {"sha256", "sha1", "md5", "blake2b", "blake2s", "digest", "hexdigest"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Finding:
    """One ambient-nondeterminism use."""

    rule: str
    module: str  #: dotted module, e.g. "repro.obs.trace"
    symbol: str  #: "Cls.method", "function" or "<module>"
    file: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.module} {self.symbol}: {self.message}"


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for anything but a name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the dotted name it is bound to by an import."""
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _rule(name: str) -> Optional[str]:
    """The rule for ``name`` or for its longest dotted prefix in RULES."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        rule = RULES.get(".".join(parts[:end]))
        if rule is not None:
            return rule
    return None


def _functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, node) of each top-level function and class method."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    yield f"{node.name}.{item.name}", item


def _is_digest_fn(fn: ast.FunctionDef) -> bool:
    if "digest" in fn.name.lower():
        return True
    return any(
        isinstance(node, ast.Call) and (_dotted(node.func) or [""])[-1] in _DIGEST_MARKERS
        for node in ast.walk(fn)
    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and (_dotted(node.func) or [""])[-1] == "set"


def _uses(tree: ast.Module) -> Iterator[Tuple[str, str, int, str]]:
    """(rule, symbol, line, callee) for each use in one parsed module."""
    bound = _imports(tree)
    owner: Dict[int, str] = {}
    for qualname, fn in _functions(tree):
        for node in ast.walk(fn):
            owner[id(node)] = qualname
    for node in ast.walk(tree):
        chain = _dotted(node.func) if isinstance(node, ast.Call) else None
        if chain is None:
            continue
        name = ".".join([bound.get(chain[0], chain[0]), *chain[1:]])
        rule = _rule(name)
        if rule is None and name.split(".")[-1] == "Random" and not (node.args or node.keywords):
            rule = "unseeded-random"
        if rule is not None:
            yield rule, owner.get(id(node), "<module>"), node.lineno, name
    for qualname, fn in _functions(tree):
        if not _is_digest_fn(fn):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.For):
                iterated = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                iterated = node.generators[0].iter
            else:
                continue
            if _is_set_expr(iterated):
                yield "set-iteration-digest", qualname, node.lineno, "set"


def lint(root: Path, package: str) -> List[Finding]:
    """Every use under ``root`` (the directory of package ``package``),
    one per (rule, symbol, callee); an unparsable file is a ``parse-error``."""
    findings: Dict[Tuple[str, str, str, str], Finding] = {}
    for path in sorted(Path(root).rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join((package, *parts[: -1 if parts[-1] == "__init__" else None]))
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except (SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            findings[("parse-error", module, "<module>", "")] = Finding(
                "parse-error", module, "<module>", str(path), line, f"cannot parse: {error}"
            )
            continue
        for rule, symbol, line, name in _uses(tree):
            key = (rule, module, symbol, name)
            if key not in findings:
                message = MESSAGES[rule].format(name)
                findings[key] = Finding(rule, module, symbol, str(path), line, message)
    return sorted(findings.values(), key=lambda f: (f.file, f.line, f.rule, f.message))


def check(
    root: Path, package: str, allowlist: Mapping[Tuple[str, str, str], str] = ALLOWLIST
) -> int:
    """Print every finding and stale allowlist entry; 1 if the tree is not clean."""
    findings = lint(root, package)
    keys = [(f.rule, f.module, f.symbol) for f in findings]
    new = [f for f, key in zip(findings, keys) if key not in allowlist]
    stale = [key for key in allowlist if key not in keys]
    for finding, key in zip(findings, keys):
        why = allowlist.get(key)
        print(finding.render() + ("" if why is None else f" [allowed: {why}]"))
    for rule, module, symbol in stale:
        print(f"stale allowlist entry: {rule} {module} {symbol} matches nothing")
    print(
        f"{len(new)} new finding(s), {len(findings) - len(new)} allowed, "
        f"{len(stale)} stale allowlist entr(ies)"
    )
    return 1 if new or stale else 0


def main() -> int:
    """Lint the installed ``repro`` package."""
    return check(Path(__file__).resolve().parent, "repro")


if __name__ == "__main__":
    raise SystemExit(main())
