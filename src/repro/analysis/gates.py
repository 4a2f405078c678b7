"""Gate-coverage linter: prove every kernel boundary carries its quartet.

Maxoid's dynamic verification planes (trace sweep, fault sweep, race
sweep, provenance monitor) only see what the kernel boundaries *emit* —
an enforcement point that silently lost its instrumentation drops out of
all of them at once, and nothing notices until a fuzz seed happens to
need it. This pass closes that loop statically: a registry declares, for
each kernel boundary method, which members of the instrumentation
quartet it must carry, and an AST walk over the method's *effective
body* (helpers inlined, see :mod:`repro.analysis.ir`) proves presence or
reports a finding.

The quartet members and their syntactic evidence (``@boundary`` is
:func:`repro.boundary.boundary`, on the method or an inlined helper):

- **obs** — a ``@boundary`` with a span (the default), ``count=`` or ``done=``;
- **faults** — ``@boundary(fault=...)`` or an inline consult on the
  device's plane, ``self.obs.faults.hit(...)``;
- **sched** — ``@boundary(sched=...)``, an inline ``SCHED.yield_point(...)``,
  or cooperative RWLock acquisition (``with <lock>.read()/.write():`` /
  ``with self._io_locks(...):``), each a scheduler preemption point;
- **prov** — a provenance-ledger stamp (``<...>.provenance.<op>(...)``)
  where labels flow.

Not every boundary needs all four — the registry records the contract
per method (e.g. ``mounts.resolve`` is read-only: no provenance stamp).
A boundary method the registry names but the tree no longer defines is
itself a finding (``unresolved-boundary``): registry drift is exactly
the silent rot this pass exists to catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.ir import CodeIndex, FunctionInfo, dotted

__all__ = [
    "GATE_REGISTRY",
    "GateRule",
    "QUARTET",
    "check_gates",
    "detect_members",
]

QUARTET: Tuple[str, ...] = ("obs", "faults", "sched", "prov")


@dataclass(frozen=True)
class GateRule:
    """One kernel boundary and the quartet members it must carry."""

    module: str
    cls: Optional[str]
    method: str
    requires: Tuple[str, ...]
    note: str = ""

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.method}" if self.cls else self.method


def _rule(module: str, cls: str, method: str, *requires: str, note: str = "") -> GateRule:
    unknown = set(requires) - set(QUARTET)
    if unknown:
        raise ValueError(f"unknown quartet members {sorted(unknown)} for {module}:{method}")
    return GateRule(module=module, cls=cls, method=method, requires=tuple(requires), note=note)


#: The kernel-boundary contract. One entry per mediated public method
#: (plus the aufs copy-up helper, which *is* the boundary there).
GATE_REGISTRY: Tuple[GateRule, ...] = (
    # syscall layer ----------------------------------------------------
    _rule("repro.kernel.syscall", "Syscalls", "open", "obs", "sched", "prov"),
    _rule("repro.kernel.syscall", "Syscalls", "read_file", "obs", "sched", "prov"),
    _rule("repro.kernel.syscall", "Syscalls", "write_file", "obs", "faults", "sched", "prov"),
    _rule("repro.kernel.syscall", "Syscalls", "append_file", "obs", "faults", "sched", "prov"),
    # mount namespaces -------------------------------------------------
    _rule("repro.kernel.mounts", "MountNamespace", "resolve", "obs", "faults", "sched"),
    _rule("repro.kernel.mounts", "MountNamespace", "mount", "sched"),
    _rule("repro.kernel.mounts", "MountNamespace", "umount", "sched"),
    # aufs union filesystem --------------------------------------------
    _rule("repro.kernel.aufs", "AufsMount", "open", "obs"),
    _rule(
        "repro.kernel.aufs", "AufsMount", "_copy_up", "obs", "faults", "sched", "prov",
        note="copy-up is the mutation boundary; public ops funnel into it",
    ),
    # binder -----------------------------------------------------------
    _rule("repro.kernel.binder", "BinderDriver", "transact", "obs", "faults", "sched", "prov"),
    # activity manager -------------------------------------------------
    _rule("repro.android.am", "ActivityManagerService", "start_activity",
          "obs", "faults", "sched", "prov"),
    _rule("repro.android.am", "ActivityManagerService", "send_broadcast", "obs"),
    # zygote -----------------------------------------------------------
    _rule("repro.android.zygote", "Zygote", "fork_app", "obs", "faults", "prov"),
    # COW provider proxy -----------------------------------------------
    _rule("repro.core.cow", "CowProxy", "query", "obs", "prov"),
    _rule("repro.core.cow", "CowProxy", "insert", "obs", "prov"),
    _rule("repro.core.cow", "CowProxy", "update", "obs"),
    _rule("repro.core.cow", "CowProxy", "delete", "obs"),
    _rule("repro.core.cow", "CowProxy", "commit_volatile", "obs", "faults", "sched"),
    _rule("repro.core.cow", "CowProxy", "commit_volatile_batch", "obs", "faults", "sched"),
    # volatile state ---------------------------------------------------
    _rule("repro.core.volatile", "VolatileFiles", "commit", "obs", "faults", "sched", "prov"),
    _rule("repro.core.volatile", "VolatileFiles", "list_files", "obs"),
    # minisql ----------------------------------------------------------
    _rule("repro.minisql.engine", "Database", "execute", "obs", "prov"),
    # clipboard (no sched yield on purpose: clipboard mutations carry no
    # preemption point, which is what makes them atomic under the
    # cooperative scheduler — see the lockset baseline justification)
    _rule("repro.android.services.clipboard", "ClipboardService", "set_text", "obs", "prov"),
    _rule("repro.android.services.clipboard", "ClipboardService", "get_text", "obs", "prov"),
    # egress services --------------------------------------------------
    _rule("repro.android.services.bluetooth", "BluetoothService", "send",
          "obs", "faults", "sched"),
    _rule("repro.android.services.telephony", "TelephonyService", "send_sms",
          "obs", "faults", "sched"),
    _rule("repro.android.services.download_manager", "DownloadManager", "enqueue",
          "obs", "faults", "sched"),
)


# ----------------------------------------------------------------------
# Evidence detectors
# ----------------------------------------------------------------------

def _boundary_planes(nodes: Sequence[ast.AST]) -> Set[str]:
    """The quartet members a ``@boundary(...)`` declaration in ``nodes``
    arms: obs (a span, ``count=`` or ``done=``), faults (``fault=``) and
    sched (``sched=``)."""
    planes: Set[str] = set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        chain = dotted(node.func)
        if chain is None or chain[-1] != "boundary":
            continue
        declared = {kw.arg: kw.value for kw in node.keywords}
        span = declared.get("span")
        spanless = isinstance(span, ast.Constant) and span.value is False
        if not spanless or "count" in declared or "done" in declared:
            planes.add("obs")
        if "fault" in declared:
            planes.add("faults")
        if "sched" in declared:
            planes.add("sched")
    return planes


def _has_fault_point(nodes: Sequence[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Call):
            chain = dotted(node.func)
            if (
                chain is not None
                and chain[-1] == "hit"
                and any("fault" in part.lower() for part in chain[:-1])
            ):
                return True
    return False


def _is_lock_acquire(chain: Optional[Tuple[str, ...]]) -> bool:
    if chain is None:
        return False
    if chain[-1] in ("read", "write") and any("lock" in p.lower() for p in chain[:-1]):
        return True
    return "lock" in chain[-1].lower()


def _has_sched_point(nodes: Sequence[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Call):
            chain = dotted(node.func)
            if (
                chain is not None
                and chain[-1] in ("yield_point", "sleep")
                and any("sched" in part.lower() for part in chain[:-1])
            ):
                return True
        elif isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and _is_lock_acquire(dotted(expr.func)):
                    return True
    return False


def _has_prov_stamp(nodes: Sequence[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Call):
            chain = dotted(node.func)
            if chain is not None and "provenance" in chain[:-1]:
                return True
    return False


#: Inline (mid-body) evidence; entry instrumentation comes from
#: :func:`_boundary_planes`.
_DETECTORS = {
    "faults": _has_fault_point,
    "sched": _has_sched_point,
    "prov": _has_prov_stamp,
}


def detect_members(index: CodeIndex, fn: FunctionInfo, depth: int = 3) -> Set[str]:
    """Which quartet members ``fn``'s effective body carries."""
    nodes = list(index.inline_nodes(fn, depth=depth))
    inline = {member for member, detect in _DETECTORS.items() if detect(nodes)}
    return _boundary_planes(nodes) | inline


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------

def check_gates(
    index: CodeIndex,
    registry: Iterable[GateRule] = GATE_REGISTRY,
    depth: int = 3,
) -> List[Finding]:
    """Every quartet member a registered boundary is missing."""
    findings: List[Finding] = []
    for rule in registry:
        fn = index.function(rule.module, rule.qualname)
        symbol = f"{rule.qualname}" if rule.cls else rule.method
        if fn is None:
            mod = index.modules.get(rule.module)
            findings.append(
                Finding(
                    pass_name="gates",
                    rule="unresolved-boundary",
                    severity="error",
                    module=rule.module,
                    symbol=symbol,
                    file=str(mod.path) if mod is not None else rule.module,
                    line=1,
                    message=(
                        f"registered kernel boundary {rule.module}:{rule.qualname} "
                        "no longer resolves — update the gate registry or restore "
                        "the method"
                    ),
                )
            )
            continue
        present = detect_members(index, fn, depth=depth)
        for member in rule.requires:
            if member in present:
                continue
            findings.append(
                Finding(
                    pass_name="gates",
                    rule=f"missing-{member}",
                    severity="error",
                    module=rule.module,
                    symbol=symbol,
                    file=str(fn.module.path),
                    line=fn.line,
                    message=(
                        f"kernel boundary lacks its {member} instrumentation "
                        f"(requires {'+'.join(rule.requires)}; "
                        f"found {'+'.join(sorted(present)) or 'none'})"
                    ),
                )
            )
    return findings
