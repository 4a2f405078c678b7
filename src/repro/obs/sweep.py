"""The S1-S4 security rule engine.

:func:`evaluate_span` mechanically applies the paper's confinement
goals to one finished span, attributing it to the context the span
carries (every span acts for the ``ctx`` it opened under, see
:mod:`repro.obs.trace`):

- **S1** (initiator secrecy): no span attributed to a delegate context
  ``B^A`` may carry a virtual path under another package's Priv; and —
  with a provenance ledger armed — no non-delegate write may publish
  data whose taint derives from a foreign package's Priv.
- **S2** (initiator integrity): no union mount observed under a delegate
  context may resolve its writable branch into a root keyed to a
  foreign package.
- **S3** (delegate secrecy): no plain app context may successfully read
  a path under another package's Priv.
- **S4** (delegate integrity): no plain app context may successfully
  write into another package's Priv.

Its one driver is :class:`repro.obs.monitor.SecurityMonitor`, which
evaluates every span the moment it closes (``Device.recover()`` and the
fuzz harness attach one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.naming import DATA_ROOT, PPRIV_SEGMENT, initiator_key
from repro.obs.trace import Span

DATA_PREFIX = DATA_ROOT + "/"

__all__ = [
    "DATA_PREFIX",
    "Violation",
    "evaluate_span",
    "foreign_keys",
    "parse_delegate_ctx",
    "priv_owner",
    "writable_root_violations",
]


@dataclass
class Violation:
    """One security-goal violation found by the rule engine."""

    rule: str  # "S1" | "S2" | "S3" | "S4"
    span: str
    ctx: Optional[str]
    message: str
    #: Provenance derivation chain (empty without a ledger).
    lineage: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The violation with its lineage chain, if any."""
        if not self.lineage:
            return f"{self.rule}: {self.message}"
        return f"{self.rule}: {self.message}\n    " + " <- ".join(self.lineage)


def parse_delegate_ctx(ctx: Optional[str]) -> Optional[Tuple[str, str]]:
    """``"B^A"`` -> ``(B, A)``; ``None`` for non-delegate contexts."""
    if ctx and "^" in ctx:
        app, _, initiator = ctx.partition("^")
        return app, initiator
    return None


def priv_owner(path: str) -> Optional[str]:
    """The package whose Priv a ``/data/data/...`` path falls under, with
    pPriv paths resolved to the package segment after ``ppriv``."""
    if not path.startswith(DATA_PREFIX):
        return None
    segments = [s for s in path[len(DATA_PREFIX):].split("/") if s]
    if not segments:
        return None
    if segments[0] == PPRIV_SEGMENT:
        return segments[1] if len(segments) > 1 else None
    return segments[0]


def foreign_keys(all_packages, delegate: str, initiator: str):
    """Sanitized branch-directory keys of every package that is neither
    the delegate nor its initiator."""
    return {
        initiator_key(pkg): pkg
        for pkg in all_packages
        if pkg not in (delegate, initiator)
    }


def writable_root_violations(
    attrs: Dict[str, Any], all_packages, delegate: str, initiator: str
):
    """A delegate's writable branch root must never be keyed to another
    package: neither a foreign per-app area (``/<key>/...``) nor a pair
    area with a foreign initiator (``.../<x>@<key>/...``). Most delegate
    spans carry no writable root, so the foreign keys are built only for
    those that do."""
    root = attrs.get("writable_root")
    if not root:
        return []
    foreign = foreign_keys(all_packages, delegate, initiator)
    hits = []
    for segment in root.strip("/").split("/"):
        parts = segment.split("@") if "@" in segment else [segment]
        for part in parts:
            if part in foreign:
                hits.append((root, foreign[part]))
    return hits


def _is_write_span(name: str, attrs: Dict[str, Any]) -> bool:
    if name == "vfs.write" or name == "vol.commit":
        return True
    return name == "aufs.open" and bool(attrs.get("write"))


def evaluate_span(
    span: Span, all_packages, ledger: Optional[Any] = None
) -> Tuple[List[Violation], bool]:
    """Apply every S1-S4 predicate to one span, in the ``ctx`` it carries.

    Returns ``(violations, is_delegate_span)``; the flag feeds the
    positive-control count that the caller actually saw confined work.
    ``ledger`` is an optional :class:`repro.obs.provenance
    .ProvenanceLedger` enabling the taint-flow form of S1 (publishing
    data derived from a foreign Priv) with full lineage attached.
    """
    violations: List[Violation] = []
    name, attrs = span.name, span.attrs
    # prov.* bookkeeping events mirror the span they ran under; evaluating
    # them too would double-count every finding.
    if span.status != "ok" or name.startswith("prov."):
        return violations, False
    ctx = attrs.get("ctx")
    path = attrs.get("path", "") or ""
    pair = parse_delegate_ctx(ctx)
    if pair is not None:
        delegate, initiator = pair
        owner = priv_owner(path)
        if owner is not None and owner not in (delegate, initiator):
            violations.append(
                Violation(
                    "S1", name, ctx,
                    f"{name} in ctx {ctx} touched Priv({owner}): {path}",
                )
            )
        for root, pkg in writable_root_violations(
            attrs, all_packages, delegate, initiator
        ):
            violations.append(
                Violation(
                    "S2", name, ctx,
                    f"{name} in ctx {ctx} writes into a branch keyed to "
                    f"{pkg}: {root}",
                )
            )
        return violations, True
    # Non-delegate rules only apply to contexts that are installed
    # packages: the system process (ctx "system") legitimately reaches
    # into provider-owned files on apps' behalf.
    if ctx is None or ctx not in all_packages:
        return violations, False
    app = ctx
    owner = priv_owner(path)
    if owner is not None and owner != app:
        if _is_write_span(name, attrs):
            violations.append(
                Violation(
                    "S4", name, ctx,
                    f"{name} in ctx {ctx} wrote into Priv({owner}): {path}",
                )
            )
        else:
            violations.append(
                Violation(
                    "S3", name, ctx,
                    f"{name} in ctx {ctx} read Priv({owner}): {path}",
                )
            )
    if ledger is not None and _is_write_span(name, attrs):
        destination = attrs.get("destination") or path
        if destination and priv_owner(destination) is None:
            foreign = sorted(
                str(label)
                for label in ledger.taint_of(destination)
                if (label.kind == "priv" and label.owner != app)
                or (label.kind == "dpriv" and label.via != app)
            )
            if foreign:
                lineage = ledger.explain(destination)
                violations.append(
                    Violation(
                        "S1", name, ctx,
                        f"{name} in ctx {ctx} published data derived from "
                        f"{', '.join(foreign)} to public {destination}",
                        lineage=list(lineage.steps),
                    )
                )
    return violations, False
