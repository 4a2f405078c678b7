"""The S1-S4 security rule engine, shared by sweep and monitor.

Given spans recorded during a workload, :func:`evaluate_span`
mechanically replays the paper's confinement goals over each one:

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

The same predicates back the *offline* :func:`sweep` over finished span
trees (used by the trace-invariant suite and ``Device.recover()``) and
the *online* :class:`repro.obs.monitor.SecurityMonitor`, which evaluates
every span the moment it closes — one rule engine, two drive modes, so
the two checkers can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.naming import DATA_ROOT, initiator_key
from repro.obs.trace import SpanNode

DATA_PREFIX = DATA_ROOT + "/"
PPRIV_SEGMENT = "ppriv"

__all__ = [
    "DATA_PREFIX",
    "PPRIV_SEGMENT",
    "Violation",
    "evaluate_span",
    "foreign_keys",
    "parse_delegate_ctx",
    "priv_owner",
    "spans_with_inherited_ctx",
    "sweep",
    "sweep_violations",
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


def spans_with_inherited_ctx(
    trees: Iterable[SpanNode],
) -> Iterator[Tuple[SpanNode, Optional[str]]]:
    """Yield ``(node, ctx)`` for every span, with ``ctx`` taken from the
    nearest ancestor-or-self span that recorded one (vfs and am spans tag
    themselves; aufs/cow/sql spans inherit the caller's)."""

    def walk(node, ctx):
        ctx = node.span.attrs.get("ctx", ctx)
        yield node, ctx
        for child in node.children:
            yield from walk(child, ctx)

    for tree in trees:
        yield from walk(tree, None)


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


def writable_root_violations(attrs: Dict[str, Any], foreign):
    """A delegate's writable branch root must never be keyed to another
    package: neither a foreign per-app area (``/<key>/...``) nor a pair
    area with a foreign initiator (``.../<x>@<key>/...``)."""
    root = attrs.get("writable_root")
    if not root:
        return []
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
    name: str,
    attrs: Dict[str, Any],
    status: str,
    ctx: Optional[str],
    all_packages,
    ledger: Optional[Any] = None,
) -> Tuple[List[Violation], bool]:
    """Apply every S1-S4 predicate to one span.

    Returns ``(violations, is_delegate_span)``; the flag feeds the
    positive-control count that the caller actually saw confined work.
    ``ledger`` is an optional :class:`repro.obs.provenance
    .ProvenanceLedger` enabling the taint-flow form of S1 (publishing
    data derived from a foreign Priv) with full lineage attached.
    """
    violations: List[Violation] = []
    # prov.* bookkeeping events mirror the span they ran under; evaluating
    # them too would double-count every finding.
    if status != "ok" or name.startswith("prov."):
        return violations, False
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
            attrs, foreign_keys(all_packages, delegate, initiator)
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


def sweep_violations(
    trees, all_packages, ledger: Optional[Any] = None
) -> Tuple[List[Violation], int]:
    """Replay the rule engine over every recorded span (offline mode).

    Returns ``(violations, delegate_span_count)``; the count is the
    positive control that the sweep actually saw confined work.
    """
    violations: List[Violation] = []
    delegate_spans = 0
    packages = set(all_packages)
    for node, ctx in spans_with_inherited_ctx(trees):
        found, counted = evaluate_span(
            node.span.name, node.span.attrs, node.span.status, ctx, packages, ledger
        )
        violations.extend(found)
        if counted:
            delegate_spans += 1
    return violations, delegate_spans


def sweep(trees, all_packages, ledger: Optional[Any] = None) -> Tuple[List[str], int]:
    """Replay the confinement check over every recorded span.

    Message-only variant of :func:`sweep_violations`, kept for callers
    that treat violations as opaque strings.
    """
    violations, delegate_spans = sweep_violations(trees, all_packages, ledger)
    return [v.message for v in violations], delegate_spans
