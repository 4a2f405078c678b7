"""The online security monitor: S1-S4 evaluated as each span closes.

:class:`SecurityMonitor` subscribes to the tracer's span tap
(:attr:`repro.obs.trace.Tracer.span_tap`) and runs the same rule
engine the offline sweep uses (:func:`repro.obs.sweep.evaluate_span`)
against every finished span — so a confinement violation is flagged the
moment the offending operation returns, not after the workload ends.
Context inheritance matches the tree-based sweep: when a span did not
tag its own ``ctx`` (aufs/cow/sql spans), the monitor reads it off the
nearest still-open ancestor, which is exactly the span the tree walk
would have inherited from.

With a :class:`repro.obs.provenance.ProvenanceLedger` armed, the
taint-flow form of S1 applies too, and every violation is recorded into
the device :class:`repro.core.audit.AuditLog` with its full derivation
chain — the post-crash validation in ``Device.recover()`` uses this to
report *how* leaked data got where it was found.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.obs.sweep import Violation, evaluate_span
from repro.obs.trace import Span, Tracer

__all__ = ["SecurityMonitor"]


class SecurityMonitor:
    """Streaming S1-S4 checker attached to a tracer.

    Usable as a context manager::

        with SecurityMonitor(obs.tracer, packages, ledger=obs.provenance) as mon:
            run_workload()
        assert not mon.violations

    ``audit_log`` (an :class:`~repro.core.audit.AuditLog`) receives one
    ``violation`` entry per finding, lineage included.
    """

    def __init__(
        self,
        tracer: Tracer,
        packages: Iterable[str],
        ledger: Optional[Any] = None,
        audit_log: Optional[Any] = None,
    ) -> None:
        self._tracer = tracer
        self._packages = set(packages)
        self._ledger = ledger
        self._audit_log = audit_log
        #: Violations in the order their spans closed.
        self.violations: List[Violation] = []
        #: Positive control: spans evaluated under a delegate context.
        self.delegate_spans = 0
        #: Total spans the monitor saw.
        self.spans_seen = 0

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> "SecurityMonitor":
        """Start receiving finished spans (idempotent)."""
        self._tracer.span_tap.add(self._on_span)
        return self

    def detach(self) -> None:
        """Stop receiving spans (idempotent)."""
        self._tracer.span_tap.remove(self._on_span)

    def __enter__(self) -> "SecurityMonitor":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # -- the streaming hook ---------------------------------------------

    def _inherited_ctx(self, span: Span) -> Optional[str]:
        ctx = span.attrs.get("ctx")
        if ctx is not None:
            return ctx
        # The tracer pops a span off the stack *before* notifying
        # subscribers, so the open ancestors are still there: the nearest
        # one carrying a ctx is the span the tree walk would inherit from.
        for ancestor in reversed(self._tracer._stack):
            ctx = ancestor.attrs.get("ctx")
            if ctx is not None:
                return ctx
        return None

    def _on_span(self, span: Span) -> None:
        self.spans_seen += 1
        ctx = self._inherited_ctx(span)
        found, counted = evaluate_span(
            span.name, span.attrs, span.status, ctx, self._packages, self._ledger
        )
        if counted:
            self.delegate_spans += 1
        for violation in found:
            self.violations.append(violation)
            if self._audit_log is not None:
                self._audit_log.record_violation(
                    violation.rule,
                    violation.message,
                    lineage=violation.lineage,
                    span=span.name,
                    ctx=ctx or "",
                )

    # -- results ---------------------------------------------------------

    @property
    def messages(self) -> List[str]:
        """Violation messages, sweep-compatible strings."""
        return [violation.message for violation in self.violations]

    def explain_all(self) -> List[str]:
        """Every violation rendered with its lineage chain."""
        return [violation.render() for violation in self.violations]
