"""The security monitor: S1-S4 evaluated as each span closes.

:class:`SecurityMonitor` subscribes to the tracer's span tap
(:attr:`repro.obs.trace.Tracer.span_tap`) and runs the rule engine
(:func:`repro.obs.sweep.evaluate_span`) against every finished span — so
a confinement violation is flagged the moment the offending operation
returns, not after the workload ends. Each span is judged in the
``ctx`` it carries: the tracer stamps a span that tags none (aufs/cow/
sql spans) with its parent's when it opens.

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

    def _on_span(self, span: Span) -> None:
        self.spans_seen += 1
        found, counted = evaluate_span(span, self._packages, self._ledger)
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
                    ctx=violation.ctx or "",
                )

    # -- results ---------------------------------------------------------

    @property
    def messages(self) -> List[str]:
        """Violation messages as plain strings."""
        return [violation.message for violation in self.violations]
