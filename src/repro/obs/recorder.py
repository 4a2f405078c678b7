"""The flight recorder: one causal event ring per device, sealed on crash.

Every verification plane already emits evidence — spans from the tracer,
decisions from the deterministic scheduler, consults from the device's
fault plane, lineage from the provenance ledger (as ``prov.*`` spans), lock
grants from the reactor's RWLocks, and audit entries from the device's
:class:`~repro.core.audit.AuditLog`. This module merges those streams
into one **bounded ring of causally ordered** :class:`Event` records per
device: a monotonic per-device ``seq`` plus the scheduler's virtual
clock, fed by :class:`~repro.tap.Tap` subscriptions that cost *nothing*
until :meth:`FlightRecorder.arm` makes them (a disarmed recorder leaves
every plane's hot path untouched — the same zero-cost-when-off contract
as the obs, fault and scheduler planes). The span and fault taps, and
the seal's fault metadata, are the owning context's own; the scheduler
taps are the one reactor's, which drives every task of a run.

When something goes wrong the recorder seals a **black box**: an
immutable :class:`BlackBox` snapshot of the ring plus run metadata
(seeds, schedule digest, git sha, armed fault policies). Sealing is
trigger-driven:

==================  ====================================================
trigger             fired by
==================  ====================================================
``violation``       the audit tap, on an S1-S4 ``violation`` entry
``delegate-timeout``the audit tap, on a binder ``timeout`` entry
``deadlock``        the scheduler's trigger hook, before ``DeadlockError``
``crash-recovery``  ``Device.recover()``, after journal replay
``counterexample``  the fuzz drivers, when packaging a finding
==================  ====================================================

Because every event line is **counter-free** (no pids, no wall-clock —
only seq, virtual clock, plane, name, and a deterministic detail
string), a black box replays byte-identically: re-running the recorded
scenario under ``SCHED.replay`` with ``halt_at=<anchor seq>`` reproduces
the exact event prefix and raises :class:`AnchorReached` at the anchor,
with the live device still standing for inspection — the
**replay-to-anchor** postmortem (see :func:`repro.fuzz.replay_to_anchor`
and ``python -m repro.obs.timeline``).
"""

from __future__ import annotations

from itertools import takewhile
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.digest import lines_digest
from repro.obs.artifacts import run_metadata
from repro.sched.reactor import SCHED, schedule_digest
from repro.tap import Tap

__all__ = [
    "AnchorReached",
    "BlackBox",
    "Event",
    "FlightRecorder",
    "SEAL_TRIGGERS",
]

#: Every trigger a dump may carry (the trigger matrix above).
SEAL_TRIGGERS = (
    "violation",
    "delegate-timeout",
    "deadlock",
    "crash-recovery",
    "counterexample",
    "manual",
)


class AnchorReached(BaseException):
    """Replay hit the anchor event: halt with the device inspectable.

    A :class:`BaseException` so no simulation-level ``except Exception``
    can swallow the halt on its way out of the op that reproduced the
    anchor; only the replay driver catches it.
    """

    def __init__(self, event: "Event") -> None:
        super().__init__(
            f"replay reached anchor event #{event.seq} "
            f"({event.plane}/{event.name} @ vclock {event.vclock:g})"
        )
        self.event = event


class Event:
    """One causally ordered record in the flight-recorder ring.

    ``line()`` is the canonical counter-free form — it enters the events
    digest and therefore the byte-identity contract, so it may only
    contain the per-device ``seq``, the virtual clock, the plane, the
    event name, and a deterministic detail string. ``attrs`` carries the
    full (possibly counter-bearing) context for humans and is excluded
    from the digest.
    """

    __slots__ = ("seq", "vclock", "plane", "name", "detail", "attrs", "device_id")

    def __init__(
        self,
        seq: int,
        vclock: float,
        plane: str,
        name: str,
        detail: str = "",
        attrs: Optional[Dict[str, Any]] = None,
        device_id: str = "device0",
    ) -> None:
        self.seq = seq
        self.vclock = vclock
        self.plane = plane
        self.name = name
        self.detail = detail
        self.attrs = attrs or {}
        self.device_id = device_id

    def line(self) -> str:
        """The canonical counter-free form (digest input)."""
        return f"{self.seq} {self.vclock:g} {self.plane} {self.name} {self.detail}"

    def render(self) -> str:
        return f"[{self.device_id}:{self.seq:05d} t={self.vclock:g}] {self.plane:6s} {self.name} {self.detail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "vclock": self.vclock,
            "plane": self.plane,
            "name": self.name,
            "detail": self.detail,
            "attrs": dict(self.attrs),
            "device_id": self.device_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Event":
        return cls(
            seq=int(data["seq"]),
            vclock=float(data["vclock"]),
            plane=str(data["plane"]),
            name=str(data["name"]),
            detail=str(data.get("detail", "")),
            attrs=dict(data.get("attrs", {})),
            device_id=str(data.get("device_id", "device0")),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event #{self.seq} {self.plane}/{self.name}>"


def events_digest(events: Tuple[Event, ...], upto: Optional[int] = None) -> str:
    """sha256 over the canonical lines of ``events`` (optionally only the
    prefix with ``seq <= upto``) — the byte-identity half of the
    replay-to-anchor acceptance check."""
    if upto is not None:
        events = tuple(takewhile(lambda event: event.seq <= upto, events))
    return lines_digest(event.line() for event in events)


class BlackBox:
    """One sealed flight-recorder dump: events + run metadata."""

    def __init__(
        self,
        trigger: str,
        device_id: str,
        events: Tuple[Event, ...],
        metadata: Dict[str, Any],
    ) -> None:
        self.trigger = trigger
        self.device_id = device_id
        self.events = events
        self.metadata = metadata

    @property
    def anchor_seq(self) -> int:
        """The seq of the last recorded event — the replay anchor."""
        return self.events[-1].seq if self.events else 0

    def events_digest(self, upto: Optional[int] = None) -> str:
        return events_digest(self.events, upto=upto)

    def summary(self) -> Dict[str, Any]:
        """The dump's identity as a counterexample artifact cites it."""
        return {
            "anchor_seq": self.anchor_seq,
            "events": len(self.events),
            "events_digest": self.events_digest(),
        }

    def render(self) -> str:
        lines = [
            f"black box: trigger={self.trigger} device={self.device_id} "
            f"events={len(self.events)} anchor={self.anchor_seq} "
            f"digest={self.events_digest()[:16]}"
        ]
        for event in self.events:
            lines.append("  " + event.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "blackbox",
            "trigger": self.trigger,
            "device_id": self.device_id,
            "anchor_seq": self.anchor_seq,
            "events_digest": self.events_digest(),
            "metadata": dict(self.metadata),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlackBox":
        return cls(
            trigger=str(data["trigger"]),
            device_id=str(data["device_id"]),
            events=tuple(Event.from_dict(e) for e in data.get("events", [])),
            metadata=dict(data.get("metadata", {})),
        )


class FlightRecorder:
    """The per-device black-box recorder behind one ``armed`` switch.

    Owned by an :class:`~repro.obs.ObsContext` (``ctx.recorder``); shares
    the context's ``device_id`` and metrics registry (the ring's eviction
    counter lands in ``recorder.evicted`` so Prometheus exposition and
    fleet merges pick it up for free). Never enters any hot path itself:
    :meth:`arm` subscribes to the taps of the context's tracer and fault
    plane, the scheduler, and an audit log; :meth:`disarm` unsubscribes from
    every one of them, restoring the exact pre-arm state.
    """

    def __init__(self, ctx: Any) -> None:
        self._ctx = ctx
        self.armed = False
        self.capacity = 4096
        self.seq = 0
        self.evicted = 0
        self.dumps: List[BlackBox] = []
        self.max_dumps = 8
        self.dumps_suppressed = 0
        self.halted_event: Optional[Event] = None
        self._events: List[Event] = []
        #: scheduler decisions seen through the decision tap, in order —
        #: their digest is the dump's ``schedule_digest`` metadata.
        self.decisions: List[Tuple[int, str, str]] = []
        self._halt_at: Optional[int] = None
        self._autoseal = True
        #: (tap, handler) per subscription :meth:`arm` made.
        self._taps: List[Tuple[Tap, Callable[..., None]]] = []
        self._arm_config: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------

    def arm(
        self,
        capacity: int = 4096,
        audit_log: Optional[Any] = None,
        halt_at: Optional[int] = None,
        autoseal: bool = True,
    ) -> "FlightRecorder":
        """Attach the taps and start recording from a clean ring.

        ``halt_at`` arms replay-to-anchor: the moment event ``seq ==
        halt_at`` is recorded, the scheduler (when live) is asked to stop
        and :class:`AnchorReached` is raised through the recording call
        site. ``autoseal=False`` disables the trigger-driven dumps (the
        taps still record; only explicit :meth:`seal` calls dump).
        """
        if self.armed:
            self.disarm()
        self.capacity = int(capacity)
        self.seq = 0
        self.evicted = 0
        self.dumps = []
        self.dumps_suppressed = 0
        self.halted_event = None
        self._events = []
        self.decisions = []
        self._halt_at = halt_at
        self._autoseal = autoseal
        self._arm_config = {
            "capacity": capacity,
            "audit_log": audit_log,
            "halt_at": halt_at,
            "autoseal": autoseal,
        }
        self._taps = [
            (self._ctx.tracer.span_tap, self._on_span),
            (self._ctx.faults.consult_tap, self._on_fault),
            (SCHED.decision_tap, self._on_decision),
            (SCHED.trigger_tap, self._on_trigger),
            (SCHED.lock_tap, self._on_lock),
        ]
        if audit_log is not None:
            self._taps.append((audit_log.entry_tap, self._on_audit))
        for tap, fn in self._taps:
            tap.add(fn)
        self.armed = True
        return self

    def disarm(self) -> None:
        """Detach every tap; the ring and sealed dumps stay readable."""
        if not self.armed:
            return
        self.armed = False
        for tap, fn in self._taps:
            tap.remove(fn)

    @property
    def arm_config(self) -> Dict[str, Any]:
        """The kwargs the last :meth:`arm` was called with (capture()
        uses this to restore an outer arm-state on exit)."""
        return dict(self._arm_config)

    # -- the ring --------------------------------------------------------

    def events(self) -> List[Event]:
        return list(self._events)

    def record(
        self, plane: str, name: str, detail: str = "", /, **attrs: Any
    ) -> Optional[Event]:
        """Append one causally ordered event (no-op when disarmed)."""
        if not self.armed:
            return None
        self.seq += 1
        vclock = SCHED.clock if SCHED.enabled else 0.0
        event = Event(
            seq=self.seq,
            vclock=vclock,
            plane=plane,
            name=name,
            detail=detail,
            attrs=attrs,
            device_id=self._ctx.device_id,
        )
        if len(self._events) >= self.capacity:
            del self._events[0]
            self.evicted += 1
            self._ctx.metrics.count("recorder.evicted")
        self._events.append(event)
        if self._halt_at is not None and event.seq == self._halt_at:
            self.halted_event = event
            if SCHED.enabled:
                SCHED.request_stop()
            raise AnchorReached(event)
        return event

    # -- taps (attached by arm, detached by disarm) ----------------------

    def _on_span(self, span: Any) -> None:
        ctx = span.attrs.get("ctx")
        detail = span.status if ctx is None else f"{span.status} ctx={ctx}"
        plane = "prov" if span.name.startswith("prov.") else "span"
        self.record(plane, span.name, detail, **dict(span.attrs))

    def _on_fault(self, point: str, outcome: str, ctx: Dict[str, Any]) -> None:
        self.record("fault", point, outcome, **dict(ctx))

    def _on_decision(self, step: int, task: str, point: str) -> None:
        self.decisions.append((step, task, point))
        self.record("sched", "decision", f"{task} @ {point}", step=step)

    def _on_lock(self, task: Any, lock: Any, mode: str, action: str) -> None:
        self.record(
            "lock",
            f"{action}",
            f"{mode}:{lock.name} by {getattr(task, 'name', '?')}",
        )

    def _on_trigger(self, kind: str, report: str) -> None:
        self.record("sched", f"trigger.{kind}", "", report=report)
        if self._autoseal:
            self.seal(kind if kind in SEAL_TRIGGERS else "manual", report=report)

    def _on_audit(self, event: Any) -> None:
        self.record(
            "audit",
            event.category,
            event.message,
            **dict(event.details),
        )
        if not self._autoseal:
            return
        if event.category == "violation":
            self.seal("violation", rule=event.details.get("rule", ""))
        elif event.category == "timeout":
            self.seal("delegate-timeout")

    # -- sealing ---------------------------------------------------------

    def schedule_digest(self) -> str:
        """sha256 of the scheduler decisions seen through the tap."""
        return schedule_digest(self.decisions)

    def seal(self, trigger: str = "manual", **extra: Any) -> Optional[BlackBox]:
        """Freeze the ring into a :class:`BlackBox` dump.

        Metadata carries the run identity (:func:`~repro.obs.artifacts.run_metadata`),
        the owning device's armed fault policies and consult schedule, and
        the scheduler decision digest — everything a postmortem needs to
        replay the run. Dumps beyond ``max_dumps`` are counted, not kept.
        """
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return None
        faults = self._ctx.faults
        metadata: Dict[str, Any] = dict(run_metadata())
        metadata.update(
            {
                "trigger": trigger,
                "armed_faults": {
                    point: [policy.describe for policy in policies]
                    for point, policies in sorted(faults._armed.items())
                },
                "fault_schedule": faults.schedule_bytes().decode(),
                "schedule_digest": self.schedule_digest(),
                "decisions": list(self.decisions),
                "evicted": self.evicted,
            }
        )
        metadata.update(extra)
        box = BlackBox(
            trigger=trigger,
            device_id=self._ctx.device_id,
            events=tuple(self._events),
            metadata=metadata,
        )
        self.dumps.append(box)
        return box

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self.armed else "disarmed"
        return (
            f"<FlightRecorder {self._ctx.device_id} ({state}) "
            f"events={len(self._events)} dumps={len(self.dumps)}>"
        )
