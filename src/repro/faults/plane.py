"""The fault plane: named fault points, armed policies, and the schedule.

A *fault point* is a named place in a mutating hot path (``vfs.write``,
``aufs.copy_up``, ``cow.delta_commit``, ...). A kernel entry point
declares its point with ``@boundary(..., fault=...)``
(:mod:`repro.boundary`); a consult between the steps of a multi-step
mutation gates inline on a single attribute check, exactly like
:mod:`repro.obs`::

    if _FAULTS.enabled:
        _FAULTS.hit("cow.delta_commit.apply", table=table, device_id=...)

so the disabled path costs one attribute load and a branch and nothing
else. When the plane is armed, every ``hit()`` consults the policies armed
at that point (first one that fires wins) and either returns normally,
raises a substituted error (e.g. :class:`~repro.errors.ReadOnlyFilesystem`),
or raises :class:`SimulatedCrash` — the "power went out here" signal that
no simulated component may catch.

Everything the plane decides is recorded twice:

- the **schedule**: one compact ``(seq, point, outcome)`` entry per
  consult, serializable to bytes via :meth:`FaultPlane.schedule_bytes` —
  two runs with the same seed and workload produce byte-identical
  schedules (the reproducibility contract);
- the **injection log**: one rich entry (with call-site context) per
  *fired* fault, which :class:`repro.core.audit.AuditLog` ingests so a
  post-mortem shows exactly why a run failed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.digest import canonical_bytes
from repro.tap import Tap

__all__ = [
    "FAULT_POINTS",
    "FaultPlane",
    "FaultPolicy",
    "SimulatedCrash",
    "UnknownFaultPoint",
    "register_point",
]


class SimulatedCrash(BaseException):
    """The machine died at a fault point.

    Deliberately a :class:`BaseException`: a real crash cannot be handled
    by the code it interrupts, so no ``except ReproError`` / ``except
    Exception`` in the simulated stack may swallow it. Only the test
    harness (or whoever armed the plane) catches it — and then calls
    ``Device.recover()``.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at fault point {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit


class UnknownFaultPoint(ValueError):
    """Arming a point that no instrumented call site declares."""


#: Every declared fault point: name -> (layer, description). The layer is
#: the span-taxonomy prefix (the text before the first dot), matching the
#: :mod:`repro.obs` span names for the same operations.
FAULT_POINTS: Dict[str, str] = {}


def register_point(name: str, description: str) -> str:
    """Declare a fault point (idempotent; call at module import time)."""
    FAULT_POINTS[name] = description
    return name


# The core mutating paths, one per instrumented layer. Sub-points (with a
# second dot) sit *between* the steps of a multi-step mutation, so a crash
# there exercises the crash-atomicity machinery of that path.
register_point("vfs.write", "syscall-layer file write/append")
register_point("aufs.copy_up", "union-fs copy-up, before any mutation")
register_point("aufs.copy_up.publish", "between temp-file write and rename")
register_point("mounts.resolve", "mount-namespace path resolution")
register_point("binder.transact", "binder transaction dispatch")
register_point("am.delegate_bookkeeping", "between delegate fork and registration")
register_point("zygote.fork", "app-process creation")
register_point("cow.delta_commit", "COW proxy delta-row commit, before journaling")
register_point("cow.delta_commit.apply", "between journal write and primary apply")
register_point("cow.delta_commit.truncate", "between primary apply and journal clear")
register_point("vol.commit", "volatile file commit, before journaling")
register_point("vol.commit.journal", "inside the journal-entry write (torn entry)")
register_point("vol.commit.apply", "between journal write and destination write")
register_point("vol.commit.truncate", "between destination write and journal clear")
register_point("bt.send", "bluetooth egress, before the delegate guard")
register_point("sms.send", "telephony SMS egress, before the delegate guard")
register_point("dm.enqueue", "download-manager enqueue, before the provider insert")


class FaultPolicy:
    """Decides, per hit of an armed point, whether to inject a fault.

    Policies are stateful (``fail_nth`` counts, ``fail_prob`` owns its own
    seeded RNG) and composable: several can be armed at one point, and the
    first that returns an exception wins.
    """

    #: Human-readable tag recorded in the injection log.
    describe: str = "policy"

    def decide(
        self, point: str, hit: int, ctx: Dict[str, Any]
    ) -> Optional[BaseException]:
        """Return the exception to raise at this hit, or None to pass."""
        raise NotImplementedError


class FaultPlane:
    """Armed fault points behind one enable switch (mirrors ``OBS``)."""

    def __init__(self) -> None:
        self.enabled = False
        self._armed: Dict[str, List[FaultPolicy]] = {}
        self._hits: Dict[str, int] = {}
        self._seq = 0
        #: (seq, point, outcome) per consult; outcome is "pass",
        #: "raise:<ErrorType>" or "crash".
        self.schedule: List[Tuple[int, str, str]] = []
        #: One dict per *fired* fault, with the call-site context.
        self.injection_log: List[Dict[str, Any]] = []
        #: ``fn(point, outcome, ctx)`` per consult — the flight
        #: recorder's tap. Subscribers see a fired fault *before* it
        #: propagates, so a recorder captures the injection even when the
        #: workload dies on it. :meth:`reset` leaves it alone. Empty (one
        #: truthiness check per consult, nothing per disabled call site)
        #: until something subscribes.
        self.consult_tap = Tap()

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self, point: str, *policies: FaultPolicy) -> "FaultPlane":
        """Arm one or more policies at ``point`` (appended in order)."""
        if point not in FAULT_POINTS:
            raise UnknownFaultPoint(
                f"{point!r} is not a declared fault point; known points: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        if not policies:
            raise ValueError("arm() needs at least one policy")
        self._armed.setdefault(point, []).extend(policies)
        self.enabled = True
        return self

    def disarm(self, point: Optional[str] = None) -> None:
        """Drop armed policies (one point, or all); disables when empty."""
        if point is None:
            self._armed.clear()
        else:
            self._armed.pop(point, None)
        if not self._armed:
            self.enabled = False

    def reset(self) -> None:
        """Disarm everything and forget all recorded state."""
        self.disarm()
        self._hits.clear()
        self._seq = 0
        self.schedule.clear()
        self.injection_log.clear()

    @contextmanager
    def scope(self) -> Iterator["FaultPlane"]:
        """``with FAULTS.scope(): ...`` — arm freely, always left clean."""
        try:
            yield self
        finally:
            self.reset()

    def armed_points(self) -> List[str]:
        return sorted(self._armed)

    # ------------------------------------------------------------------
    # The hot-path entry
    # ------------------------------------------------------------------

    def hit(self, point: str, **ctx: Any) -> None:
        """Consult the plane at ``point``; raises when a policy fires.

        Call sites gate on ``enabled`` *before* building ``ctx`` kwargs;
        this method is only entered once the plane is armed.
        """
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        self._seq += 1
        seq = self._seq
        fired: Optional[BaseException] = None
        for policy in self._armed.get(point, ()):
            fired = policy.decide(point, hit, ctx)
            if fired is not None:
                break
        if fired is None:
            outcome = "pass"
        else:
            outcome = (
                "crash"
                if isinstance(fired, SimulatedCrash)
                else f"raise:{type(fired).__name__}"
            )
            self.injection_log.append(
                {
                    "seq": seq,
                    "point": point,
                    "hit": hit,
                    "outcome": outcome,
                    "policy": policy.describe,
                    "ctx": dict(ctx),
                }
            )
        self.schedule.append((seq, point, outcome))
        if self.consult_tap:
            for fn in self.consult_tap:
                fn(point, outcome, ctx)
        if fired is not None:
            raise fired

    def hits(self, point: str) -> int:
        """How many times ``point`` has been consulted since reset."""
        return self._hits.get(point, 0)

    # ------------------------------------------------------------------
    # Reproducibility
    # ------------------------------------------------------------------

    def schedule_bytes(self) -> bytes:
        """The full consult schedule as bytes.

        Two runs of the same workload with the same seeds produce equal
        values — the determinism test's byte-identity contract.
        """
        return canonical_bytes(
            f"{seq} {point} {outcome}" for seq, point, outcome in self.schedule
        )


#: The process-wide fault plane every instrumented module gates on.
FAULTS = FaultPlane()
