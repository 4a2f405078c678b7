"""The fault plane: named fault points, armed policies, and the schedule.

A *fault point* is a named place in a mutating hot path (``vfs.write``,
``aufs.copy_up``, ``cow.delta_commit``, ...). A kernel entry point
declares its point with ``@boundary(..., fault=...)``
(:mod:`repro.boundary`), which registers it in :data:`FAULT_POINTS`; a
consult between the steps of a multi-step mutation is a private step
method declared the same way. The forwarder gates on ``enabled``,
exactly like :mod:`repro.obs`, so the disabled path costs attribute
loads and a branch and nothing else. Each device's
:class:`~repro.obs.ObsContext` owns its own plane. When the plane is
armed, every ``hit()`` consults the policies armed at that point (first
one that fires wins) and either returns normally, raises a substituted
error (e.g. :class:`~repro.errors.ReadOnlyFilesystem`), or raises
:class:`SimulatedCrash` — the "power went out here" signal that no
simulated component may catch.

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


#: Every declared fault point: name -> the method that declares it. The
#: layer is the span-taxonomy prefix (the text before the first dot); a
#: sub-point (second dot) sits *between* the steps of a multi-step mutation.
#: Filled by ``@boundary(fault=...)`` as :mod:`repro` is imported.
FAULT_POINTS: Dict[str, str] = {}


def register_point(name: str, owner: str) -> str:
    """Declare a fault point (idempotent; call at module import time)."""
    FAULT_POINTS[name] = owner
    return name


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
    """Armed fault points behind one enable switch; :meth:`hit` adds the
    owning device's ``device_id`` (when given) to every consult's context."""

    def __init__(self, device_id: Optional[str] = None) -> None:
        self.enabled = False
        self.device_id = device_id
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
        """``with plane.scope(): ...`` — arm freely, always left clean."""
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
        if self.device_id is not None:
            ctx["device_id"] = self.device_id
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
