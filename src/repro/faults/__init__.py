"""Deterministic fault injection for every mutating layer.

Each device's :class:`FaultPlane` is ``device.obs.faults``; instrumented
modules gate on its ``enabled`` (the disabled path stays at seed speed)
and consult ``plane.hit("point", **ctx)`` when armed. ``FAULTS`` is the
default context's plane (``FAULTS is OBS.faults``). Policies
(:func:`fail_nth`, :func:`fail_prob`, :func:`crash_at`,
:func:`fail_with`) are composable and reproducible; crashes raise
:class:`SimulatedCrash` and are undone by ``Device.recover()``.
"""

from .plane import (
    FAULT_POINTS,
    FaultPlane,
    FaultPolicy,
    SimulatedCrash,
    UnknownFaultPoint,
    register_point,
)
from .policies import crash_at, fail_nth, fail_prob, fail_with

__all__ = [
    "FAULT_POINTS",
    "FAULTS",
    "FaultPlane",
    "FaultPolicy",
    "SimulatedCrash",
    "UnknownFaultPoint",
    "crash_at",
    "fail_nth",
    "fail_prob",
    "fail_with",
    "register_point",
]


def __getattr__(name: str):
    # Resolved on use: repro.obs, which owns the default context,
    # imports this package.
    if name == "FAULTS":
        from repro.obs import OBS

        return OBS.faults
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
