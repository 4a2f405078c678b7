"""Deterministic concurrency kernel: seeded cooperative scheduler.

``SCHED`` is the process-global reactor, gated exactly like a device's
obs and fault planes: every instrumented kernel boundary checks ``SCHED.enabled``
before touching the plane, so the single-threaded simulation pays
nothing when no scheduled run is live. See :mod:`repro.sched.reactor`
for the task model and :mod:`repro.sched.locks` for the cooperative
read-write locks and lock-order checker.
"""

from repro.sched.locks import DeadlockError, LockOrderChecker, RWLock
from repro.sched.reactor import (
    SCHED,
    DeterministicScheduler,
    SchedTask,
    SchedulerRun,
    schedule_bytes,
    schedule_digest,
)

__all__ = [
    "SCHED",
    "DeadlockError",
    "DeterministicScheduler",
    "LockOrderChecker",
    "RWLock",
    "SchedTask",
    "SchedulerRun",
    "schedule_bytes",
    "schedule_digest",
]
