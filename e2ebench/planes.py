"""What each instrumentation plane costs on whole delegate invocations.

The same ``delegate_invoke`` op prefix runs once with every plane
disarmed and once with each plane armed alone. ``prov`` and ``profile``
arm through ``OBS.capture``, which turns span recording on as well, so
their number includes ``obs``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from repro.faults import FAULTS, FaultPolicy
from repro.faults.plane import FAULT_POINTS
from repro.obs import OBS
from repro.sched import SCHED

from e2ebench.workloads import DelegateInvoke

PLANES = ("obs", "prov", "profile", "recorder", "faults", "sched")


class _NeverFires(FaultPolicy):
    describe = "never"

    def decide(self, point, hit, ctx):
        return None


@contextmanager
def armed(plane: str, workload: DelegateInvoke) -> Iterator[None]:
    """Arm one plane for the block and leave it disarmed afterwards."""
    if plane == "obs":
        OBS.enable()
        try:
            yield
        finally:
            OBS.disable()
    elif plane in ("prov", "profile"):
        with OBS.capture(**{plane: True}):
            yield
    elif plane == "recorder":
        workload.device.arm_flight_recorder()
        try:
            yield
        finally:
            OBS.recorder.disarm()
    elif plane == "faults":
        for point in sorted(FAULT_POINTS):
            FAULTS.arm(point, _NeverFires())
        try:
            yield
        finally:
            FAULTS.reset()
    else:
        raise ValueError(f"unknown plane {plane!r}")


def plane_matrix(seed: int, seconds: float, drive: Callable) -> Dict[str, float]:
    """``plane.<name>.overhead_pct`` for every plane.

    The disarmed pass runs for a share of ``seconds`` and fixes the prefix
    length; it runs again at the end and the two are averaged, so drift
    over the matrix does not land on the last plane. ``drive(workload,
    ops=..., seconds=...)`` is the runner's op loop."""

    def fresh() -> DelegateInvoke:
        workload = DelegateInvoke(seed)
        workload.setup()
        gc.collect()
        return workload

    first = drive(fresh(), seconds=seconds / (len(PLANES) + 2))
    ops = first.ops
    times: Dict[str, float] = {}
    for plane in PLANES:
        workload = fresh()
        if plane == "sched":
            # The whole loop as one scheduled task: every yield point
            # hands control to the reactor and back.
            result = {}
            SCHED.run(
                [("loop", lambda: result.setdefault("pass", drive(workload, ops=ops)))],
                seed=0,
                max_decisions=10**9,
            )
            times[plane] = result["pass"].op_time
        else:
            with armed(plane, workload):
                times[plane] = drive(workload, ops=ops).op_time
    base = (first.op_time + drive(fresh(), ops=ops).op_time) / 2
    return {
        f"plane.{plane}.overhead_pct": (times[plane] / base - 1.0) * 100.0
        for plane in PLANES
    }
