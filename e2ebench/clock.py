"""Op timing that does not move when the machine does.

Two kinds of interference move wall time on a shared machine. Other
processes get time slices between the benchmark's, which stretches any op
longer than a slice; process CPU time (:data:`now`, summed over the
process's threads) does not count those slices. And the processor itself
runs the interpreter tens of percent slower or faster over seconds to
minutes, which moves CPU time too. For that, the runner interleaves a
fixed pure-Python reference computation (:func:`calibrate`, which touches
nothing of the system under test) with the ops, untimed, and scales every
op time by ``REFERENCE_S`` over the rolling median of the reference times
measured around it. Reported times are what the op costs on a processor
that runs the reference in ``REFERENCE_S``: a busy neighbour no longer
reads as a regression, while a change to the system under test, which
cannot touch the reference, does.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Sequence, Tuple

#: The op clock: CPU time of every thread of this process.
now = time.process_time

#: The reference computation's median time on the development machine
#: (a 2-core x86-64 VM, CPython 3.11), so scaled times stay close to raw.
REFERENCE_S = 0.0022
#: Reference samples this many seconds apart (about a tenth of the time).
CALIBRATE_EVERY_S = 0.02
#: Each op is scaled by the median of this many samples around it.
WINDOW = 16


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int, nxt: "_Node") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def calibrate() -> float:
    """Run the reference computation once; returns its :data:`now` time.

    Dict, string, object and list churn like the interpreter work the
    workloads do, with the collector off so that the size of the
    workload's heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = now()
        table: dict = {}
        head = None
        for i in range(1500):
            key = f"k{i % 97}:{i}"
            table[key] = table.get(key, 0) + i
            head = _Node(key, i, head)
            if i % 7 == 0:
                sorted(list(table)[-20:])
        total = 0
        while head is not None:
            total += head.value
            head = head.next
        return now() - start
    finally:
        if enabled:
            gc.enable()


def scale(latencies: Sequence[float], samples: Sequence[Tuple[int, float]]) -> List[float]:
    """Scale op times to the reference speed.

    ``samples`` are ``(ops_done, seconds)`` reference timings in run
    order; op ``i`` uses the rolling median of the samples around the
    first one taken after it."""
    if not samples:
        raise ValueError("no reference samples to scale by")
    marks = [done for done, _ in samples]
    values = [seconds for _, seconds in samples]
    half = WINDOW // 2
    factors = [
        REFERENCE_S / statistics.median(values[max(0, j - half) : j + half])
        for j in range(len(values))
    ]
    last = len(samples) - 1
    return [
        latency * factors[min(bisect.bisect_right(marks, i), last)]
        for i, latency in enumerate(latencies)
    ]
