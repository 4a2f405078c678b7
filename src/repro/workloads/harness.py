"""Measurement harness: timed trials with mean/std, overhead computation.

The paper reports microbenchmarks "averaged over 1000 trials" and app
benchmarks "averaged over 5 trials" with ± the standard deviation; the
harness reproduces that reporting style over the simulation's wall-clock
times.

With ``capture_metrics=True`` a measurement also carries the
:mod:`repro.obs` metrics delta accumulated across the timed trials, so a
benchmark row can report per-layer operation counts (copy-ups per
delegate launch, SQL statements per query, ...) next to its latency.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import mean, median, stdev
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import ReproError
from repro.faults import FAULT_POINTS, FaultPlane, fail_prob
from repro.obs import OBS, MetricsSnapshot, counters_by_layer


@dataclass
class Measurement:
    """Mean/median/std over repeated trials, in milliseconds."""

    label: str
    trials_ms: List[float]
    #: Metrics accumulated across the timed trials (``capture_metrics=True``).
    metrics_delta: Optional[MetricsSnapshot] = None

    def _require_trials(self, statistic: str) -> None:
        if not self.trials_ms:
            raise ReproError(
                f"measurement {self.label!r}: cannot compute {statistic} of an "
                f"empty trial list (did the workload run zero trials?)"
            )

    @property
    def mean_ms(self) -> float:
        self._require_trials("mean")
        return mean(self.trials_ms)

    @property
    def median_ms(self) -> float:
        self._require_trials("median")
        return median(self.trials_ms)

    @property
    def std_ms(self) -> float:
        self._require_trials("stdev")
        return stdev(self.trials_ms) if len(self.trials_ms) > 1 else 0.0

    @property
    def mad_ms(self) -> float:
        """Median absolute deviation: a spread estimate that one slow
        trial cannot inflate, printed beside the median."""
        self._require_trials("mad")
        center = median(self.trials_ms)
        return median(abs(sample - center) for sample in self.trials_ms)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the raw trials (nearest-rank)."""
        self._require_trials("quantile")
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"measurement {self.label!r}: q must be in [0, 1]")
        ordered = sorted(self.trials_ms)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def layer_counters(self) -> Dict[str, Dict[str, int]]:
        """The captured metrics delta grouped by taxonomy layer (empty when
        the measurement ran without ``capture_metrics``)."""
        if self.metrics_delta is None:
            return {}
        return counters_by_layer(self.metrics_delta)

    def __str__(self) -> str:
        return f"{self.mean_ms:.3f}±{self.std_ms:.3f} ms"


def measure(
    fn: Callable[[], object],
    trials: int = 100,
    label: str = "",
    setup: Optional[Callable[[], object]] = None,
    warmup: int = 2,
    capture_metrics: bool = False,
    obs: Optional[object] = None,
) -> Measurement:
    """Time ``fn`` over ``trials`` runs (per-trial ``setup`` untimed).

    ``capture_metrics=True`` enables the observability context for the
    timed trials (restoring its prior state afterwards) and attaches the
    metrics delta the trials produced; setup and warmup work is excluded.
    ``obs`` selects which context to gate and snapshot — a per-device
    benchmark passes its device's context; the default is the
    process-global :data:`~repro.obs.OBS`.
    """
    if trials < 1:
        raise ReproError(f"measure({label!r}): trials must be >= 1, got {trials}")
    if obs is None:
        obs = OBS
    for _ in range(warmup):
        if setup is not None:
            setup()
        fn()
    samples: List[float] = []
    delta: Optional[MetricsSnapshot] = None
    obs_was_enabled = obs.enabled
    if capture_metrics and not obs_was_enabled:
        obs.enable()
    gc_was_enabled = gc.isenabled()
    gc.disable()  # keep collector pauses out of per-op samples
    try:
        before = obs.metrics.snapshot() if capture_metrics else None
        for _ in range(trials):
            if setup is not None:
                if capture_metrics:
                    # Setup work must not pollute the trial delta: gate the
                    # instrumentation off for the untimed setup call.
                    obs.enabled = False
                    try:
                        setup()
                    finally:
                        obs.enabled = True
                else:
                    setup()
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1000.0)
        if capture_metrics:
            delta = obs.metrics.snapshot() - before
    finally:
        if gc_was_enabled:
            gc.enable()
        if capture_metrics and not obs_was_enabled:
            obs.disable()
    return Measurement(label=label, trials_ms=samples, metrics_delta=delta)


@contextmanager
def arm_chaos(
    seed: int,
    probability: float = 0.01,
    points: Optional[Iterable[str]] = None,
) -> Iterator[FaultPlane]:
    """Arm probabilistic faults across fault points for a chaos run.

    Every point (default: all registered points) gets a
    :func:`~repro.faults.fail_prob` policy with a seed derived
    deterministically from ``seed`` and the point name, so one integer
    pins the entire fault schedule: re-running the same workload with the
    same ``seed`` reproduces it byte-for-byte
    (:meth:`~repro.faults.FaultPlane.schedule_bytes`), independent of the
    order the points are armed in. The plane armed is the default
    context's (``OBS.faults``), the one every bare ``Device()`` consults;
    it is reset on exit.
    """
    selected = sorted(points) if points is not None else sorted(FAULT_POINTS)
    with OBS.faults.scope() as plane:
        for index, point in enumerate(selected):
            plane.arm(point, fail_prob(probability, seed=seed * 1009 + index))
        yield plane


def overhead_pct(baseline: Measurement, treatment: Measurement) -> float:
    """Relative overhead of ``treatment`` over ``baseline``, in percent
    (the paper's Table 3 metric).

    Computed over per-trial *medians*: interpreter/allocator outliers
    otherwise dominate micro-operation means on a busy machine."""
    if baseline.median_ms <= 0:
        return 0.0
    return (treatment.median_ms - baseline.median_ms) / baseline.median_ms * 100.0
