"""The metrics registry: counters, histograms, snapshot algebra.

Counters are monotone (Anception-style per-operation accounting at the
virtualization boundary); histograms bucket observations against fixed
boundaries chosen at registration.

``snapshot()`` freezes the whole registry; snapshots form a group under
``+``/``-``, so ``b - a`` is the elementwise delta between two of them
and ``(b - a) + (c - b) == c - a`` — the property the benchmark breakdowns rely on when they subtract a
warm-up window from a measurement window.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Histogram",
    "HistogramSnapshot",
    "Metrics",
    "MetricsSnapshot",
    "render_prometheus",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]

#: Latency boundaries in milliseconds (upper-inclusive bucket edges).
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0,
)

#: Payload-size boundaries in bytes.
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class MetricError(ReproError):
    """Misuse of the metrics API (non-monotone counter, bucket mismatch)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name}: increment must be >= 0, got {n}")
        self.value += n


class Histogram:
    """Fixed-boundary histogram.

    ``boundaries`` are upper-inclusive bucket edges; one overflow bucket
    catches everything above the last edge, so ``len(counts) ==
    len(boundaries) + 1`` and ``sum(counts) == count`` always holds.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    def __init__(self, name: str, boundaries: Sequence[float]) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges or list(edges) != sorted(set(edges)):
            raise MetricError(
                f"histogram {name}: boundaries must be non-empty, sorted, unique"
            )
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; supports elementwise +/-."""

    boundaries: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: float
    count: int

    def _combine(self, other: "HistogramSnapshot", sign: int) -> "HistogramSnapshot":
        if other.boundaries != self.boundaries:
            raise MetricError("histogram snapshots have different boundaries")
        return HistogramSnapshot(
            boundaries=self.boundaries,
            counts=tuple(a + sign * b for a, b in zip(self.counts, other.counts)),
            total=self.total + sign * other.total,
            count=self.count + sign * other.count,
        )

    def __add__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        return self._combine(other, 1)

    def __sub__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        return self._combine(other, -1)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated by linear interpolation within the
        bucket that contains it.

        Buckets only record counts, so the estimate assumes observations
        are spread uniformly inside each bucket; the first finite edge
        bounds the first bucket below at 0 (all default bucket sets are
        non-negative latencies/sizes). Conventions:

        - an empty (or non-positive ``count``) snapshot returns ``0.0``;
        - a quantile landing in the overflow (``+Inf``) bucket clamps to
          the last finite boundary — there is no upper edge to
          interpolate toward;
        - ``q`` outside ``[0, 1]`` raises :class:`MetricError`.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile: q must be in [0, 1], got {q}")
        if self.count <= 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for edge, bucket in zip(self.boundaries, self.counts):
            if bucket > 0 and cumulative + bucket >= target:
                fraction = (target - cumulative) / bucket
                return lower + (edge - lower) * fraction
            cumulative += bucket
            lower = edge
        # Landed in the +Inf overflow bucket: clamp to the last edge.
        return self.boundaries[-1]


_EMPTY_HIST_CACHE: Dict[Tuple[float, ...], HistogramSnapshot] = {}


def _empty_hist(boundaries: Tuple[float, ...]) -> HistogramSnapshot:
    snap = _EMPTY_HIST_CACHE.get(boundaries)
    if snap is None:
        snap = HistogramSnapshot(boundaries, (0,) * (len(boundaries) + 1), 0.0, 0)
        _EMPTY_HIST_CACHE[boundaries] = snap
    return snap


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of the registry; forms a group under +/-.

    Names absent from one operand are treated as zero, so diffs between
    snapshots taken before and after a metric first appeared still work.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def _combine(self, other: "MetricsSnapshot", sign: int) -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + sign * value
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            base = histograms.get(name, _empty_hist(hist.boundaries))
            histograms[name] = base._combine(hist, sign)
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def __add__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        return self._combine(other, 1)

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        return self._combine(other, -1)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def nonzero(self) -> "MetricsSnapshot":
        """Drop zero-valued entries (normal form, for display and equality
        across snapshots that materialized different metric sets)."""
        return MetricsSnapshot(
            counters={k: v for k, v in self.counters.items() if v != 0},
            histograms={k: h for k, h in self.histograms.items() if h.count != 0},
        )


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus text format: invalid
    characters collapse to ``_`` and a leading digit gains a prefix."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_number(value: float) -> str:
    """Render a float the way Prometheus expects (integral values bare)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def render_prometheus(snapshot: "MetricsSnapshot") -> List[str]:
    """One registry snapshot as exposition-format lines."""
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot.counters[name]}")
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, bucket in zip(hist.boundaries, hist.counts):
            cumulative += bucket
            lines.append(f'{metric}_bucket{{le="{_prom_number(edge)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_prom_number(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    return lines


class Metrics:
    """Registry of named metrics, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, boundaries: Sequence[float] = DEFAULT_MS_BUCKETS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(float(b) for b in boundaries) != hist.boundaries:
            raise MetricError(
                f"histogram {name} already registered with different boundaries"
            )
        return hist

    # -- hot-path conveniences ------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float, boundaries: Sequence[float] = DEFAULT_MS_BUCKETS) -> None:
        self.histogram(name, boundaries).observe(value)

    # -- snapshotting ----------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            histograms={
                name: HistogramSnapshot(
                    boundaries=h.boundaries,
                    counts=tuple(h.counts),
                    total=h.total,
                    count=h.count,
                )
                for name, h in self._histograms.items()
            },
        )

    def to_prometheus_text(self) -> str:
        """The registry in the Prometheus exposition text format.

        Counters gain the conventional ``_total`` suffix, histograms emit
        cumulative ``_bucket{le="..."}`` series ending at ``+Inf`` plus
        ``_sum``/``_count``, and every name is sanitized to the legal
        ``[a-zA-Z0-9_:]`` character set.
        """
        lines = render_prometheus(self.snapshot())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()
