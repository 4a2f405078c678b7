"""Performance profiling over the span stream: latency histograms and
critical-path analysis.

Two pieces, both built on data the tracer already records:

- :class:`ProfileRecorder` — a span-tap subscriber that folds every closing
  span's duration into a per-span-name latency histogram
  (``lat.vfs.open``, ``lat.aufs.copy_up``, ``lat.cow.query``, ...) in the
  metrics registry. It sits behind the ``OBS.profile`` sub-switch with
  the same contract as ``OBS.prov``: when off, nothing is subscribed
  and the instrumented hot paths run exactly the code they ran before
  this module existed — zero cost. With it on,
  :meth:`~repro.obs.metrics.HistogramSnapshot.quantile` gives p50/p95/p99
  per operation.

- :func:`critical_path` — given one reconstructed trace tree (a single
  delegate invocation: AM -> Zygote -> syscall -> Aufs -> COW), attribute
  the invocation's wall time to layers by *self time* and extract the hot
  chain: the root-to-leaf descent that always follows the most expensive
  child. The resulting :class:`CriticalPathReport` is what the Table 1
  trace tests hold to the ">= 95% of wall time attributed" bar.

Self time is :attr:`~repro.obs.trace.SpanNode.self_ms` (a span's
duration minus its direct children's, clamped at zero), so layer totals
sum to the root's duration up to clock granularity; the per-layer fold
is :func:`repro.obs.report.tree_self_times` over the one tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.obs.metrics import DEFAULT_MS_BUCKETS, Metrics, MetricsSnapshot
from repro.obs.report import tree_self_times
from repro.obs.trace import Span, SpanNode

__all__ = [
    "SPAN_LATENCY_PREFIX",
    "ProfileRecorder",
    "CriticalPathStep",
    "CriticalPathReport",
    "critical_path",
    "critical_paths",
    "latency_summary",
]

#: Metric-name prefix for per-span-name latency histograms.
SPAN_LATENCY_PREFIX = "lat."


class ProfileRecorder:
    """Folds closing spans into per-span-name latency histograms.

    Subscribed to the tracer's ``span_tap`` only while
    ``OBS.profile`` is armed; construction allocates nothing on any hot
    path.
    """

    __slots__ = ("metrics", "spans_seen")

    def __init__(self, metrics: Metrics) -> None:
        self.metrics = metrics
        self.spans_seen = 0

    def on_span(self, span: Span) -> None:
        self.spans_seen += 1
        self.metrics.observe(
            SPAN_LATENCY_PREFIX + span.name, span.duration_ms, DEFAULT_MS_BUCKETS
        )


def latency_summary(
    snapshot: MetricsSnapshot,
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
) -> Dict[str, Dict[str, float]]:
    """Per-span-name latency quantiles from a metrics snapshot.

    Selects the ``lat.*`` histograms the :class:`ProfileRecorder` feeds
    and shapes them for reports::

        {"vfs.open": {"count": 12, "mean_ms": 0.04, "p50_ms": ..., ...}}
    """
    summary: Dict[str, Dict[str, float]] = {}
    for name, hist in sorted(snapshot.histograms.items()):
        if not name.startswith(SPAN_LATENCY_PREFIX) or hist.count <= 0:
            continue
        row: Dict[str, float] = {
            "count": hist.count,
            "mean_ms": round(hist.mean, 6),
        }
        for q in quantiles:
            row[f"p{int(q * 100)}_ms"] = round(hist.quantile(q), 6)
        summary[name[len(SPAN_LATENCY_PREFIX):]] = row
    return summary


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPathStep:
    """One span on the hot chain from root to leaf."""

    name: str
    layer: str
    duration_ms: float
    self_ms: float


@dataclass
class CriticalPathReport:
    """Where one invocation's wall time went.

    ``by_layer`` attributes the *whole tree's* self time to taxonomy
    layers (this is the part held to >= 95% coverage of the root's wall
    time); ``steps`` is the hot chain — the descent that follows the
    most expensive child at every level.
    """

    root: str
    total_ms: float
    steps: List[CriticalPathStep] = field(default_factory=list)
    by_layer: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_ms(self) -> float:
        """Self time attributed across layers (sums the whole tree)."""
        return sum(self.by_layer.values())

    @property
    def coverage(self) -> float:
        """Fraction of the root's wall time attributed to layers."""
        if self.total_ms <= 0.0:
            return 1.0
        return self.attributed_ms / self.total_ms

    @property
    def hot_chain_ms(self) -> float:
        """Self time accumulated along the hot chain only."""
        return sum(step.self_ms for step in self.steps)

    @property
    def hottest_layer(self) -> str:
        if not self.by_layer:
            return ""
        return max(self.by_layer, key=self.by_layer.get)

    def render(self) -> str:
        """Text rendering for benchmark output and debugging."""
        lines = [
            f"-- critical path: {self.root} "
            f"[{self.total_ms:.3f} ms, {self.coverage * 100.0:.1f}% attributed] --"
        ]
        for depth, step in enumerate(self.steps):
            pct = (step.self_ms / self.total_ms * 100.0) if self.total_ms > 0 else 0.0
            lines.append(
                f"  {'  ' * depth}{step.name:<24} "
                f"{step.duration_ms:9.3f} ms  self {step.self_ms:8.3f} ms ({pct:4.1f}%)"
            )
        lines.append("  by layer:")
        for layer, ms in sorted(self.by_layer.items(), key=lambda kv: -kv[1]):
            pct = (ms / self.total_ms * 100.0) if self.total_ms > 0 else 0.0
            lines.append(f"    {layer:<8} {ms:9.3f} ms  {pct:5.1f}%")
        return "\n".join(lines)


def critical_path(tree: SpanNode) -> CriticalPathReport:
    """Analyze one trace tree: layer attribution plus the hot chain."""
    steps: List[CriticalPathStep] = []
    node = tree
    while True:
        steps.append(
            CriticalPathStep(
                name=node.span.name,
                layer=node.span.layer,
                duration_ms=node.span.duration_ms,
                self_ms=node.self_ms,
            )
        )
        if not node.children:
            break
        node = max(node.children, key=lambda child: child.span.duration_ms)
    return CriticalPathReport(
        root=tree.span.name,
        total_ms=tree.span.duration_ms,
        steps=steps,
        by_layer=tree_self_times([tree]),
    )


def critical_paths(
    trees: Iterable[SpanNode], min_ms: float = 0.0
) -> List[CriticalPathReport]:
    """Per-invocation reports for every root tree, slowest first."""
    reports = [
        critical_path(tree)
        for tree in trees
        if tree.span.duration_ms >= min_ms
    ]
    reports.sort(key=lambda report: -report.total_ms)
    return reports
