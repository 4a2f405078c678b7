"""Per-layer breakdowns over finished spans and metric deltas.

This is the reporting substrate the benchmarks use: given the spans of a
trace (e.g. one delegate launch), attribute wall-clock *self time* to each
taxonomy layer (``am``, ``zygote``, ``binder``, ``vfs``, ``aufs``,
``cow``, ``sql``, ``vol``, ``mounts``) so a row can answer questions like
"copy-up time as a percentage of delegate launch".

Self time is a span's duration minus the duration of its direct children,
so the totals over a tree sum to the root's duration (no double counting
across layers of the same synchronous call chain).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import Span, SpanNode, build_trees

__all__ = [
    "layer_self_times",
    "tree_self_times",
    "span_time",
    "breakdown",
    "format_breakdown",
    "counters_by_layer",
]


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time (ms) attributed to each taxonomy layer across ``spans``."""
    return tree_self_times(build_trees(list(spans)))


def tree_self_times(roots: Iterable[SpanNode]) -> Dict[str, float]:
    """Self time (ms) per taxonomy layer over already-built span trees."""
    totals: Dict[str, float] = {}
    for root in roots:
        for node in root.walk():
            layer = node.span.layer
            totals[layer] = totals.get(layer, 0.0) + node.self_ms
    return totals


def span_time(spans: Iterable[Span], name: str) -> float:
    """Total duration (ms) of all spans named ``name``.

    Durations of nested same-named spans both count; use for leaf-ish
    operations (``aufs.copy_up``, ``sql.execute``) where nesting of the
    same name does not occur.
    """
    return sum(span.duration_ms for span in spans if span.name == name)


def breakdown(spans: Iterable[Span]) -> Dict[str, float]:
    """Layer self-times as *fractions* of the total traced time."""
    times = layer_self_times(spans)
    total = sum(times.values())
    if total <= 0.0:
        return {layer: 0.0 for layer in times}
    return {layer: ms / total for layer, ms in times.items()}


def format_breakdown(spans: Iterable[Span], title: str = "") -> str:
    """A small text table of per-layer self time (for benchmark output)."""
    times = layer_self_times(spans)
    total = sum(times.values())
    lines = [f"-- per-layer breakdown{': ' + title if title else ''} --"]
    for layer in sorted(times, key=times.get, reverse=True):
        ms = times[layer]
        pct = (ms / total * 100.0) if total > 0 else 0.0
        lines.append(f"  {layer:<8} {ms:9.3f} ms  {pct:5.1f}%")
    lines.append(f"  {'total':<8} {total:9.3f} ms")
    return "\n".join(lines)


def counters_by_layer(delta: MetricsSnapshot) -> Dict[str, Dict[str, int]]:
    """Group a snapshot diff's counters by taxonomy layer prefix."""
    grouped: Dict[str, Dict[str, int]] = {}
    for name, value in delta.counters.items():
        layer = name.split(".", 1)[0]
        grouped.setdefault(layer, {})[name] = value
    return grouped
