"""Trace exporters: Chrome/Perfetto trace-event JSON and folded stacks.

The tracer records everything these formats need (``perf_counter`` start
and end per span, parent links, attrs); this module only reshapes. The
mapping for the Chrome trace-event format follows the Maxoid taxonomy:

- **pid** — one synthetic app uid per security context (the span's
  ``ctx`` attr, inherited from the nearest ancestor that has one).
  Android app uids start at 10000, so contexts are numbered from there;
  a process-name metadata event labels each pid with the context string
  (``com.adobe.reader^com.android.email``).
- **tid** — one thread row per taxonomy layer (``am``, ``zygote``,
  ``vfs``, ``aufs``, ``cow``, ...), labelled via thread-name metadata, so
  the Perfetto timeline shows a delegate invocation descending through
  the stack of layers.
- **args** — the span's attrs verbatim, plus its status.

Timestamps are normalized to microseconds since the earliest span in the
export (the trace-event format wants µs), and events are emitted in
``ts`` order. The resulting JSON opens directly in ``ui.perfetto.dev`` or
``chrome://tracing``.

Folded stacks (``root;child;leaf <self-µs>`` lines) feed classic
``flamegraph.pl``-style tooling. Speedscope (https://www.speedscope.app)
opens both formats.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.trace import Span, SpanNode, build_trees

__all__ = [
    "BASE_APP_UID",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_folded_stacks",
    "write_folded_stacks",
]

#: First synthetic pid, mirroring Android's first app uid.
BASE_APP_UID = 10000

Treeish = Union[Iterable[Span], Sequence[SpanNode]]


def _as_trees(spans_or_trees: Treeish) -> List[SpanNode]:
    items = list(spans_or_trees)
    if items and isinstance(items[0], SpanNode):
        return items  # already reconstructed
    return build_trees(items)


def _walk_with_ctx(tree: SpanNode, inherited: str = ""):
    """Yield ``(node, ctx)`` pairs, inheriting ``ctx`` from ancestors."""
    ctx = str(tree.span.attrs.get("ctx") or inherited)
    yield tree, ctx
    for child in tree.children:
        yield from _walk_with_ctx(child, ctx)


def _origin(trees: Sequence[SpanNode]) -> float:
    starts = [node.span.start for tree in trees for node in tree.walk()]
    return min(starts) if starts else 0.0


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ----------------------------------------------------------------------


def to_chrome_trace(spans_or_trees: Treeish) -> Dict[str, Any]:
    """Export spans (or prebuilt trees) as a Chrome trace-event document.

    Returns the JSON-serializable dict; :func:`write_chrome_trace` dumps
    it to a file Perfetto can open.
    """
    trees = _as_trees(spans_or_trees)
    origin = _origin(trees)
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for tree in trees:
        for node, ctx in _walk_with_ctx(tree):
            span = node.span
            key = ctx or "(no ctx)"
            if key not in pids:
                pids[key] = BASE_APP_UID + len(pids)
            if span.layer not in tids:
                tids[span.layer] = 1 + len(tids)
            args = dict(span.attrs)
            args["status"] = span.status
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": _us(span.start - origin),
                    "dur": _us(span.end - span.start),
                    "pid": pids[key],
                    "tid": tids[span.layer],
                    "args": args,
                }
            )
    events.sort(key=lambda event: (event["ts"], -event["dur"]))
    metadata: List[Dict[str, Any]] = []
    for ctx, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": ctx},
            }
        )
    for layer, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        for pid in sorted(pids.values()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": layer},
                }
            )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export", "format": "maxoid-trace"},
    }


def write_chrome_trace(path: str, spans_or_trees: Treeish) -> Dict[str, Any]:
    """Write the Chrome trace-event JSON for ``spans_or_trees`` to ``path``."""
    document = to_chrome_trace(spans_or_trees)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    return document


# ----------------------------------------------------------------------
# Folded stacks (flamegraph.pl / speedscope import format)
# ----------------------------------------------------------------------


def to_folded_stacks(spans_or_trees: Treeish) -> List[str]:
    """Semicolon-folded stack lines weighted by *self* time in µs.

    Identical stacks across invocations merge (their self times sum), and
    zero-weight frames are dropped, matching what ``flamegraph.pl``
    expects. Lines come out sorted for deterministic golden files.
    """
    weights: Dict[str, float] = {}

    def fold(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.span.name}" if prefix else node.span.name
        child_ms = sum(child.span.duration_ms for child in node.children)
        self_us = max(node.span.duration_ms - child_ms, 0.0) * 1000.0
        if self_us > 0.0:
            weights[stack] = weights.get(stack, 0.0) + self_us
        for child in node.children:
            fold(child, stack)

    for tree in _as_trees(spans_or_trees):
        fold(tree, "")
    return [
        f"{stack} {max(1, round(weight))}"
        for stack, weight in sorted(weights.items())
    ]


def write_folded_stacks(path: str, spans_or_trees: Treeish) -> List[str]:
    """Write folded-stack lines to ``path`` (one stack per line)."""
    lines = to_folded_stacks(spans_or_trees)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return lines
