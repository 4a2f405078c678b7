"""The tracer: spans, the ring, and nested-span propagation.

A :class:`Span` covers one operation in one layer (``vfs.open``,
``aufs.copy_up``, ``cow.query``, ...). Because the whole simulation is a
synchronous in-process call chain, parent/child relationships fall out of
a simple span stack: when the Activity Manager opens ``am.start_activity``
and the delegate's handler then issues syscalls, the ``vfs.*`` spans are
created while the AM span is still open and inherit it as their parent.
One delegate invocation therefore yields a single connected trace tree
spanning AM -> Zygote -> syscall -> Aufs -> COW proxy, which is exactly
the cross-layer visibility Maxoid debugging needs.

Design constraints:

- **Zero cost when disabled.** Kernel entry points open their spans
  through :func:`repro.boundary.boundary`, which checks ``obs.enabled``
  first; this module is only entered once tracing is on.
  :meth:`Tracer.span` additionally returns a shared no-op span when
  called without the gate.
- Spans reach the ring and ``span_tap`` at *exit* (children before
  parents); consumers reconstruct the tree from ``parent_id``/``trace_id``.
- **A span acts for its caller's context.** Delegation is
  invocation-transitive, so a span opened without a ``ctx`` attribute
  copies its parent's when it opens (vfs and am spans tag their own;
  aufs/cow/sql spans inherit). Every span carries the context it acts
  for from the moment it opens, and no consumer rebuilds it.
- **One stack per thread.** The open-span stack is thread-local, so
  flows that the deterministic scheduler interleaves (each on its own
  thread) keep their own parentage.
- **Every span is recorded.** An enabled tracer keeps every span it
  opens and hands each one to ``span_tap``, so the security monitor
  sees the whole run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.tap import Tap

__all__ = [
    "Span",
    "SpanNode",
    "RingBufferSink",
    "Tracer",
    "build_trees",
]


class Span:
    """One traced operation; usable as a context manager."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start",
        "end",
        "status",
        "device_id",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, Any],
        device_id: str = "device0",
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.status = "ok"
        self.device_id = device_id

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        if self.tracer is not None:
            self.tracer._finish(self)

    # -- span API --------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event as a zero-duration child span."""
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def elapsed_ms(self) -> float:
        """Time since the span opened (duration once closed)."""
        if self.end:
            return self.duration_ms
        return (time.perf_counter() - self.start) * 1000.0

    @property
    def layer(self) -> str:
        """The span taxonomy layer: the prefix before the first dot."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "device_id": self.device_id,
            "start": self.start,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name} #{self.span_id} parent={self.parent_id}>"


class _NoopSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ThreadState(threading.local):
    """The tracer state each thread sees its own copy of."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class RingBufferSink:
    """Keeps the most recent finished spans in memory."""

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0

    def on_span(self, span: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0


class Tracer:
    """Creates spans, tracks each thread's active-span stack, keeps
    finished spans in a ring and hands each to ``span_tap``.

    ``device_id`` is stamped onto every span so traces from several
    devices' tracers separate cleanly when their streams are merged.
    """

    def __init__(self, device_id: str = "device0") -> None:
        self.enabled = False
        self.device_id = device_id
        self.ring = RingBufferSink()
        #: ``fn(span)`` as each span finishes, after the ring: the one
        #: fan-out (the security monitor, the profiler, the flight
        #: recorder, a JSON-lines writer), kept across ``enable``/
        #: ``disable`` cycles.
        self.span_tap = Tap()
        self._thread = _ThreadState()
        self._ids = itertools.count(1)
        #: spans recorded since the last clear().
        self.started = 0

    # -- lifecycle -------------------------------------------------------

    def enable(self, capacity: int = 8192) -> None:
        """Turn tracing on with a ring of ``capacity`` spans."""
        if capacity != self.ring.capacity:
            self.ring = RingBufferSink(capacity)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self._thread = _ThreadState()

    def clear(self) -> None:
        """Drop recorded spans and every thread's open ones."""
        self.ring.clear()
        self._thread = _ThreadState()
        self.started = 0

    # -- span creation ---------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span as a context manager.

        Call sites on hot paths gate on ``enabled`` *before* building the
        kwargs; this check is a second line of defence for cold paths.
        """
        if not self.enabled:
            return NOOP_SPAN
        stack = self._thread.stack
        parent = stack[-1] if stack else None
        if parent is not None and "ctx" not in attrs:
            ctx = parent.attrs.get("ctx")
            if ctx is not None:
                attrs["ctx"] = ctx
        self.started += 1
        span = Span(
            tracer=self,
            trace_id=parent.trace_id if parent is not None else next(self._ids),
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            attrs=attrs,
            device_id=self.device_id,
        )
        stack.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration span at the current stack position."""
        if not self.enabled:
            return
        with self.span(name, **attrs):
            pass

    def _finish(self, span: Span) -> None:
        # The stack discipline is enforced by the context-manager protocol;
        # remove the span wherever it is in case of unusual exits.
        stack = self._thread.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        self.ring.on_span(span)
        for fn in self.span_tap:
            fn(span)

    @property
    def current(self) -> Optional[Span]:
        stack = self._thread.stack
        return stack[-1] if stack else None

    # -- inspection ------------------------------------------------------

    def finished(self) -> List[Span]:
        """All finished spans currently in the ring buffer."""
        return self.ring.spans

    def trees(self) -> List["SpanNode"]:
        """Finished spans reassembled into trees, one per trace id."""
        return build_trees(self.finished())


class SpanNode:
    """A span plus its children — the reconstructed call tree."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: List[SpanNode] = []

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def self_ms(self) -> float:
        """Duration minus the direct children's durations, floored at 0."""
        child_ms = sum(child.span.duration_ms for child in self.children)
        return max(self.span.duration_ms - child_ms, 0.0)

    def walk(self):
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def layers(self) -> set:
        """Every taxonomy layer present in this tree."""
        return {node.span.layer for node in self.walk()}

    def find(self, name: str) -> List["SpanNode"]:
        """All descendant nodes (inclusive) with the given span name."""
        return [node for node in self.walk() if node.span.name == name]

    def render(self, indent: int = 0) -> str:
        """Indented text rendering (debug / report aid)."""
        lines = [f"{'  ' * indent}{self.span.name} [{self.span.duration_ms:.3f}ms]"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def build_trees(spans: List[Span]) -> List[SpanNode]:
    """Reassemble finished spans into root trees.

    Spans arrive children-first (they finish before their parents); a
    parent missing from ``spans`` (e.g. evicted from the ring, or still
    open) promotes its orphaned children to roots.
    """
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: List[SpanNode] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    # Children finished before parents: re-sort each level by start time.
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start)
    roots.sort(key=lambda n: n.span.start)
    return roots
