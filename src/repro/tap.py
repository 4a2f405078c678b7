"""The one subscriber list behind every evidence stream.

Spans from the tracer, consults from the fault plane, audit entries,
and the scheduler's decisions, deadlock triggers and lock grants are
each published through a :class:`Tap`. The security monitor, the
profiler and the flight recorder subscribe with :meth:`Tap.add` and
leave with :meth:`Tap.remove`; both are idempotent, so subscription
state is the tap's membership and nothing else.

A tap *is* a list, so a publisher fans out inline with no method call::

    if self.span_tap:
        for fn in self.span_tap:
            fn(span)

An empty tap therefore costs the publisher one truthiness check.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Tap"]


class Tap(list):
    """The subscribers to one evidence stream, in subscription order."""

    __slots__ = ()

    def add(self, fn: Callable[..., None]) -> None:
        """Subscribe ``fn`` (no-op when already subscribed)."""
        if fn not in self:
            self.append(fn)

    def remove(self, fn: Callable[..., None]) -> None:
        """Unsubscribe ``fn`` (no-op when not subscribed)."""
        if fn in self:
            super().remove(fn)
