"""Read-write locks and the lock-order checker for the reactor.

The simulation is single-threaded *between* scheduler runs, so every
lock here is a no-op unless the deterministic scheduler is live and the
caller is one of its tasks — instrumented kernel paths stay zero-cost
when the plane is off. Under the scheduler, acquisition blocks
*cooperatively*: the task parks at a yield point and the reactor only
resumes it once the lock is grantable (or its virtual deadline burns
down, surfacing :class:`~repro.errors.DelegateTimeout`).

The :class:`LockOrderChecker` records every held-while-acquiring edge
into a lock-order graph; a cycle in that graph is a *potential*
deadlock even if this particular schedule never wedged. An actual wedge
(every live task parked on an ungrantable lock) raises
:class:`DeadlockError` from the reactor with the full wait-for report.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["DeadlockError", "LockOrderChecker", "RWLock"]


class DeadlockError(RuntimeError):
    """Every live task is parked on a lock nobody will ever release.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a deadlock
    is a scheduler-level wedge of the whole run, not an outcome any one
    simulated op can absorb."""


class LockOrderChecker:
    """Collects the lock-order graph and flags cycles in it.

    An edge ``A -> B`` means some task acquired ``B`` while holding
    ``A``. Two tasks taking the same pair in opposite orders close a
    cycle — the classic ABBA deadlock — which this reports even when
    the observed schedule happened not to interleave them fatally."""

    def __init__(self) -> None:
        #: (held.name, acquired.name) -> task names that created the edge
        self._edges: Dict[Tuple[str, str], Set[str]] = {}

    def on_acquire(self, task, lock: "RWLock") -> None:
        for held, _mode in task.held_locks:
            if held is lock:
                continue
            self._edges.setdefault((held.name, lock.name), set()).add(task.name)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(self._edges)

    def potential_deadlocks(self) -> List[Tuple[str, ...]]:
        """Every distinct cycle in the order graph, each rotated so the
        lexicographically smallest lock name leads (stable across runs)."""
        graph: Dict[str, Set[str]] = {}
        for a, b in self._edges:
            graph.setdefault(a, set()).add(b)
        cycles: Set[Tuple[str, ...]] = set()

        def visit(node: str, path: List[str], on_path: Set[str]) -> None:
            for succ in sorted(graph.get(node, ())):
                if succ in on_path:
                    core = path[path.index(succ):]
                    pivot = core.index(min(core))
                    cycles.add(tuple(core[pivot:] + core[:pivot]))
                    continue
                path.append(succ)
                on_path.add(succ)
                visit(succ, path, on_path)
                on_path.discard(succ)
                path.pop()

        for start in sorted(graph):
            visit(start, [start], {start})
        return sorted(cycles)

    def report(self) -> str:
        lines = [f"lock-order edges: {len(self._edges)}"]
        for a, b in self.edges():
            tasks = ",".join(sorted(self._edges[(a, b)]))
            lines.append(f"  {a} -> {b}  [{tasks}]")
        for cycle in self.potential_deadlocks():
            lines.append(f"  POTENTIAL DEADLOCK: {' -> '.join(cycle + cycle[:1])}")
        return "\n".join(lines)


class RWLock:
    """A reader-writer lock cooperating with the deterministic scheduler.

    Reentrant per task; many concurrent readers; one writer excluding
    foreign readers *and* writers; a task that is the sole reader may
    upgrade to writer. Outside a scheduled task every acquire is a
    no-op — the single-threaded simulation needs no locking and the
    instrumented call sites must cost nothing there."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._readers: Dict[object, int] = {}
        self._writer: Optional[object] = None
        self._writer_depth = 0

    # -- state inspection (used by the reactor's runnable scan) ----------

    def _grantable(self, mode: str, task) -> bool:
        if mode == "r":
            return self._writer is None or self._writer is task
        foreign_reader = any(t is not task for t in self._readers)
        return not foreign_reader and (self._writer is None or self._writer is task)

    def holders(self) -> List[str]:
        names = sorted(
            f"r:{getattr(t, 'name', '?')}" for t in self._readers
        )
        if self._writer is not None:
            names.append(f"w:{getattr(self._writer, 'name', '?')}")
        return names

    # -- acquisition -----------------------------------------------------

    @contextmanager
    def read(self) -> Iterator[None]:
        task = self._task()
        if task is None:
            yield
            return
        self._acquire(task, "r")
        try:
            yield
        finally:
            self._release(task, "r")

    @contextmanager
    def write(self) -> Iterator[None]:
        task = self._task()
        if task is None:
            yield
            return
        self._acquire(task, "w")
        try:
            yield
        finally:
            self._release(task, "w")

    # -- internals -------------------------------------------------------

    @staticmethod
    def _task():
        SCHED = _reactor.SCHED
        if not SCHED.enabled:
            return None
        return SCHED.current_task()

    def _acquire(self, task, mode: str) -> None:
        SCHED = _reactor.SCHED
        # Record the order edge at the *attempt*, not the grant: a task
        # wedged forever on its second lock is exactly the acquisition
        # the cycle report must know about.
        SCHED.lock_order.on_acquire(task, self)
        if not self._grantable(mode, task):
            SCHED.block_on_lock(task, self, mode)
        if mode == "r":
            self._readers[task] = self._readers.get(task, 0) + 1
        else:
            self._writer = task
            self._writer_depth += 1
        task.held_locks.append((self, mode))
        if SCHED.lock_tap:
            for fn in SCHED.lock_tap:
                fn(task, self, mode, "acquire")

    def _release(self, task, mode: str) -> None:
        entry = (self, mode)
        if entry in task.held_locks:
            task.held_locks.remove(entry)
        if mode == "r":
            count = self._readers.get(task, 0) - 1
            if count <= 0:
                self._readers.pop(task, None)
            else:
                self._readers[task] = count
        else:
            self._writer_depth -= 1
            if self._writer_depth <= 0:
                self._writer = None
                self._writer_depth = 0


# Bound once, after the classes: the reactor imports them from here.
from repro.sched import reactor as _reactor  # noqa: E402
