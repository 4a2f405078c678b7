"""Seeded deterministic scheduler: the cooperative reactor.

One :class:`SchedTask` is one actor-style flow of control — in the
interleaving sweep, one simulated process's op track. Tasks run on real
threads but strictly one at a time: each parks on a per-task baton at
every *yield point* (the kernel boundaries in syscall/binder/aufs/
mounts/am/cow/volatile carry ``SCHED.yield_point(...)`` calls, gated to
nothing when the plane is off) and a seeded ``random.Random`` picks
which runnable task resumes next. The seed therefore fully determines
the interleaving, the same way ``repro.faults`` seeds determine fault
schedules.

Every decision is recorded as ``(step, task, point)`` where *point* is
the yield point the task is resuming from. The newline-joined decision
lines are the **schedule**; their sha256 is the **schedule digest** —
counter-free (no pids, no wall-clock), so two runs of the same workload
from the same seed produce byte-identical schedules, and a recorded
schedule replays any run (including a found S1-S4 violation) exactly,
via ``run(..., replay=[task names...])``. Replay tolerates perturbed or
truncated schedules: a recorded choice that is not runnable (or an
exhausted schedule) falls back to the lexicographically first runnable
task and bumps ``divergences``.

Time is virtual: the clock advances ``tick_ms`` per decision and jumps
forward when every live task is sleeping. ``sleep()`` and the
``deadline()`` context manager are therefore deterministic, which is
what makes bounded-retry backoff on binder delegate calls replayable.

The reactor knows nothing about observability: each task runs on its
own thread, and the tracer's span stack and the provenance actor
stack are per thread, so interleaved tasks (and the
thread that called :meth:`~DeterministicScheduler.run`) keep their own
span parentage and taint attribution.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.digest import canonical_bytes, lines_digest
from repro.errors import DelegateTimeout
from repro.sched.locks import DeadlockError, LockOrderChecker, RWLock
from repro.tap import Tap

__all__ = [
    "SCHED",
    "DeterministicScheduler",
    "SchedTask",
    "SchedulerRun",
    "schedule_bytes",
    "schedule_digest",
]

Decision = Tuple[int, str, str]


def schedule_bytes(decisions: Sequence[Decision]) -> bytes:
    """The canonical wire form: one ``"{step} {task} {point}"`` line per
    decision. Counter-free by construction — task names and yield-point
    names carry no pids or timestamps."""
    return canonical_bytes(_decision_lines(decisions))


def schedule_digest(decisions: Sequence[Decision]) -> str:
    return lines_digest(_decision_lines(decisions))


def _decision_lines(decisions: Sequence[Decision]) -> Iterator[str]:
    return (f"{step} {task} {point}" for step, task, point in decisions)


class _TaskAbort(BaseException):
    """Internal: unwinds an unfinished task thread during teardown.

    A ``BaseException`` so no simulation-level ``except ReproError`` (or
    even ``except Exception``) can swallow it."""


class SchedTask:
    """One cooperative task: a name, a callable, and its parked state."""

    def __init__(self, name: str, fn: Callable[[], Any]) -> None:
        self.name = name
        self.fn = fn
        self.thread: Optional[threading.Thread] = None
        self.resume = threading.Event()
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: the yield point this task is currently parked at (recorded
        #: into the schedule when it is resumed).
        self.last_point = "start"
        #: virtual-clock instant a sleep ends, or None.
        self.wake_at: Optional[float] = None
        #: (mode, RWLock) while parked on a cooperative lock acquire.
        self.waiting: Optional[Tuple[str, RWLock]] = None
        #: stack of absolute virtual-clock deadlines (deadline() nesting).
        self.deadlines: List[float] = []
        self.timed_out = False
        #: locks currently held, in acquisition order: (RWLock, mode).
        self.held_locks: List[Tuple[RWLock, str]] = []
        self.aborted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchedTask({self.name!r}, at={self.last_point!r}, done={self.done})"


@dataclass
class SchedulerRun:
    """Everything one scheduled run produced."""

    seed: Optional[int]
    decisions: List[Decision]
    clock: float
    results: Dict[str, Any]
    errors: Dict[str, BaseException]
    divergences: int
    lock_order: LockOrderChecker
    race_candidates: List[Tuple[str, str, str]] = field(default_factory=list)

    def schedule(self) -> List[str]:
        """The task-name sequence — the replayable part of the schedule."""
        return [task for _step, task, _point in self.decisions]

    def schedule_bytes(self) -> bytes:
        return schedule_bytes(self.decisions)

    def digest(self) -> str:
        return schedule_digest(self.decisions)

    def render(self) -> str:
        lines = [
            f"schedule: seed={self.seed} decisions={len(self.decisions)} "
            f"vclock={self.clock:g}ms divergences={self.divergences} "
            f"digest={self.digest()[:16]}"
        ]
        for step, task, point in self.decisions:
            lines.append(f"  {step:4d} {task} @ {point}")
        return "\n".join(lines)


class DeterministicScheduler:
    """The global reactor; one instance (``SCHED``) per process.

    ``enabled`` is the zero-cost gate every instrumented kernel boundary
    checks before calling :meth:`yield_point`."""

    def __init__(self) -> None:
        self.enabled = False
        self.clock = 0.0
        self.tick_ms = 1.0
        self.lock_order = LockOrderChecker()
        self._tasks: List[SchedTask] = []
        self._current: Optional[SchedTask] = None
        self._wake = threading.Event()
        self._rng: Optional[random.Random] = None
        self._replay: Optional[List[str]] = None
        self._replay_index = 0
        self._decisions: List[Decision] = []
        self._divergences = 0
        #: resource -> deduped {(task, rw, frozenset-of-held-lock-names)}
        self._accesses: Dict[str, Set[Tuple[str, str, frozenset]]] = {}
        # -- flight-recorder taps (empty until a recorder arms) ----------
        #: ``fn(step, task_name, point)`` per scheduling decision.
        self.decision_tap = Tap()
        #: ``fn(kind, report)`` on a run-killing trigger (deadlock).
        self.trigger_tap = Tap()
        #: ``fn(task, lock, mode, action)`` on RWLock grant.
        self.lock_tap = Tap()
        #: replay-to-anchor: set via :meth:`request_stop`; the loop exits
        #: at its next decision and teardown aborts the remaining tasks.
        self._stop_requested = False

    def request_stop(self) -> None:
        """Stop scheduling at the next decision (replay-to-anchor halt).

        Pending tasks are aborted by the normal teardown path, so a run
        halted at an anchor leaks no threads and no held locks."""
        self._stop_requested = True

    # -- task-side API (called from inside scheduled tasks) --------------

    def current_task(self) -> Optional[SchedTask]:
        task = self._current
        if task is not None and threading.current_thread() is task.thread:
            return task
        return None

    def yield_point(self, point: str, **ctx: Any) -> None:
        """Hand control back to the reactor at a named kernel boundary.

        No-op when called outside a scheduled task, so instrumented code
        needs only the ``if SCHED.enabled:`` gate. ``resource=`` /
        ``rw=`` annotations feed the unsynchronized-shared-access
        detector; other keyword context is accepted and ignored (it
        documents the site without entering the digest)."""
        task = self.current_task()
        if task is None:
            return
        resource = ctx.get("resource")
        if resource is not None:
            self._note_access(task, str(resource), str(ctx.get("rw", "r")))
        task.last_point = point
        self._switch(task)
        self._raise_if_expired(task, point)

    def sleep(self, ms: float) -> None:
        """Park until the virtual clock reaches ``now + ms``."""
        task = self.current_task()
        if task is None:
            return
        task.wake_at = self.clock + ms
        task.last_point = f"sleep:{ms:g}"
        try:
            self._switch(task)
        finally:
            task.wake_at = None
        self._raise_if_expired(task, task.last_point)

    @contextmanager
    def deadline(self, ms: float) -> Iterator[None]:
        """Bound the enclosed block to ``ms`` virtual milliseconds; any
        yield point crossed after expiry raises DelegateTimeout."""
        task = self.current_task()
        if task is None:
            yield
            return
        task.deadlines.append(self.clock + ms)
        try:
            yield
        finally:
            task.deadlines.pop()
            task.timed_out = False

    def block_on_lock(self, task: SchedTask, lock: RWLock, mode: str) -> None:
        """Cooperatively wait until ``lock`` is grantable in ``mode``."""
        while not lock._grantable(mode, task):
            task.waiting = (mode, lock)
            task.last_point = f"lock.{mode}:{lock.name}"
            try:
                self._switch(task)
            finally:
                task.waiting = None
            if task.timed_out:
                task.timed_out = False
                raise DelegateTimeout(
                    f"virtual deadline exceeded waiting for lock "
                    f"{lock.name!r} (t={self.clock:g}ms, held by {lock.holders()})"
                )

    # -- driver-side API --------------------------------------------------

    def run(
        self,
        tasks: Union[Dict[str, Callable[[], Any]], Sequence[Tuple[str, Callable[[], Any]]]],
        *,
        seed: Optional[int] = 0,
        replay: Optional[Sequence[str]] = None,
        reraise: bool = True,
        max_decisions: int = 200_000,
    ) -> SchedulerRun:
        """Run every task to completion under one deterministic schedule.

        ``seed`` drives the interleaving unless ``replay`` (a recorded
        task-name sequence) is given, in which case the recorded choices
        are followed with a deterministic fallback on divergence. Task
        errors are re-raised after the run unless ``reraise=False`` (the
        sweep wants the full SchedulerRun even for erroring tracks)."""
        if self.enabled:
            raise RuntimeError("the deterministic scheduler is not reentrant")
        items = list(tasks.items()) if isinstance(tasks, dict) else list(tasks)
        names = [name for name, _fn in items]
        if len(set(names)) != len(names):
            raise ValueError(f"task names must be unique: {names}")
        self._tasks = [SchedTask(name, fn) for name, fn in items]
        self.clock = 0.0
        self._decisions = []
        self._divergences = 0
        self._rng = random.Random(seed)
        self._replay = list(replay) if replay is not None else None
        self._replay_index = 0
        self._stop_requested = False
        self.lock_order = LockOrderChecker()
        self._accesses = {}
        self.enabled = True
        self._wake.clear()
        for task in self._tasks:
            task.thread = threading.Thread(
                target=self._task_main,
                args=(task,),
                name=f"sched:{task.name}",
                daemon=True,
            )
            task.thread.start()
        try:
            self._loop(max_decisions)
        finally:
            self._teardown()
            self._current = None
            self.enabled = False
        run = SchedulerRun(
            seed=seed if replay is None else None,
            decisions=list(self._decisions),
            clock=self.clock,
            results={t.name: t.result for t in self._tasks if t.error is None},
            errors={t.name: t.error for t in self._tasks if t.error is not None},
            divergences=self._divergences,
            lock_order=self.lock_order,
            race_candidates=self.race_candidates(),
        )
        if reraise:
            for task in self._tasks:
                if task.error is not None:
                    raise task.error
        return run

    # -- unsynchronized-shared-access detection ---------------------------

    def _note_access(self, task: SchedTask, resource: str, rw: str) -> None:
        held = frozenset(lock.name for lock, _mode in task.held_locks)
        self._accesses.setdefault(resource, set()).add((task.name, rw, held))

    def race_candidates(self) -> List[Tuple[str, str, str]]:
        """Resources where two different tasks collided (at least one
        writing) while holding no lock in common — unsynchronized shared
        state the lock discipline failed to cover."""
        flagged: List[Tuple[str, str, str]] = []
        for resource in sorted(self._accesses):
            accesses = sorted(self._accesses[resource])
            hit = None
            for ti, rwi, hi in accesses:
                if rwi != "w":
                    continue
                for tj, _rwj, hj in accesses:
                    if tj != ti and not (hi & hj):
                        hit = (resource, *sorted((ti, tj)))
                        break
                if hit:
                    break
            if hit:
                flagged.append(hit)
        return flagged

    # -- reactor loop ------------------------------------------------------

    def _expired(self, task: SchedTask) -> bool:
        return bool(task.deadlines) and self.clock > task.deadlines[-1]

    def _loop(self, max_decisions: int) -> None:
        step = 0
        while True:
            if self._stop_requested:
                return
            pending = [t for t in self._tasks if not t.done]
            if not pending:
                return
            runnable: List[SchedTask] = []
            for task in pending:
                if task.waiting is not None:
                    mode, lock = task.waiting
                    if lock._grantable(mode, task):
                        runnable.append(task)
                    elif self._expired(task):
                        task.timed_out = True
                        runnable.append(task)
                elif task.wake_at is not None:
                    if task.wake_at <= self.clock:
                        runnable.append(task)
                    elif self._expired(task):
                        task.timed_out = True
                        runnable.append(task)
                else:
                    runnable.append(task)
            if not runnable:
                sleepers = [t for t in pending if t.wake_at is not None]
                if sleepers:
                    # Nothing to do until the earliest sleeper wakes:
                    # deterministic virtual-clock jump.
                    self.clock = min(t.wake_at for t in sleepers)
                    continue
                report = self._deadlock_report(pending)
                if self.trigger_tap:
                    for fn in self.trigger_tap:
                        fn("deadlock", report)
                raise DeadlockError(report)
            if step >= max_decisions:
                raise RuntimeError(
                    f"scheduler exceeded {max_decisions} decisions "
                    f"(livelock? last points: "
                    f"{[(t.name, t.last_point) for t in pending]})"
                )
            chosen = self._choose(runnable)
            self._decisions.append((step, chosen.name, chosen.last_point))
            if self.decision_tap:
                for fn in self.decision_tap:
                    fn(step, chosen.name, chosen.last_point)
            step += 1
            self.clock += self.tick_ms
            self._dispatch(chosen)

    def _choose(self, runnable: List[SchedTask]) -> SchedTask:
        runnable = sorted(runnable, key=lambda t: t.name)
        if self._replay is not None:
            if self._replay_index < len(self._replay):
                wanted = self._replay[self._replay_index]
                self._replay_index += 1
                for task in runnable:
                    if task.name == wanted:
                        return task
            self._divergences += 1
            return runnable[0]
        assert self._rng is not None
        return self._rng.choice(runnable)

    def _dispatch(self, task: SchedTask) -> None:
        self._wake.clear()
        self._current = task
        task.resume.set()
        self._wake.wait()
        self._current = None

    def _switch(self, task: SchedTask) -> None:
        if task.aborted:
            raise _TaskAbort()
        task.resume.clear()
        self._wake.set()
        task.resume.wait()
        if task.aborted:
            raise _TaskAbort()

    def _raise_if_expired(self, task: SchedTask, point: str) -> None:
        if task.timed_out or self._expired(task):
            task.timed_out = False
            raise DelegateTimeout(
                f"virtual deadline exceeded at {point!r} (t={self.clock:g}ms)"
            )

    def _task_main(self, task: SchedTask) -> None:
        task.resume.wait()
        if not task.aborted:
            try:
                task.result = task.fn()
            except _TaskAbort:
                pass
            except BaseException as error:  # noqa: BLE001 - reported to driver
                task.error = error
        for lock, mode in list(task.held_locks):
            lock._release(task, mode)
        task.held_locks.clear()
        task.done = True
        self._wake.set()

    def _teardown(self) -> None:
        """Abort and join every unfinished task, one at a time, so a
        failed run leaks no threads and no held locks."""
        for task in self._tasks:
            if task.done or task.thread is None:
                continue
            task.aborted = True
            task.resume.set()
            task.thread.join(timeout=10.0)
        for task in self._tasks:
            if task.thread is not None:
                task.thread.join(timeout=10.0)

    def _deadlock_report(self, pending: List[SchedTask]) -> str:
        lines = ["deadlock: every live task is parked on an ungrantable lock"]
        for task in pending:
            if task.waiting is not None:
                mode, lock = task.waiting
                lines.append(
                    f"  {task.name} waits {mode}:{lock.name} "
                    f"held by {lock.holders()}"
                )
            else:  # pragma: no cover - defensive
                lines.append(f"  {task.name} at {task.last_point}")
        cycles = self.lock_order.potential_deadlocks()
        if cycles:
            for cycle in cycles:
                lines.append(f"  lock-order cycle: {' -> '.join(cycle + cycle[:1])}")
        return "\n".join(lines)


#: The process-global reactor; instrumented kernel boundaries gate on
#: ``SCHED.enabled`` exactly like ``self.obs.enabled`` /
#: ``self.obs.faults.enabled``. One reactor drives every task of a run,
#: whichever devices those tasks act on.
SCHED = DeterministicScheduler()
