"""The deterministic reactor: seeds, digests, replay, virtual time."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import pytest

from repro.obs.recorder import AnchorReached, Event
from repro.sched import SCHED, DeadlockError, RWLock, schedule_digest

pytestmark = pytest.mark.sched


def _spinner(name: str, n: int):
    def fn() -> str:
        for i in range(n):
            SCHED.yield_point(f"{name}.{i}")
        return name

    return fn


def _three_tasks():
    return {"a": _spinner("a", 5), "b": _spinner("b", 5), "c": _spinner("c", 5)}


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        run1 = SCHED.run(_three_tasks(), seed=42)
        run2 = SCHED.run(_three_tasks(), seed=42)
        assert run1.decisions == run2.decisions
        assert run1.digest() == run2.digest()
        assert run1.clock == run2.clock

    def test_distinct_seeds_distinct_digests(self):
        digests = {SCHED.run(_three_tasks(), seed=s).digest() for s in range(6)}
        assert len(digests) > 1

    def test_digest_is_over_the_decision_lines(self):
        run = SCHED.run(_three_tasks(), seed=7)
        assert run.digest() == schedule_digest(run.decisions)
        assert run.schedule() == [task for _s, task, _p in run.decisions]

    def test_results_collected_per_task(self):
        run = SCHED.run(_three_tasks(), seed=0)
        assert run.results == {"a": "a", "b": "b", "c": "c"}
        assert run.errors == {}
        assert run.divergences == 0


class TestReplay:
    def test_recorded_schedule_replays_identically(self):
        recorded = SCHED.run(_three_tasks(), seed=1234)
        replayed = SCHED.run(_three_tasks(), replay=recorded.schedule())
        assert replayed.decisions == recorded.decisions
        assert replayed.digest() == recorded.digest()
        assert replayed.divergences == 0
        assert replayed.seed is None  # replay runs are schedule-identified

    def test_truncated_replay_falls_back_deterministically(self):
        recorded = SCHED.run(_three_tasks(), seed=1234)
        truncated = recorded.schedule()[: len(recorded.schedule()) // 2]
        replay1 = SCHED.run(_three_tasks(), replay=truncated)
        replay2 = SCHED.run(_three_tasks(), replay=truncated)
        assert replay1.divergences > 0
        # the fallback itself is deterministic: both replays agree.
        assert replay1.decisions == replay2.decisions

    def test_foreign_names_in_replay_are_divergences(self):
        recorded = SCHED.run(_three_tasks(), seed=9)
        bogus = ["nope"] * len(recorded.schedule())
        replayed = SCHED.run(_three_tasks(), replay=bogus)
        assert replayed.divergences == len(replayed.decisions)
        assert set(replayed.results) == {"a", "b", "c"}


class TestVirtualClock:
    def test_clock_ticks_per_decision(self):
        run = SCHED.run({"solo": _spinner("solo", 3)}, seed=0)
        assert run.clock == pytest.approx(len(run.decisions) * SCHED.tick_ms)

    def test_sleep_jumps_the_clock(self):
        def sleeper() -> float:
            SCHED.sleep(500.0)
            return SCHED.clock

        run = SCHED.run({"z": sleeper}, seed=0)
        assert run.results["z"] >= 500.0
        assert run.clock >= 500.0

    def test_sleepers_wake_in_deadline_order(self):
        order = []

        def napper(name: str, ms: float):
            def fn() -> None:
                SCHED.sleep(ms)
                order.append(name)

            return fn

        SCHED.run({"late": napper("late", 300.0), "soon": napper("soon", 10.0)}, seed=3)
        assert order == ["soon", "late"]


class TestErrors:
    def test_task_errors_reraise_by_default(self):
        def boom() -> None:
            SCHED.yield_point("pre")
            raise ValueError("kapow")

        with pytest.raises(ValueError, match="kapow"):
            SCHED.run({"bad": boom}, seed=0)
        assert not SCHED.enabled

    def test_reraise_false_reports_errors_in_run(self):
        def boom() -> None:
            raise ValueError("kapow")

        run = SCHED.run({"bad": boom, "ok": _spinner("ok", 2)}, seed=0, reraise=False)
        assert isinstance(run.errors["bad"], ValueError)
        assert run.results == {"ok": "ok"}

    def test_scheduler_is_not_reentrant(self):
        def nested() -> None:
            SCHED.run({"inner": lambda: None}, seed=0)

        with pytest.raises(RuntimeError, match="not reentrant"):
            SCHED.run({"outer": nested}, seed=0)
        assert not SCHED.enabled

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SCHED.run([("t", lambda: None), ("t", lambda: None)], seed=0)

    def test_livelock_guard_trips(self):
        def spin_forever() -> None:
            while True:
                SCHED.yield_point("spin")

        with pytest.raises(RuntimeError, match="decisions"):
            SCHED.run({"spin": spin_forever}, seed=0, max_decisions=50)
        assert not SCHED.enabled


def _cpus():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


#: Taken at import, before any run here could leave the caller pinned.
_CALLER_CPUS = _cpus()


@contextmanager
def _leaves_no_trace():
    """The block must join every task thread it started and hand the
    caller back its CPU set."""
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads
    assert _cpus() == _CALLER_CPUS
    assert not SCHED.enabled


class TestHandoff:
    """Decision steps run on whichever thread gives up control, so the
    run-ending errors they raise start out on a task thread and must be
    carried back to run()'s caller."""

    def test_deadlock_detected_in_a_task_thread_reaches_the_caller(self):
        a, b = RWLock("A"), RWLock("B")
        detected_on = []

        def take(first: RWLock, second: RWLock):
            def fn() -> None:
                with first.write():
                    SCHED.yield_point("holding")
                    with second.write():
                        pass

            return fn

        def note(kind, _report) -> None:
            detected_on.append((kind, threading.current_thread().name))

        SCHED.trigger_tap.add(note)
        try:
            with _leaves_no_trace(), pytest.raises(DeadlockError):
                SCHED.run(
                    [("t1", take(a, b)), ("t2", take(b, a))],
                    replay=["t1", "t2", "t1", "t2"],
                )
        finally:
            SCHED.trigger_tap.remove(note)
        assert detected_on == [("deadlock", "sched:t2")]
        assert a.holders() == [] and b.holders() == []

    def test_livelock_detected_in_a_task_thread_reaches_the_caller(self):
        def spin_forever() -> None:
            while True:
                SCHED.yield_point("spin")

        with _leaves_no_trace(), pytest.raises(RuntimeError, match="exceeded 5 decisions"):
            SCHED.run({"spin": spin_forever, "also": spin_forever}, seed=0, max_decisions=5)

    def test_anchor_reached_in_a_decision_tap_reaches_the_caller(self):
        halt = AnchorReached(Event(seq=4, vclock=0.0, plane="sched", name="decision"))
        tapped_on = []

        def tap(step, _task, _point) -> None:
            tapped_on.append(threading.current_thread().name)
            if step == 3:
                raise halt

        SCHED.decision_tap.add(tap)
        try:
            with _leaves_no_trace(), pytest.raises(AnchorReached) as raised:
                SCHED.run(_three_tasks(), seed=5)
        finally:
            SCHED.decision_tap.remove(tap)
        assert raised.value is halt
        # Only the first decision is taken by the caller; the rest run
        # on the task thread that yielded.
        assert tapped_on[0] == threading.current_thread().name
        assert all(name.startswith("sched:") for name in tapped_on[1:])

    def test_a_solo_task_keeps_its_own_thread(self):
        seen = set()

        def solo() -> None:
            for i in range(5):
                SCHED.yield_point(f"p{i}")
                seen.add(threading.current_thread().name)

        run = SCHED.run({"solo": solo}, seed=0)
        assert len(run.decisions) == 6
        assert seen == {"sched:solo"}


class TestOneCpu:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_tasks_run_on_the_lowest_allowed_cpu(self):
        def where():
            return os.sched_getaffinity(0)

        with _leaves_no_trace():
            run = SCHED.run({"a": where, "b": where}, seed=0)
        lowest = {min(_CALLER_CPUS)}
        assert run.results == {"a": lowest, "b": lowest}

    def test_unpinned_run_keeps_the_schedule(self, monkeypatch):
        pinned = SCHED.run(_three_tasks(), seed=42)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        with _leaves_no_trace():
            unpinned = SCHED.run(_three_tasks(), seed=42)
        assert unpinned.digest() == pinned.digest()
        assert unpinned.results == pinned.results
