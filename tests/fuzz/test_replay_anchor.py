"""Replay-to-anchor postmortems: the byte-identity acceptance tests.

A counterexample's black box must replay **byte-identically**: re-running
the recorded minimal scenario with ``halt_at=<anchor seq>`` reproduces
the exact event prefix (same events digest), halts at the same event,
and — for interleaved races — reproduces the same scheduler decision
digest, with the live world still standing for inspection. Both fuzz
drivers are pinned here, each against its canonical planted
vulnerability, through the one ``repro.fuzz.replay_to_anchor``.
"""

import dataclasses

import pytest

from repro.fuzz import driver, fuzz_sweep, interleave_sweep, replay_to_anchor
from repro.fuzz.interleave import _drive_tracks
from repro.obs.artifacts import load_blackbox
from repro.obs.recorder import AnchorReached, Event

pytestmark = [pytest.mark.recorder, pytest.mark.fuzz]


@pytest.fixture(scope="module")
def clipboard_counterexample():
    report = fuzz_sweep(10, planted="clipboard-isolation")
    assert report.found, "planted clipboard vuln not found"
    return report.counterexample


@pytest.fixture(scope="module")
def race_counterexample():
    report = interleave_sweep(
        n_scenarios=20,
        schedules_per_scenario=6,
        planted="binder-guard-race",
    )
    assert report.found, "planted binder race not found"
    return report.counterexample


class TestSequentialReplay:
    def test_counterexample_carries_a_sealed_black_box(
        self, clipboard_counterexample
    ):
        box = clipboard_counterexample.blackbox
        assert box is not None
        assert box.trigger == "counterexample"
        assert box.events, "recording is empty"
        assert box.anchor_seq == box.events[-1].seq
        summary = clipboard_counterexample.to_dict()["blackbox"]
        assert summary["anchor_seq"] == box.anchor_seq
        assert summary["events_digest"] == box.events_digest()

    def test_replays_byte_identically_to_the_anchor(
        self, clipboard_counterexample
    ):
        box = clipboard_counterexample.blackbox
        halt = replay_to_anchor(clipboard_counterexample)
        try:
            assert halt.event.seq == box.anchor_seq
            assert halt.event.line() == box.events[-1].line()
            assert halt.events_digest() == box.events_digest()
            # The world is live: the device is still inspectable.
            assert halt.world.device is not None
            assert halt.recorder.halted_event is halt.event
        finally:
            halt.world.close()

    def test_replays_to_an_intermediate_anchor(self, clipboard_counterexample):
        box = clipboard_counterexample.blackbox
        assert len(box.events) >= 2, "need at least two events to pick a midpoint"
        mid = box.events[len(box.events) // 2 - 1].seq
        halt = replay_to_anchor(clipboard_counterexample, anchor_seq=mid)
        try:
            assert halt.event.seq == mid
            assert halt.events_digest() == box.events_digest(upto=mid)
        finally:
            halt.world.close()

    def test_sweep_writes_a_loadable_dump(self, tmp_path):
        path = str(tmp_path / "ce.jsonl")
        report = fuzz_sweep(
            10, planted="clipboard-isolation", blackbox_path=path
        )
        assert report.found
        box = report.counterexample.blackbox
        loaded = load_blackbox(path)
        assert loaded.trigger == "counterexample"
        assert loaded.anchor_seq == box.anchor_seq
        assert loaded.events_digest() == box.events_digest()


class TestInterleavedReplay:
    def test_race_black_box_replays_to_anchor_with_same_schedule(
        self, race_counterexample
    ):
        counterexample = race_counterexample
        box = counterexample.blackbox
        assert box is not None and box.trigger == "counterexample"
        halt = replay_to_anchor(counterexample)
        try:
            assert halt.event.seq == box.anchor_seq
            assert halt.events_digest() == box.events_digest()
            assert (
                halt.recorder.schedule_digest()
                == box.metadata["schedule_digest"]
            )
        finally:
            halt.world.close()


@pytest.fixture
def replay_worlds(monkeypatch):
    """Every world replay_to_anchor builds, for post-mortem checks."""
    worlds = []

    class SpyWorld(driver.FuzzWorld):
        def start(self):
            worlds.append(self)
            return super().start()

    monkeypatch.setattr(driver, "FuzzWorld", SpyWorld)
    return worlds


@pytest.mark.parametrize("kind", ["clipboard", "race"])
class TestReplayFailures:
    """Both counterexample kinds fail the same way through the one
    replay_to_anchor: no recording to anchor on, or an anchor the
    replay never reaches."""

    @pytest.fixture
    def counterexample(self, kind, request):
        return request.getfixturevalue(f"{kind}_counterexample")

    def test_without_a_recording_raises_value_error(self, counterexample):
        unrecorded = dataclasses.replace(
            counterexample,
            result=dataclasses.replace(counterexample.result, blackbox=None),
        )
        assert unrecorded.blackbox is None
        with pytest.raises(ValueError, match="no flight recording"):
            replay_to_anchor(unrecorded)

    def test_anchor_past_the_recording_raises_and_closes_the_world(
        self, counterexample, replay_worlds
    ):
        past = counterexample.blackbox.anchor_seq + 10_000
        with pytest.raises(RuntimeError, match=f"never reached anchor event #{past}"):
            replay_to_anchor(counterexample, anchor_seq=past)
        (world,) = replay_worlds
        assert not world._started
        assert not world.device.obs.recorder.armed


def test_track_runner_raises_a_replay_halt_ahead_of_other_task_errors():
    """A halt in one track wins over an error in another track, so a
    race replay always surfaces its anchor."""

    class RaisingWorld:
        def step(self, op):
            raise op

    halt = AnchorReached(Event(seq=7, vclock=0.0, plane="span", name="anchor"))
    tracks = {"a": [RuntimeError("harness bug")], "b": [halt]}
    with pytest.raises(AnchorReached) as raised:
        _drive_tracks(RaisingWorld(), tracks, sched_seed=0, schedule=None)
    assert raised.value is halt
