"""The S1-S4 race sweep: finding, shrinking, and replaying interleavings.

The planted ``binder-guard-race`` is the positive control: a
check-then-act window in the binder delegate guard that *no sequential
op order can exploit* — only an adversarial interleaving lands a
delegate's drop inside the guard's registry-rebuild window. The sweep
must find it, shrink it (ops and schedule), and replay it
byte-identically from its ``(seed, schedule)`` pair; the unplanted
sweep over the same generator must stay silent.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.harness import FuzzWorld, VICTIM_PACKAGE
from repro.fuzz.interleave import (
    _INTERP,
    _MULE,
    _schedules,
    concurrent_scenario_from_seed,
    interleave_sweep,
    run_interleaved,
)
from repro.fuzz.ops import (
    CrashNow,
    DropLoot,
    Invoke,
    ReadExternal,
    ReadSecret,
    Spawn,
    VolatileCommit,
    WriteExternal,
)

pytestmark = [pytest.mark.fuzz, pytest.mark.interleave]

#: Locally verified: this scenario seed's guard-race track collides with
#: the victim's AM launches within the first few schedule seeds.
HITTING_SCENARIO_SEED = 3


def _planted_sweep(artifact_path=None):
    return interleave_sweep(
        n_scenarios=1,
        schedules_per_scenario=4,
        base_seed=HITTING_SCENARIO_SEED,
        planted="binder-guard-race",
        artifact_path=artifact_path,
    )


class TestPlantedRace:
    def test_sweep_finds_and_shrinks_the_race(self):
        report = _planted_sweep()
        assert report.found
        cx = report.counterexample
        renders = cx.result.violation_renders()
        assert any("S1" in r and _MULE in r for r in renders)
        # Shrinking bit: the minimal reproducer is a fraction of the
        # generated scenario (which starts at ~20 ops across 3 tracks).
        assert sum(len(ops) for ops in cx.tracks.values()) <= 15
        assert cx.schedule and cx.decisions

    def test_counterexample_replays_byte_identically(self):
        cx = _planted_sweep().counterexample
        replay = cx.replay()
        assert replay.digest() == cx.digest
        assert replay.fingerprint() == cx.fingerprint
        assert replay.divergences == 0
        assert replay.decisions == list(cx.decisions)
        assert replay.run.outcomes == cx.result.outcomes
        assert replay.run.violation_renders() == cx.result.violation_renders()

    def test_race_is_sequentially_invisible(self):
        """The exact minimal ops, run in plain sequential order (no
        scheduler), never violate: the planted bug is a pure race."""
        cx = _planted_sweep().counterexample
        with FuzzWorld(planted="binder-guard-race") as world:
            for name in sorted(cx.tracks):
                for op in cx.tracks[name]:
                    world.step(op)
            assert world.violations == []
        drops = [o for r, o in world.outcomes if "drop register" in r]
        assert all(outcome in ("err:IpcDenied", "skip") for outcome in drops)

    def test_detector_flags_the_unsynchronized_registry(self):
        cx = _planted_sweep().counterexample
        candidates = cx.replay().race_candidates
        assert any(resource == "guard-registry" for resource, _a, _b in candidates)

    def test_artifact_json_round_trips(self, tmp_path):
        artifact = tmp_path / "race-counterexample.json"
        report = _planted_sweep(artifact_path=str(artifact))
        data = json.loads(artifact.read_text())
        cx = report.counterexample
        assert data["schedule_digest"] == cx.digest
        assert data["fingerprint"] == cx.fingerprint
        assert data["planted"] == "binder-guard-race"
        assert data["schedule"] == list(cx.schedule)
        assert data["violations"] == cx.result.violation_renders()
        assert list(data["tracks"]) == sorted(cx.tracks)


class TestUnplantedControls:
    def test_unplanted_sweep_is_clean(self):
        report = interleave_sweep(
            n_scenarios=4, schedules_per_scenario=3, base_seed=0
        )
        assert not report.found

    def test_scenario_generation_is_deterministic(self):
        one = concurrent_scenario_from_seed(7)
        two = concurrent_scenario_from_seed(7)
        assert {k: [op.render() for op in v] for k, v in one.items()} == {
            k: [op.render() for op in v] for k, v in two.items()
        }
        other = concurrent_scenario_from_seed(8)
        assert {k: [op.render() for op in v] for k, v in one.items()} != {
            k: [op.render() for op in v] for k, v in other.items()
        }


class TestRaceDetector:
    """``race_candidates`` flags unsynchronized shared access only: the
    scenarios' file I/O, which yields under the ns and filesystem locks,
    is race-clean, while the planted guard race is still flagged."""

    @staticmethod
    def _candidates(scenario_seeds, planted=None):
        """Resources flagged over the sweep's schedules (4 random ones,
        then 3 perturbations) of each scenario seed."""
        found = set()
        for seed in scenario_seeds:
            tracks = concurrent_scenario_from_seed(seed)
            for _sched_seed, run in _schedules(tracks, seed, 4, 3, planted, True):
                found.update(resource for resource, _a, _b in run.race_candidates)
        return found

    def test_only_the_planted_race_is_flagged(self):
        assert self._candidates(range(3)) == set()
        planted = self._candidates([HITTING_SCENARIO_SEED], planted="binder-guard-race")
        assert planted == {"guard-registry"}


class TestScheduleDeterminism:
    """Satellite: same seed => identical digest, span order, lineage."""

    def _run(self, sched_seed: int):
        tracks = concurrent_scenario_from_seed(HITTING_SCENARIO_SEED)
        return run_interleaved(
            tracks, sched_seed=sched_seed, planted="binder-guard-race"
        )

    def test_same_seed_identical_schedule_spans_and_lineage(self):
        first = self._run(1000 * HITTING_SCENARIO_SEED)
        second = self._run(1000 * HITTING_SCENARIO_SEED)
        assert first.decisions == second.decisions
        assert first.digest() == second.digest()
        # Span close order (name, ctx) — the trace plane interleaves
        # identically run to run.
        assert first.spans == second.spans
        # Violation renders embed the provenance lineage chains.
        assert first.run.violation_renders() == second.run.violation_renders()
        assert first.fingerprint() == second.fingerprint()

    def test_distinct_seeds_distinct_digests(self):
        digests = {self._run(s).digest() for s in (3000, 3001, 3002)}
        assert len(digests) > 1


class TestCrashRecovery:
    """Satellite: crash mid-delegate, recover under the scheduler, and
    prove pre-crash taint cannot launder post-recovery."""

    @staticmethod
    def _tracks():
        delegate = f"{_INTERP}^{VICTIM_PACKAGE}"
        return {
            "t0:victim": [Invoke(_MULE), VolatileCommit(VICTIM_PACKAGE)],
            "t1:attack": [
                Spawn(_INTERP, VICTIM_PACKAGE),
                ReadSecret(delegate),
                WriteExternal(delegate, "stash"),
                CrashNow(),
                Spawn(_INTERP, VICTIM_PACKAGE),
                ReadExternal(delegate, "stash"),
                DropLoot(delegate, "post"),
            ],
        }

    def test_recovery_under_scheduler_stays_confined(self):
        for sched_seed in range(5):
            result = run_interleaved(self._tracks(), sched_seed=sched_seed)
            outcomes = [outcome for _r, outcome in result.run.outcomes]
            assert "crash+recovered" in outcomes
            assert result.violations == []
            # The post-recovery drop of the re-read (still delegate-
            # confined) secret is refused: taint from before the crash
            # has no laundering channel after it.
            drops = [
                o for r, o in result.run.outcomes if "drop register" in r
            ]
            assert drops and all(o in ("err:IpcDenied", "skip") for o in drops)

    def test_crash_recovery_is_deterministic(self):
        first = run_interleaved(self._tracks(), sched_seed=2)
        second = run_interleaved(self._tracks(), sched_seed=2)
        assert first.digest() == second.digest()
        assert first.fingerprint() == second.fingerprint()
        assert first.run.outcomes == second.run.outcomes
