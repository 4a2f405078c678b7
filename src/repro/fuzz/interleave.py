"""The interleaving sweep: concurrent delegate tracks under the reactor.

Where :mod:`repro.fuzz.driver` expands a seed into one *sequential* op
list, this module expands a seed into several concurrent **tracks** (one
actor-style task per simulated process flow: a victim activity track
plus adversarial-corpus attack chains) and runs them under the
deterministic scheduler (:mod:`repro.sched`). The schedule seed fully
determines the interleaving; the shared ``obs.sweep`` S1-S4 rule engine
is the oracle, exactly as in the sequential fuzzer.

Reproducibility contract: a finding is a ``(scenario seed, kept op
slots, schedule)`` triple. Replaying the recorded schedule over the
same tracks is **byte-identical** — same decision list, same schedule
digest, same outcome stream, same violation lineage, same fingerprint.
The shrinker minimizes both dimensions: first the op content of every
track (greedy delta-debugging, fault/crash ops dropped first, whole
tracks dropped when possible), then the schedule itself (coalescing
context switches that don't matter to the violation).

Randomized schedules explore broadly; *systematic perturbation* then
retries the last observed schedule with a foreign task spliced in at
evenly spaced points — the "what if the kernel preempted right here"
probe that catches windows random sampling misses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.adversarial import interpreter, launderer
from repro.digest import lines_digest
from repro.fuzz.driver import (
    _chain_browser,
    _chain_clip_launder,
    _chain_interpreter,
    _chain_provider,
    _delegate,
    delta_debug,
)
from repro.fuzz.harness import FuzzWorld, RunResult, VICTIM_PACKAGE
from repro.fuzz.ops import (
    ClearVolatile,
    ClipPaste,
    DropLoot,
    Invoke,
    Op,
    ProviderInsert,
    ProviderQuery,
    ReadExternal,
    ReadSecret,
    Spawn,
    VolatileCommit,
    WriteExternal,
)
from repro.fuzz.driver import AnchorHalt
from repro.obs.recorder import AnchorReached, BlackBox
from repro.sched import SCHED, schedule_bytes as _sched_bytes, schedule_digest

__all__ = [
    "InterleaveResult",
    "InterleaveSweepReport",
    "RaceCounterexample",
    "concurrent_scenario_from_seed",
    "interleave_sweep",
    "replay_to_anchor",
    "run_interleaved",
    "shrink_schedule",
    "shrink_tracks",
]

_INTERP = interpreter.PACKAGE
_MULE = launderer.PACKAGE

#: name -> ordered op list. One track = one scheduled task.
Tracks = Dict[str, List[Op]]


# ---------------------------------------------------------------------------
# Concurrent scenario generation
# ---------------------------------------------------------------------------


def _track_guard_race(rng: random.Random) -> List[Op]:
    """A delegate hammers the clip mule's exported drop provider with the
    secret. Dead against an intact binder guard from *every* schedule;
    with the planted ``binder-guard-race`` only an interleaving that
    lands a drop inside a registry-rebuild window gets through."""
    delegate = _delegate(_INTERP)
    ops: List[Op] = [Spawn(_INTERP, VICTIM_PACKAGE), ReadSecret(delegate)]
    for n in range(rng.randrange(8, 13)):
        ops.append(DropLoot(delegate, f"drop-{n}"))
    return ops


_ATTACK_TRACKS: Tuple[Callable[[random.Random], List[Op]], ...] = (
    _track_guard_race,
    _chain_clip_launder,
    _chain_interpreter,
    _chain_browser,
    _chain_provider,
)


def _noise_op(rng: random.Random, actors: Sequence[str]) -> Op:
    """Crash-free concurrent noise (crashes get their own dedicated
    scenarios; random reboots in every track would drown the sweep)."""
    actor = rng.choice(tuple(actors))
    kind = rng.randrange(6)
    if kind == 0:
        return ProviderInsert(actor)
    if kind == 1:
        return ProviderQuery(actor)
    if kind == 2:
        return ReadExternal(actor, f"loot-{rng.randrange(4)}")
    if kind == 3:
        return ClipPaste(actor)
    if kind == 4:
        return WriteExternal(actor, f"note-{rng.randrange(4)}")
    return VolatileCommit(VICTIM_PACKAGE)


def concurrent_scenario_from_seed(seed: int, noise: int = 2) -> Tracks:
    """Deterministically expand a seed into concurrent tracks.

    Track 0 is the victim's activity: Activity-Manager-routed launches
    (which churn the binder guard's instance registry — the bookkeeping
    every TOCTOU in that layer races against) and volatile commits.
    Tracks 1..k are attack chains from the adversarial corpus, each with
    ``noise`` extra reachable ops spliced in."""
    rng = random.Random(seed)
    tracks: Tracks = {}
    victim_ops: List[Op] = [Invoke(_MULE)]
    for _ in range(rng.randrange(3, 6)):
        victim_ops.append(
            rng.choice(
                (
                    Invoke(_MULE),
                    VolatileCommit(VICTIM_PACKAGE),
                    Invoke(_MULE),
                    ClearVolatile(VICTIM_PACKAGE),
                )
            )
        )
    tracks["t0:victim"] = victim_ops
    for index, chain in enumerate(rng.sample(_ATTACK_TRACKS, k=2), start=1):
        ops = chain(rng)
        actors = [op.key for op in ops if isinstance(op, Spawn)] or [VICTIM_PACKAGE]
        for _ in range(noise):
            ops.insert(rng.randrange(1, len(ops) + 1), _noise_op(rng, actors))
        name = chain.__name__.lstrip("_")
        for prefix in ("chain_", "track_"):
            if name.startswith(prefix):
                name = name[len(prefix):]
        tracks[f"t{index}:{name}"] = ops
    return tracks


# ---------------------------------------------------------------------------
# Running tracks under the reactor
# ---------------------------------------------------------------------------


def _fingerprint(result: RunResult, decisions: Sequence[Tuple[int, str, str]]) -> str:
    """Counter-free digest over (outcomes, violations, fault schedule,
    interleaving schedule): equal across exact replays."""
    return lines_digest([result.fingerprint(), _sched_bytes(decisions).decode()])


@dataclass
class InterleaveResult:
    """One scheduled run: the world's results plus the schedule that
    produced them."""

    run: RunResult
    decisions: List[Tuple[int, str, str]]
    divergences: int
    sched_seed: Optional[int]
    #: closed spans in close order, as counter-free (name, ctx) pairs.
    spans: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    race_candidates: List[Tuple[str, str, str]] = field(default_factory=list)
    #: The run's flight recording, when ``run_interleaved(record=True)``.
    blackbox: Optional[BlackBox] = None

    @property
    def violations(self):
        return self.run.violations

    def schedule(self) -> List[str]:
        return [task for _step, task, _point in self.decisions]

    def schedule_bytes(self) -> bytes:
        return _sched_bytes(self.decisions)

    def digest(self) -> str:
        return schedule_digest(self.decisions)

    def fingerprint(self) -> str:
        return _fingerprint(self.run, self.decisions)


def run_interleaved(
    tracks: Tracks,
    *,
    sched_seed: Optional[int] = 0,
    schedule: Optional[Sequence[str]] = None,
    planted: Optional[str] = None,
    maxoid: bool = True,
    record: bool = False,
) -> InterleaveResult:
    """Run every track concurrently under one deterministic schedule.

    ``sched_seed`` drives the interleaving; passing ``schedule`` (a
    recorded task-name sequence) replays it instead, with deterministic
    fallback on divergence — the replay half of the ``(seed, schedule)``
    reproducibility contract. ``record=True`` arms the flight recorder
    for the run and seals a ``counterexample`` dump into ``.blackbox``."""
    world = FuzzWorld(planted=planted, maxoid=maxoid, record=record)
    world.start()
    spans: List[Tuple[str, Optional[str]]] = []

    def _on_span(span) -> None:
        spans.append((span.name, span.attrs.get("ctx")))

    world.device.obs.tracer.span_tap.add(_on_span)
    try:

        def _track_fn(ops: List[Op]):
            def fn() -> None:
                for op in ops:
                    SCHED.yield_point("op.boundary")
                    world.step(op)

            return fn

        named = [(name, _track_fn(ops)) for name, ops in sorted(tracks.items())]
        srun = SCHED.run(named, seed=sched_seed, replay=schedule, reraise=False)
        for error in srun.errors.values():
            # world.step absorbs every simulation-level error; anything
            # escaping a track is a harness bug and must surface.
            raise error
        result = world.result()
        box = world.seal_recording("counterexample") if record else None
    finally:
        world.device.obs.tracer.span_tap.remove(_on_span)
        world.close()
    return InterleaveResult(
        run=result,
        decisions=srun.decisions,
        divergences=srun.divergences,
        sched_seed=sched_seed if schedule is None else None,
        spans=spans,
        race_candidates=srun.race_candidates,
        blackbox=box,
    )


# ---------------------------------------------------------------------------
# Shrinking: first the op content, then the schedule
# ---------------------------------------------------------------------------


def _materialize(tracks: Tracks, kept: Dict[str, List[int]]) -> Tracks:
    return {
        name: [tracks[name][i] for i in kept[name]]
        for name in tracks
        if kept[name]
    }


def shrink_tracks(
    tracks: Tracks,
    *,
    sched_seed: Optional[int],
    schedule: Optional[Sequence[str]],
    planted: Optional[str],
    maxoid: bool = True,
) -> Dict[str, List[int]]:
    """:func:`~repro.fuzz.driver.delta_debug` across all tracks' op slots.

    Trials re-run under the *recorded* schedule (replay + deterministic
    fallback), so the interleaving structure that produced the violation
    survives op removals as far as possible. Returns the kept indices
    per track (a dropped track keeps ``[]``)."""

    def violates(kept: Dict[str, List[int]]) -> bool:
        result = run_interleaved(
            _materialize(tracks, kept),
            sched_seed=sched_seed,
            schedule=schedule,
            planted=planted,
            maxoid=maxoid,
        )
        return bool(result.violations)

    return delta_debug(tracks, violates)


def shrink_schedule(
    tracks: Tracks,
    base: InterleaveResult,
    *,
    sched_seed: Optional[int],
    planted: Optional[str],
    maxoid: bool = True,
    max_trials: int = 60,
) -> InterleaveResult:
    """Minimize context switches: repeatedly try extending the previous
    task's run by one decision (coalescing a switch) and keep the
    perturbed schedule whenever the violation survives with fewer
    switches. Bounded by ``max_trials`` full re-runs."""

    def switches(names: Sequence[str]) -> int:
        return sum(1 for i in range(1, len(names)) if names[i] != names[i - 1])

    best = base
    trials = 0
    improved = True
    while improved and trials < max_trials:
        improved = False
        names = best.schedule()
        for i in range(1, len(names)):
            if names[i] == names[i - 1]:
                continue
            candidate = names[:i] + [names[i - 1]] + names[i + 1 :]
            trials += 1
            result = run_interleaved(
                tracks,
                sched_seed=sched_seed,
                schedule=candidate,
                planted=planted,
                maxoid=maxoid,
            )
            if result.violations and switches(result.schedule()) < switches(names):
                best = result
                improved = True
                break
            if trials >= max_trials:
                break
    return best


# ---------------------------------------------------------------------------
# Counterexamples and the sweep driver
# ---------------------------------------------------------------------------


@dataclass
class RaceCounterexample:
    """A shrunk interleaving violation, replayable byte-identically.

    The identity of the finding is ``(scenario_seed, noise, kept,
    schedule)``: re-deriving the tracks from the seed, slicing the kept
    slots, and replaying the recorded schedule reproduces the identical
    decision list, digest, and fingerprint."""

    scenario_seed: Optional[int]
    noise: int
    sched_seed: Optional[int]
    planted: Optional[str]
    maxoid: bool
    kept: Dict[str, Tuple[int, ...]]
    tracks: Dict[str, Tuple[Op, ...]]
    schedule: Tuple[str, ...]
    decisions: Tuple[Tuple[int, str, str], ...]
    result: RunResult
    #: The flight recording of the final minimal run under the shrunk
    #: schedule — the replay-to-anchor postmortem's input.
    blackbox: Optional[BlackBox] = None

    @property
    def digest(self) -> str:
        return schedule_digest(self.decisions)

    @property
    def fingerprint(self) -> str:
        return _fingerprint(self.result, self.decisions)

    def replay(self) -> InterleaveResult:
        """Re-run the minimal tracks under the recorded schedule; the
        caller asserts digest + fingerprint equality."""
        tracks = {name: list(ops) for name, ops in self.tracks.items()}
        return run_interleaved(
            tracks,
            sched_seed=self.sched_seed,
            schedule=list(self.schedule),
            planted=self.planted,
            maxoid=self.maxoid,
        )

    def render(self) -> str:
        lines = [
            f"race counterexample: scenario_seed={self.scenario_seed} "
            f"sched_seed={self.sched_seed} planted={self.planted} "
            f"maxoid={self.maxoid}",
            f"schedule digest={self.digest[:16]} "
            f"fingerprint={self.fingerprint[:16]}",
        ]
        for name in sorted(self.tracks):
            lines.append(f"track {name} ({len(self.tracks[name])} ops):")
            for step, op in enumerate(self.tracks[name], 1):
                lines.append(f"  {step}. {op.render()}")
        lines.append(f"interleaving ({len(self.decisions)} decisions):")
        for step, task, point in self.decisions:
            lines.append(f"  {step:4d} {task} @ {point}")
        lines.append("violations:")
        for violation in self.result.violations:
            lines.append("  " + violation.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "scenario_seed": self.scenario_seed,
            "noise": self.noise,
            "sched_seed": self.sched_seed,
            "planted": self.planted,
            "maxoid": self.maxoid,
            "kept": {name: list(slots) for name, slots in self.kept.items()},
            "tracks": {
                name: [op.render() for op in ops]
                for name, ops in self.tracks.items()
            },
            "schedule": list(self.schedule),
            "decisions": [list(decision) for decision in self.decisions],
            "schedule_digest": self.digest,
            "outcomes": [list(pair) for pair in self.result.outcomes],
            "violations": self.result.violation_renders(),
            "fingerprint": self.fingerprint,
            "blackbox": (
                None
                if self.blackbox is None
                else {
                    "anchor_seq": self.blackbox.anchor_seq,
                    "events": len(self.blackbox.events),
                    "events_digest": self.blackbox.events_digest(),
                }
            ),
        }


def replay_to_anchor(
    counterexample: RaceCounterexample, anchor_seq: Optional[int] = None
) -> AnchorHalt:
    """Replay a race counterexample under its recorded schedule with the
    recorder armed, halting at the anchor event.

    The anchor can be reached from a task thread (a span/fault/audit
    event) or from the reactor's own decision loop (a ``sched decision``
    event); both paths stop the scheduler and leave the world standing.
    Returns an :class:`~repro.fuzz.driver.AnchorHalt` — the caller
    inspects, then MUST ``halt.world.close()``."""
    if anchor_seq is None:
        if counterexample.blackbox is None:
            raise ValueError("race counterexample carries no flight recording")
        anchor_seq = counterexample.blackbox.anchor_seq
    tracks = {name: list(ops) for name, ops in counterexample.tracks.items()}
    world = FuzzWorld(
        planted=counterexample.planted,
        maxoid=counterexample.maxoid,
        record=True,
        halt_at=anchor_seq,
    )
    world.start()

    def _track_fn(ops: List[Op]):
        def fn() -> None:
            for op in ops:
                SCHED.yield_point("op.boundary")
                world.step(op)

        return fn

    named = [(name, _track_fn(ops)) for name, ops in sorted(tracks.items())]
    try:
        srun = SCHED.run(
            named,
            seed=counterexample.sched_seed,
            replay=list(counterexample.schedule),
            reraise=False,
        )
    except AnchorReached as reached:
        # The anchor was a scheduler decision: the recorder's tap raised
        # from the reactor loop itself.
        return AnchorHalt(world=world, event=reached.event)
    except BaseException:
        world.close()
        raise
    for error in srun.errors.values():
        if isinstance(error, AnchorReached):
            return AnchorHalt(world=world, event=error.event)
    for error in srun.errors.values():
        world.close()
        raise error
    world.close()
    raise RuntimeError(
        f"replay never reached anchor event #{anchor_seq} "
        f"(recorded {world.device.obs.recorder.seq} events) — recording and "
        f"tracks disagree"
    )


@dataclass
class InterleaveSweepReport:
    """What the sweep covered and (maybe) found."""

    examples: int
    counterexample: Optional[RaceCounterexample] = None

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def _package(
    scenario_seed: Optional[int],
    noise: int,
    tracks: Tracks,
    found: InterleaveResult,
    sched_seed: Optional[int],
    planted: Optional[str],
    maxoid: bool,
    artifact_path: Optional[str],
    examples: int,
    blackbox_path: Optional[str] = None,
) -> InterleaveSweepReport:
    """Shrink a violating run (ops, then schedule) into a counterexample."""
    recorded = found.schedule()
    kept = shrink_tracks(
        tracks,
        sched_seed=sched_seed,
        schedule=recorded,
        planted=planted,
        maxoid=maxoid,
    )
    minimal = _materialize(tracks, kept)
    result = run_interleaved(
        minimal,
        sched_seed=sched_seed,
        schedule=recorded,
        planted=planted,
        maxoid=maxoid,
    )
    result = shrink_schedule(
        minimal, result, sched_seed=sched_seed, planted=planted, maxoid=maxoid
    )
    # Final pass: replay the shrunk schedule with the flight recorder
    # armed, so the counterexample ships a black-box recording whose
    # anchor the postmortem can replay to.
    recorded = run_interleaved(
        minimal,
        sched_seed=sched_seed,
        schedule=result.schedule(),
        planted=planted,
        maxoid=maxoid,
        record=True,
    )
    counterexample = RaceCounterexample(
        scenario_seed=scenario_seed,
        noise=noise,
        sched_seed=sched_seed,
        planted=planted,
        maxoid=maxoid,
        kept={name: tuple(slots) for name, slots in kept.items()},
        tracks={name: tuple(ops) for name, ops in minimal.items()},
        schedule=tuple(recorded.schedule()),
        decisions=tuple(recorded.decisions),
        result=recorded.run,
        blackbox=recorded.blackbox,
    )
    if artifact_path is not None:
        with open(artifact_path, "w", encoding="utf-8") as sink:
            json.dump(counterexample.to_dict(), sink, indent=2)
    if blackbox_path is not None and counterexample.blackbox is not None:
        from repro.obs.artifacts import write_blackbox

        write_blackbox(blackbox_path, counterexample.blackbox)
    return InterleaveSweepReport(examples=examples, counterexample=counterexample)


def interleave_sweep(
    n_scenarios: int = 6,
    schedules_per_scenario: int = 4,
    base_seed: int = 0,
    planted: Optional[str] = None,
    maxoid: bool = True,
    noise: int = 2,
    perturb: int = 3,
    artifact_path: Optional[str] = None,
    blackbox_path: Optional[str] = None,
) -> InterleaveSweepReport:
    """Drive seeded concurrent scenarios through randomized and
    systematically-perturbed schedules; shrink and report the first
    S1-S4 violation. ``artifact_path`` (used by the CI interleave lane)
    receives the counterexample as JSON when one is found;
    ``blackbox_path`` receives its flight recording as JSONL."""
    examples = 0
    for scenario_index in range(n_scenarios):
        scenario_seed = base_seed + scenario_index
        tracks = concurrent_scenario_from_seed(scenario_seed, noise=noise)
        last: Optional[Tuple[int, InterleaveResult]] = None
        for schedule_index in range(schedules_per_scenario):
            sched_seed = 1000 * scenario_seed + schedule_index
            examples += 1
            result = run_interleaved(
                tracks, sched_seed=sched_seed, planted=planted, maxoid=maxoid
            )
            last = (sched_seed, result)
            if result.violations:
                return _package(
                    scenario_seed, noise, tracks, result, sched_seed,
                    planted, maxoid, artifact_path, examples,
                    blackbox_path=blackbox_path,
                )
        # Systematic perturbation: splice a foreign task into the last
        # observed schedule at evenly spaced points — forced preemptions
        # where the random sampler happened not to switch.
        assert last is not None
        sched_seed, observed = last
        names = observed.schedule()
        task_names = sorted(tracks)
        if len(task_names) > 1 and names:
            step_size = max(1, len(names) // (perturb + 1))
            positions = list(range(step_size, len(names), step_size))[:perturb]
            for position in positions:
                current = names[position]
                alternate = task_names[
                    (task_names.index(current) + 1) % len(task_names)
                ]
                candidate = names[:position] + [alternate] + names[position:]
                examples += 1
                result = run_interleaved(
                    tracks,
                    sched_seed=sched_seed,
                    schedule=candidate,
                    planted=planted,
                    maxoid=maxoid,
                )
                if result.violations:
                    return _package(
                        scenario_seed, noise, tracks, result, sched_seed,
                        planted, maxoid, artifact_path, examples,
                        blackbox_path=blackbox_path,
                    )
    return InterleaveSweepReport(examples=examples)
