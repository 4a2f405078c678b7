"""Property-based delegation fuzzing with lineage counterexamples.

The adversarial corpus (:mod:`repro.apps.adversarial`) gives the
reproduction apps that *try* to leak; this package drives them. Four
pieces cooperate:

- :mod:`repro.fuzz.reachability` — a PolyScope-style triage pass that
  enumerates every ``(subject, resource, op)`` triple a delegation
  topology makes reachable and predicts, from the policy alone, which
  ones the reference monitor denies (tests cross-check the predictions
  against live enforcement);
- :mod:`repro.fuzz.ops` + :mod:`repro.fuzz.harness` — a small op
  language (spawn, read, publish, clipboard, provider, fault, crash) and
  a world that executes op sequences on a fresh device with the online
  :class:`~repro.obs.monitor.SecurityMonitor` attached, asserting S1-S4
  through the shared ``obs/sweep.py`` rule engine after every step;
- :mod:`repro.fuzz.driver` — the seeded scenario driver, the one
  sequential front end: attack-chain templates spliced with hand-picked
  noise ops, every violation shrunk to a minimal op sequence rendered
  with its ``provenance.explain()`` derivation chain and a
  byte-identical replay fingerprint;
- :mod:`repro.fuzz.interleave` — the same sweep over concurrent tracks
  under the deterministic scheduler, shrinking ops and then schedule.

Both sweeps share one counterexample pipeline: ``record=True`` on
``run_scenario`` / ``run_interleaved``, one :class:`SweepReport`, one
artifact writer, and :func:`replay_to_anchor` for either kind.

A planted-vulnerability mode (:data:`repro.fuzz.harness.PLANTED_VULNS`)
disables exactly one Maxoid enforcement point so the unmodified rule
engine has a real bug to find — the fuzzer proving it can catch what it
is supposed to catch.
"""

from repro.fuzz.harness import (
    FuzzWorld,
    PLANTED_VULNS,
    RunResult,
    SECRET_PATH,
    VICTIM_PACKAGE,
)
from repro.fuzz.ops import (
    ArmFault,
    BrowseFile,
    ClearVolatile,
    ClipCopy,
    ClipPaste,
    CrashNow,
    DisarmFaults,
    DropLoot,
    IngestDocument,
    Invoke,
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
from repro.fuzz.driver import (
    AnchorHalt,
    Counterexample,
    SweepReport,
    fuzz_sweep,
    replay_to_anchor,
    run_scenario,
    scenario_from_seed,
    shrink,
)
from repro.fuzz.interleave import (
    InterleaveResult,
    RaceCounterexample,
    concurrent_scenario_from_seed,
    interleave_sweep,
    run_interleaved,
)
from repro.fuzz.reachability import (
    ReachabilityReport,
    Subject,
    Triple,
    triage,
)

__all__ = [
    "FuzzWorld",
    "PLANTED_VULNS",
    "RunResult",
    "SECRET_PATH",
    "VICTIM_PACKAGE",
    "Op",
    "Spawn",
    "Invoke",
    "DropLoot",
    "ReadSecret",
    "ReadExternal",
    "WriteExternal",
    "ClipCopy",
    "ClipPaste",
    "RunScript",
    "BrowseFile",
    "IngestDocument",
    "ProviderFetch",
    "ProviderInsert",
    "ProviderQuery",
    "VolatileCommit",
    "ClearVolatile",
    "ArmFault",
    "DisarmFaults",
    "CrashNow",
    "AnchorHalt",
    "Counterexample",
    "SweepReport",
    "scenario_from_seed",
    "replay_to_anchor",
    "run_scenario",
    "shrink",
    "fuzz_sweep",
    "InterleaveResult",
    "RaceCounterexample",
    "concurrent_scenario_from_seed",
    "interleave_sweep",
    "run_interleaved",
    "Subject",
    "Triple",
    "ReachabilityReport",
    "triage",
]
