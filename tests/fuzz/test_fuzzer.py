"""The delegation fuzzer: clean on stock Maxoid, sharp on planted bugs.

Two regimes, mirroring the acceptance bar:

- **Soundness** (no false positives): the seeded sweep and the fixed
  vocabulary scenario over the unmodified rule engine + enforcement
  must produce *zero* violations. ``FUZZ_SWEEP`` scales the sweep
  budget (the CI fuzz lane raises it to 500).
- **Sensitivity** (no false negatives): with exactly one enforcement
  point disabled (``PLANTED_VULNS``), the seeded driver must find a
  violation and shrink it to a minimal sequence whose counterexample
  replays byte-identically from its seed and whose lineage reaches the
  ``Priv`` source.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import List

import pytest

from repro.apps.adversarial import exfil_browser, interpreter, launderer, leaky_provider
from repro.fuzz import (
    BrowseFile,
    ClipCopy,
    ClipPaste,
    IngestDocument,
    Op,
    ProviderFetch,
    ProviderInsert,
    ProviderQuery,
    ReadExternal,
    ReadSecret,
    RunScript,
    Spawn,
    WriteExternal,
    fuzz_sweep,
    run_scenario,
    scenario_from_seed,
)
from repro.fuzz.harness import SECRET_PATH, VICTIM_PACKAGE

pytestmark = pytest.mark.fuzz

#: Seeded-sweep budget; the CI fuzz lane raises this to 500.
SWEEP_N = int(os.environ.get("FUZZ_SWEEP", "40"))

_ATTACKERS = (
    interpreter.PACKAGE,
    exfil_browser.PACKAGE,
    leaky_provider.PACKAGE,
    launderer.PACKAGE,
)


def _vocabulary_scenario() -> List[Op]:
    """Every subject-taking op by every subject, in one fixed list.

    ``scenario_from_seed`` only hands each op to the subjects its attack
    chains use (no plain interpreter or browser, no delegate mule, no
    ``ReadSecret`` by a plain subject, ...). Here the victim and each
    attacker, first as a delegate of the victim and then plain, run the
    same block. A block ends by copying the secret to the clipboard and
    the next one starts by pasting and publishing it, so a delegate
    followed by its plain twin is a laundering chain that only the
    clipboard isolation stops."""
    spawns = [Spawn(VICTIM_PACKAGE)] + [
        spawn
        for package in _ATTACKERS
        for spawn in (Spawn(package, VICTIM_PACKAGE), Spawn(package))
    ]
    ops: List[Op] = list(spawns)
    for spawn in spawns:
        actor = spawn.key
        ops += [
            ClipPaste(actor),
            WriteExternal(actor, "loot"),
            ReadExternal(actor, "loot"),
            ProviderInsert(actor),
            ProviderQuery(actor),
            IngestDocument(actor, SECRET_PATH),
            ProviderFetch(actor, "secret.txt"),
            RunScript(actor, f"read {SECRET_PATH}\nexfil loot\nclip-copy"),
            BrowseFile(actor, SECRET_PATH),
            ReadSecret(actor),
            ClipCopy(actor),
        ]
    return ops


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------


def test_vocabulary_scenario_is_clean_and_sharp():
    """Clean on Maxoid; with the planted clipboard bug each of the 4
    plain attackers pastes what its delegate twin copied and makes two
    public writes from it (the publish and the script's exfil); stock
    Android breaks S1 and S3."""
    ops = _vocabulary_scenario()

    clean = run_scenario(ops)
    assert "skip" not in {outcome for _, outcome in clean.outcomes}
    assert not clean.violations, clean.violation_renders()

    planted = run_scenario(ops, planted="clipboard-isolation")
    assert Counter(v.rule for v in planted.violations) == {"S1": 8}
    assert all(
        f"Priv({VICTIM_PACKAGE})" in render
        for render in planted.violation_renders()
    )

    stock = run_scenario(ops, maxoid=False)
    assert {v.rule for v in stock.violations} == {"S1", "S3"}


def test_seeded_sweep_is_clean_on_stock_maxoid():
    report = fuzz_sweep(SWEEP_N)
    assert not report.found, report.counterexample.render()
    assert report.examples == SWEEP_N


def test_scenarios_are_deterministic():
    for seed in (0, 7, 23):
        first = [op.render() for op in scenario_from_seed(seed)]
        second = [op.render() for op in scenario_from_seed(seed)]
        assert first == second


def test_runs_are_reproducible():
    ops = scenario_from_seed(11)
    assert (
        run_scenario(ops).fingerprint() == run_scenario(ops).fingerprint()
    )


# ---------------------------------------------------------------------------
# Sensitivity (planted-vulnerability positive controls)
# ---------------------------------------------------------------------------


def test_sweep_finds_shrinks_and_explains_planted_vulnerability():
    report = fuzz_sweep(SWEEP_N, planted="clipboard-isolation")
    assert report.found
    counterexample = report.counterexample

    # Shrunk: every remaining op is load-bearing.
    for index in range(len(counterexample.ops)):
        reduced = [
            op for i, op in enumerate(counterexample.ops) if i != index
        ]
        assert not run_scenario(
            reduced, planted="clipboard-isolation"
        ).violations, f"op {index} was removable"

    # The report names the rule and carries a lineage that reaches the
    # planted Priv source.
    rendered = counterexample.render()
    assert "S1" in rendered
    assert f"source /data/data/{VICTIM_PACKAGE}/secrets/secret.txt" in rendered
    assert f"[Priv({VICTIM_PACKAGE})]" in rendered

    # Byte-identical replay from the recorded seed alone.
    assert counterexample.replay().fingerprint() == counterexample.fingerprint


def test_planted_counterexample_is_minimal_laundering_chain():
    """The canonical planted bug shrinks to the exact 6-op chain:
    spawn delegate, read, copy, spawn mule, paste, publish."""
    report = fuzz_sweep(SWEEP_N, planted="clipboard-isolation")
    assert report.found
    renders = [op.render() for op in report.counterexample.ops]
    assert len(renders) <= 7
    assert any("read secret" in line for line in renders)
    assert any("clipboard copy" in line for line in renders)
    assert any("clipboard paste" in line for line in renders)
    assert any("publish" in line for line in renders)


def test_stock_android_baseline_is_loud():
    """Sanity: with Maxoid off entirely, the very first seeds violate —
    the corpus attacks are real and the monitor sees them."""
    report = fuzz_sweep(5, maxoid=False)
    assert report.found
