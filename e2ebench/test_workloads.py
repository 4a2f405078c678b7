import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from repro.kernel.proc import TaskContext

from e2ebench import workloads
from e2ebench.run import drive
from e2ebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Enough ops to reach each workload's periodic steps: a discard and a
#: commit, a planted control of each kind, a public-storage scan.
PREFIX = {"delegate_invoke": 60, "cow_read": 30, "cow_write": 55, "sweep": 50}


def _run(name, seed, at=None, corrupt=None):
    """Run a prefix; ``corrupt(workload, spec, raw)`` replaces op ``at``'s
    result as it leaves ``execute``."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    if corrupt is not None:
        execute = workload.execute
        calls = iter(range(10**9))

        def tampered(spec):
            raw = execute(spec)
            return corrupt(workload, spec, raw) if next(calls) == at else raw

        workload.execute = tampered
    return drive(workload, ops=PREFIX[name])


def _first(name, kind):
    """The index of the first op of ``kind`` (op choice does not depend on
    earlier results, so planning alone finds it)."""
    workload = WORKLOADS[name](1)
    workload.setup()
    return next(i for i in range(1000) if workload.plan(i)[0] == kind)


def _flagged(result, op, text):
    assert op in result.failed, result.problems
    assert any(text in p for p in result.problems), result.problems
    assert result.error_rate == len(result.failed) / result.ops > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_and_digest_other_seed_differs(name):
    first, again, other = _run(name, 1), _run(name, 1), _run(name, 2)
    assert not first.failed, first.problems
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert _plans(name, 1) == _plans(name, 1) != _plans(name, 2)


def _plans(name, seed):
    workload = WORKLOADS[name](seed)
    workload.setup()
    return [repr(workload.plan(i)) for i in range(20)]


def test_delegate_checks_flag_context_leaks_lost_commits_and_recents():
    def wrong_initiator(workload, spec, raw):
        invocation = raw["invocation"]
        app = invocation.process.context.app
        process = SimpleNamespace(context=TaskContext(app=app, initiator="com.example.other"))
        wrong = SimpleNamespace(target=invocation.target, process=process, result=invocation.result)
        return dict(raw, invocation=wrong)

    _flagged(_run("delegate_invoke", 1, 3, wrong_initiator), 3, "expected")

    def leak(workload, spec, raw):
        workload.observer.write_external("leak.txt", b"x " + workloads.MARKER)
        return raw

    _flagged(_run("delegate_invoke", 1, 10, leak), 49, "S1/S2")

    def lose_commit(workload, spec, raw):
        return dict(raw, extra=(raw["extra"][0], b"%PDF report"))

    op = _first("delegate_invoke", "dropbox_commit")
    _flagged(_run("delegate_invoke", 1, op, lose_commit), op, "U2")

    def keep_recents(workload, spec, raw):
        stale = workload.device.spawn(workloads.ADOBE, initiator=workloads.BROWSER)
        stale.prefs.put("recent_files", "leaflet.pdf")
        return raw

    op = _first("delegate_invoke", "incognito_download")
    _flagged(_run("delegate_invoke", 1, op, keep_recents), op, "S4")


def test_cow_read_check_flags_a_missing_row():
    def drop_row(workload, spec, raw):
        raw.rows = raw.rows[:-1] if raw.rows else [(0, "ghost", 1, "en", 0)]
        return raw

    _flagged(_run("cow_read", 1, 5, drop_row), 5, "differ")


def test_cow_write_checks_flag_rowcounts_lost_commits_and_discards():
    op = _first("cow_write", "update")
    _flagged(_run("cow_write", 1, op, lambda w, spec, raw: raw + 1), op, "rowcount")

    def no_commit(workload, spec, raw):
        # Report the commit as done after undoing it: drop the public
        # copies of the delegate's inserts.
        top = max(workload.public)
        for row in workload.owner.query(workload.words_uri).rows:
            if row[0] > top:
                workload.owner.delete(workload.words_uri.with_appended_id(row[0]))
        return raw

    _flagged(_run("cow_write", 1, 49, no_commit), 49, "owner view after commit")

    def no_discard(workload, spec, raw):
        workload.delegate.insert(workload.words_uri, workloads.ContentValues({"word": "stale"}))
        return raw

    _flagged(_run("cow_write", 1, 24, no_discard), 24, "delegate view after discard")


def test_sweep_checks_flag_missed_controls_and_false_alarms():
    def unplanted(workload, spec, raw):
        return workloads.run_scenario(workloads.scenario_from_seed(spec[1]))

    _flagged(_run("sweep", 1, 24, unplanted), 24, "not flagged")

    seed, planted = workloads.Sweep.FUZZ_CONTROL
    alarm = workloads.run_scenario(workloads.scenario_from_seed(seed), planted=planted)
    _flagged(_run("sweep", 1, 3, lambda w, spec, raw: alarm), 3, "unplanted")


def test_fails_without_the_system_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench",
        tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = ["e2ebench/run.py", "--workload", "sweep", "--seed", "1", "--trace", "0"]
    child = subprocess.run(
        [sys.executable, *command],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_prints_every_end_to_end_metric_with_its_unit(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    child = subprocess.run(
        [
            sys.executable, "e2ebench/run.py", "--workload", "delegate_invoke", "--seed", "7",
            "--seconds", "0.5", "--trace", "0", "--out", str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    expected = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
