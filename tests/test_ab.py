"""The end-to-end A/B gate (``benchmarks/ab.py``), judged on synthetic runs.

Every case builds per-run results in the shape ``e2ebench/run.py`` writes
and feeds them to the verdict; nothing here launches a benchmark run.
"""

import json

from benchmarks.ab import contract, record, verdict

BENCH = contract()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BASE = {"ops_per_s": 1000.0, "op_p50_ms": 1.0, "op_p99_ms": 2.0, "setup_s": 0.02,
        "peak_rss_mb": 40.0}
#: Run-to-run noise: ten distinct offsets, so the parent's IQR is non-zero.
NOISE = [-0.02, 0.01, -0.01, 0.015, 0.0, -0.005, 0.02, 0.005, -0.015, 0.01]


def result(scale=None, failed=0, digest="d0"):
    scale = scale or {}
    return {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "output_digest": digest,
        "metrics": {
            m["name"]: {"value": BASE[m["name"]] * scale.get(m["name"], 1.0), "unit": m["unit"]}
            for m in BENCH["end_to_end"]
        },
    }


def trace(**self_ms):
    layers = {"am": 0.1, "aufs": 0.3, "sql": 0.05, **self_ms}
    return {"correct": True, "attempted": 200, "failed": 0, "output_digest": "t",
            "all_metrics": {f"{layer}.self_ms_per_op": ms for layer, ms in layers.items()}}


def sides(change=lambda i, noise: {}, **change_run):
    """Ten pairs of one workload: the parent with noise on every metric,
    the change with the same noise unless ``change`` rescales it."""
    parent = [result({m: 1 + n for m in BASE}) for n in NOISE]
    changed = [
        result({m: (1 + n) * change(i, n).get(m, 1.0) for m in BASE}, **change_run)
        for i, n in enumerate(NOISE)
    ]
    return {"parent": parent, "change": changed}


def judge(workload_sides=None, change_trace=None):
    runs = {w: sides() for w in WORKLOADS}
    runs.update(workload_sides or {})
    traces = {w: {"parent": trace(), "change": trace()} for w in WORKLOADS}
    if change_trace:
        traces["delegate_invoke"]["change"] = change_trace
    return verdict(BENCH, runs, traces)


def test_identical_sides_pass():
    code, lines, entry = judge()
    assert code == 0
    assert entry["verdict"] == "pass" and entry["failures"] == []
    assert set(entry["verdicts"].values()) == {"flat"}
    assert all(entry["digests_equal"].values())
    assert not any(line.startswith("FAILED") for line in lines)


def test_metric_beyond_its_bound_fails_naming_workload_metric_and_layer():
    slower = sides(lambda i, n: {"op_p50_ms": 1.3})  # bound 20%
    code, lines, entry = judge({"delegate_invoke": slower}, trace(aufs=0.5, am=0.11))
    assert code == 1
    assert entry["verdicts"]["delegate_invoke/op_p50_ms"] == "REGRESSED"
    [failure] = entry["failures"]
    assert "delegate_invoke op_p50_ms" in failure and "layer aufs +0.2000" in failure
    assert any("REGRESSED" in line and "delegate_invoke/op_p50_ms" in line for line in lines)


def test_higher_is_better_metrics_regress_downwards_only():
    code, _, entry = judge({"sweep": sides(lambda i, n: {"ops_per_s": 0.75})})
    assert code == 1 and entry["verdicts"]["sweep/ops_per_s"] == "REGRESSED"
    code, _, entry = judge({"sweep": sides(lambda i, n: {"ops_per_s": 1.5})})
    assert code == 0 and entry["verdicts"]["sweep/ops_per_s"] == "gain"


def test_worse_within_the_bound_is_flat():
    code, _, entry = judge({"cow_read": sides(lambda i, n: {"op_p99_ms": 1.2})})  # bound 22%
    assert code == 0 and entry["verdicts"]["cow_read/op_p99_ms"] == "flat"


def test_a_rise_in_the_failed_op_share_fails():
    code, _, entry = judge({"cow_write": sides(failed=2)})
    assert code == 1
    assert any("cow_write failed-op share rose" in f for f in entry["failures"])
    assert any("cow_write: a change run is not correct" in f for f in entry["failures"])


def test_differing_output_digests_fail():
    code, _, entry = judge({"sweep": sides(digest="d1")})
    assert code == 1
    assert entry["digests_equal"]["sweep"] is False
    assert any("sweep output_digest differs" in f for f in entry["failures"])


def test_nine_wins_of_ten_beyond_the_iqr_is_a_gain_and_eight_is_flat():
    def faster(losses):
        return lambda i, n: {"op_p50_ms": 1.1 if i < losses else 0.9}

    _, _, entry = judge({"cow_read": sides(faster(1))})
    assert entry["wins"]["cow_read/op_p50_ms"] == 9
    assert entry["verdicts"]["cow_read/op_p50_ms"] == "gain"
    _, _, entry = judge({"cow_read": sides(faster(2))})
    assert entry["wins"]["cow_read/op_p50_ms"] == 8
    assert entry["verdicts"]["cow_read/op_p50_ms"] == "flat"


def test_nine_wins_inside_the_iqr_is_flat():
    _, _, entry = judge({"cow_read": sides(lambda i, n: {"op_p50_ms": 0.999 if i else 1.001})})
    assert entry["wins"]["cow_read/op_p50_ms"] == 9
    assert entry["verdicts"]["cow_read/op_p50_ms"] == "flat"


def test_each_run_appends_exactly_one_well_formed_entry(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    older = {"run": {"git_sha": "5d8b7f6"}, "ok": True}
    path.write_text(json.dumps([older]))
    for expected, workload_sides in ((2, None), (3, {"sweep": sides(digest="d1")})):
        _, _, measured = judge(workload_sides)
        record({"base": "b" * 40, "change": "c" * 40, "seed": 18, "pairs": 10,
                "seconds": 4.0, **measured}, path)
        history = json.loads(path.read_text())
        assert len(history) == expected and history[0] == older
        entry = history[-1]
        assert set(entry) >= {"base", "change", "seed", "pairs", "seconds", "medians", "wins",
                              "digests_equal", "layers", "verdict"}
        assert set(entry["medians"]) == {f"{w}/{m}" for w in WORKLOADS for m in BASE}
        assert set(entry["medians"]["sweep/op_p99_ms"]) >= {"parent", "change", "unit"}
        assert set(entry["layers"]["cow_read"]) == {"parent", "change"}
    assert [e.get("verdict") for e in history] == [None, "pass", "fail"]
