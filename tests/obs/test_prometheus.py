"""Prometheus text export, BENCH_obs.json artifacts, and the
``capture()`` save/restore contract.

The exporter is checked line-by-line against the exposition format
(counter ``_total`` suffix, cumulative histogram buckets, name
sanitisation); ``capture()`` is checked for the regression where a nested
capture dropped the enclosing enable's jsonl path and ring capacity.
"""

import json

import pytest

from repro.obs import OBS
from repro.obs.artifacts import (
    BENCH_OBS_ENV,
    bench_json_target,
    layer_section,
    update_bench_json,
)
from repro.obs.metrics import DEFAULT_MS_BUCKETS, Metrics, _prom_name

pytestmark = pytest.mark.trace


# ----------------------------------------------------------------------
# to_prometheus_text()
# ----------------------------------------------------------------------

def test_empty_registry_exports_empty_text():
    assert Metrics().to_prometheus_text() == ""


def test_counters_gain_total_suffix_and_type_line():
    metrics = Metrics()
    metrics.count("vfs.reads", 3)
    text = metrics.to_prometheus_text()
    assert "# TYPE vfs_reads_total counter\n" in text
    assert "vfs_reads_total 3\n" in text
    assert text.endswith("\n")


def test_names_are_sanitized_to_the_legal_charset():
    assert _prom_name("aufs.copy-up/ms") == "aufs_copy_up_ms"
    assert _prom_name("2fast") == "_2fast"
    metrics = Metrics()
    metrics.count("binder.transactions-failed")
    assert "binder_transactions_failed_total 1" in metrics.to_prometheus_text()


def test_histogram_buckets_are_cumulative_and_end_at_inf():
    metrics = Metrics()
    hist = metrics.histogram("latency.ms", boundaries=(1.0, 5.0, 10.0))
    for value in (0.5, 0.7, 3.0, 20.0):
        hist.observe(value)
    text = metrics.to_prometheus_text()
    assert '# TYPE latency_ms histogram' in text
    assert 'latency_ms_bucket{le="1"} 2' in text
    assert 'latency_ms_bucket{le="5"} 3' in text
    assert 'latency_ms_bucket{le="10"} 3' in text
    assert 'latency_ms_bucket{le="+Inf"} 4' in text
    assert "latency_ms_sum 24.2" in text
    assert "latency_ms_count 4" in text


def test_gauges_render_integral_values_bare():
    metrics = Metrics()
    metrics.gauge("open.handles").set(7.0)
    assert "open_handles 7\n" in metrics.to_prometheus_text()


def test_export_is_deterministic_and_sorted():
    metrics = Metrics()
    metrics.count("b.second")
    metrics.count("a.first")
    text = metrics.to_prometheus_text()
    assert text.index("a_first_total") < text.index("b_second_total")
    assert text == metrics.to_prometheus_text()


# ----------------------------------------------------------------------
# Labels, HELP lines, and escaping
# ----------------------------------------------------------------------

def test_labels_attach_to_every_series_sorted_by_key():
    metrics = Metrics()
    metrics.count("vfs.reads", 2)
    metrics.gauge("open.handles").set(1.0)
    text = metrics.to_prometheus_text(labels={"zone": "eu", "device": "dev1"})
    assert 'vfs_reads_total{device="dev1",zone="eu"} 2' in text
    assert 'open_handles{device="dev1",zone="eu"} 1' in text


def test_histogram_le_label_comes_after_user_labels():
    metrics = Metrics()
    metrics.histogram("lat.op", boundaries=(1.0,)).observe(0.5)
    text = metrics.to_prometheus_text(labels={"device": "d"})
    assert 'lat_op_bucket{device="d",le="1"} 1' in text
    assert 'lat_op_bucket{device="d",le="+Inf"} 1' in text
    assert 'lat_op_sum{device="d"}' in text


def test_label_values_escape_quotes_backslashes_and_newlines():
    from repro.obs.metrics import escape_label_value

    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("two\nlines") == "two\\nlines"
    metrics = Metrics()
    metrics.count("c")
    text = metrics.to_prometheus_text(labels={"path": 'x\\y "z"\nw'})
    assert 'c_total{path="x\\\\y \\"z\\"\\nw"} 1' in text
    # The exposition stays one sample per line — the newline is escaped.
    assert len([l for l in text.splitlines() if l.startswith("c_total")]) == 1


def test_help_lines_precede_type_lines():
    metrics = Metrics()
    metrics.count("vfs.reads")
    text = metrics.to_prometheus_text(
        help_text={"vfs.reads": "reads through the\nsyscall layer"}
    )
    lines = text.splitlines()
    help_index = lines.index("# HELP vfs_reads_total reads through the\\nsyscall layer")
    type_index = lines.index("# TYPE vfs_reads_total counter")
    assert help_index == type_index - 1


def test_unlabeled_export_is_byte_identical_to_the_pre_label_format():
    metrics = Metrics()
    metrics.count("vfs.reads", 3)
    assert metrics.to_prometheus_text() == metrics.to_prometheus_text(labels={})
    assert "vfs_reads_total 3\n" in metrics.to_prometheus_text(labels=None)


# ----------------------------------------------------------------------
# BENCH_obs.json artifacts
# ----------------------------------------------------------------------

def test_bench_json_target_honours_the_env_var(monkeypatch):
    monkeypatch.delenv(BENCH_OBS_ENV, raising=False)
    assert bench_json_target() is None
    monkeypatch.setenv(BENCH_OBS_ENV, "0")
    assert bench_json_target() is None
    monkeypatch.setenv(BENCH_OBS_ENV, "1")
    assert bench_json_target() == "BENCH_obs.json"
    monkeypatch.setenv(BENCH_OBS_ENV, "/tmp/custom.json")
    assert bench_json_target() == "/tmp/custom.json"


def test_update_bench_json_merges_sections(tmp_path):
    target = tmp_path / "BENCH_obs.json"
    update_bench_json(str(target), "layers", {"vfs": {"self_ms": 1.0}})
    update_bench_json(str(target), "gate", {"disabled_pct": 0.5})
    update_bench_json(str(target), "layers", {"aufs": {"self_ms": 2.0}})
    data = json.loads(target.read_text())
    assert data["gate"] == {"disabled_pct": 0.5}
    assert data["layers"] == {"aufs": {"self_ms": 2.0}}  # section replaced


def test_layer_section_shapes_per_layer_self_times():
    with OBS.capture() as obs:
        with OBS.tracer.span("vfs.read", path="/x"):
            pass
        section = layer_section(obs.spans())
    assert "vfs" in section
    assert set(section["vfs"]) == {"self_ms", "fraction"}
    assert 0.0 <= section["vfs"]["fraction"] <= 1.0


# ----------------------------------------------------------------------
# capture() save/restore
# ----------------------------------------------------------------------

def test_capture_restores_prior_jsonl_path_and_ring_capacity(tmp_path):
    jsonl = str(tmp_path / "outer.jsonl")
    OBS.enable(jsonl_path=jsonl, ring_capacity=123)
    try:
        with OBS.capture(ring_capacity=999):
            assert OBS.tracer.ring.capacity == 999
        # The regression: restore used to re-enable with defaults,
        # silently dropping the sink and shrinking/growing the ring.
        assert OBS.enabled
        assert OBS.tracer.ring.capacity == 123
        with OBS.tracer.span("after.restore"):
            pass
    finally:
        OBS.disable()
        OBS.reset()
    lines = [json.loads(l) for l in open(jsonl) if l.strip()]
    assert any(rec["name"] == "after.restore" for rec in lines)


def test_capture_restores_prov_armed_state():
    OBS.enable()
    OBS.enable_prov()
    try:
        with OBS.capture():  # inner capture defaults prov off
            assert not OBS.prov
        assert OBS.prov, "outer prov arming lost across capture()"
    finally:
        OBS.disable()
        OBS.reset()
    assert not OBS.prov


def test_capture_from_disabled_leaves_everything_off():
    assert not OBS.enabled
    with OBS.capture(prov=True):
        assert OBS.enabled and OBS.prov
    assert not OBS.enabled and not OBS.prov


# ----------------------------------------------------------------------
# Per-span-name latency histograms (OBS.profile) in the export
# ----------------------------------------------------------------------

def test_profile_latency_histograms_are_exported():
    with OBS.capture(profile=True) as obs:
        for _ in range(3):
            with OBS.tracer.span("vfs.open", path="/x"):
                pass
        with OBS.tracer.span("aufs.copy_up"):
            pass
        text = obs.metrics.to_prometheus_text()
    assert "# TYPE lat_vfs_open histogram" in text
    assert "lat_vfs_open_count 3" in text
    assert 'lat_vfs_open_bucket{le="+Inf"} 3' in text
    assert "lat_aufs_copy_up_count 1" in text
    # Buckets are the default ms boundaries, cumulative to the count.
    first_edge = DEFAULT_MS_BUCKETS[0]
    assert f'lat_vfs_open_bucket{{le="{first_edge}"}}' in text


def test_latency_histograms_absent_when_profile_off():
    with OBS.capture() as obs:
        with OBS.tracer.span("vfs.open"):
            pass
        text = obs.metrics.to_prometheus_text()
    assert "lat_vfs_open" not in text


def test_latency_summary_is_a_bench_json_section(tmp_path):
    from repro.obs import latency_summary

    with OBS.capture(profile=True) as obs:
        with OBS.tracer.span("cow.query"):
            pass
        section = latency_summary(obs.metrics.snapshot())
    assert set(section) == {"cow.query"}
    row = section["cow.query"]
    assert row["count"] == 1
    assert {"mean_ms", "p50_ms", "p95_ms", "p99_ms"} <= set(row)
    target = tmp_path / "BENCH_obs.json"
    update_bench_json(str(target), "latency", section)
    data = json.loads(target.read_text())
    assert data["latency"]["cow.query"]["count"] == 1
    # Every artifact write stamps the run metadata.
    assert data["run"]["schema_version"] >= 1
    assert data["run"]["python"]
