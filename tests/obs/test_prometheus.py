"""Prometheus text export, latency summaries, and the ``capture()``
save/restore contract.

The exporter is checked line-by-line against the exposition format
(counter ``_total`` suffix, cumulative histogram buckets, name
sanitisation); ``capture()`` is checked for the regression where a nested
capture dropped the enclosing enable's span writer and ring capacity.
"""

import json

import pytest

from repro.obs import OBS
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


def test_export_is_deterministic_and_sorted():
    metrics = Metrics()
    metrics.count("b.second")
    metrics.count("a.first")
    text = metrics.to_prometheus_text()
    assert text.index("a_first_total") < text.index("b_second_total")
    assert text == metrics.to_prometheus_text()


# ----------------------------------------------------------------------
# capture() save/restore
# ----------------------------------------------------------------------

def test_capture_restores_prior_jsonl_path_and_ring_capacity(tmp_path):
    jsonl = str(tmp_path / "outer.jsonl")
    OBS.enable(ring_capacity=123)
    fh = open(jsonl, "w", encoding="utf-8")

    def writer(span):
        fh.write(json.dumps(span.to_dict()) + "\n")

    OBS.tracer.span_tap.add(writer)
    try:
        with OBS.capture(ring_capacity=999):
            assert OBS.tracer.ring.capacity == 999
        # The regression: restore used to re-enable with defaults,
        # silently dropping the writer and shrinking/growing the ring.
        assert OBS.enabled
        assert OBS.tracer.ring.capacity == 123
        with OBS.tracer.span("after.restore"):
            pass
    finally:
        OBS.tracer.span_tap.remove(writer)
        fh.close()
        OBS.disable()
        OBS.reset()
    lines = [json.loads(l) for l in open(jsonl) if l.strip()]
    assert any(rec["name"] == "after.restore" for rec in lines)


def test_capture_restores_prov_armed_state():
    OBS.enable()
    OBS.prov = True
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


def test_latency_summary_shapes_per_span_quantiles():
    from repro.obs import latency_summary

    with OBS.capture(profile=True) as obs:
        with OBS.tracer.span("cow.query"):
            pass
        section = latency_summary(obs.metrics.snapshot())
    assert set(section) == {"cow.query"}
    row = section["cow.query"]
    assert row["count"] == 1
    assert {"mean_ms", "p50_ms", "p95_ms", "p99_ms"} <= set(row)
