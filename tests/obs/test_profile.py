"""The ``OBS.profile`` sub-switch and the critical-path analyzer.

Hand-built span trees with pinned start/end times make the critical-path
assertions exact; the switch tests exercise the real tracer through
``OBS.capture(profile=True)``.
"""

import pytest

from repro import AndroidManifest, Device
from repro.obs import (
    OBS,
    SPAN_LATENCY_PREFIX,
    ProfileRecorder,
    critical_path,
    critical_paths,
    latency_summary,
)
from repro.obs.metrics import Metrics
from repro.obs.trace import Span, build_trees

pytestmark = pytest.mark.trace

APP = "com.obs.profile"


def make_span(span_id, parent_id, name, start_ms, end_ms, **attrs):
    """A finished span with pinned times (ms scale for readability)."""
    span = Span(
        tracer=None, trace_id=1, span_id=span_id, parent_id=parent_id,
        name=name, attrs=attrs,
    )
    span.start = start_ms / 1000.0
    span.end = end_ms / 1000.0
    return span


def delegate_invocation_tree():
    """A synthetic AM -> zygote/vfs -> aufs chain, 10 ms total:
    am self 3, zygote self 2, vfs self 1, aufs self 4."""
    spans = [
        make_span(3, 2, "aufs.copy_up", 5.0, 9.0),
        make_span(2, 1, "vfs.open", 4.0, 9.0, ctx="b^a"),
        make_span(4, 1, "zygote.fork", 1.0, 3.0),
        make_span(1, None, "am.start_activity", 0.0, 10.0, ctx="b^a"),
    ]
    trees = build_trees(spans)
    assert len(trees) == 1
    return trees[0]


# ----------------------------------------------------------------------
# critical_path()
# ----------------------------------------------------------------------

def test_critical_path_layer_attribution_is_exact():
    report = critical_path(delegate_invocation_tree())
    assert report.total_ms == pytest.approx(10.0)
    assert report.by_layer == {
        "am": pytest.approx(3.0),
        "zygote": pytest.approx(2.0),
        "vfs": pytest.approx(1.0),
        "aufs": pytest.approx(4.0),
    }
    assert report.attributed_ms == pytest.approx(10.0)
    assert report.coverage == pytest.approx(1.0)
    assert report.hottest_layer == "aufs"


def test_critical_path_follows_the_most_expensive_child():
    report = critical_path(delegate_invocation_tree())
    # vfs.open (5 ms) beats zygote.fork (2 ms) at the first level.
    assert [step.name for step in report.steps] == [
        "am.start_activity", "vfs.open", "aufs.copy_up",
    ]
    assert report.steps[-1].self_ms == pytest.approx(4.0)
    assert report.hot_chain_ms == pytest.approx(8.0)  # 3 + 1 + 4


def test_critical_path_single_span_tree():
    tree = build_trees([make_span(1, None, "vfs.read", 0.0, 2.0)])[0]
    report = critical_path(tree)
    assert report.coverage == pytest.approx(1.0)
    assert len(report.steps) == 1
    assert "vfs.read" in report.render()


def test_critical_paths_sorts_slowest_first_and_filters():
    trees = build_trees([
        make_span(1, None, "am.fast", 0.0, 1.0),
        make_span(2, None, "am.slow", 2.0, 9.0),
    ])
    reports = critical_paths(trees, min_ms=0.5)
    assert [r.root for r in reports] == ["am.slow", "am.fast"]
    assert critical_paths(trees, min_ms=5.0)[0].root == "am.slow"
    assert len(critical_paths(trees, min_ms=5.0)) == 1


# ----------------------------------------------------------------------
# The OBS.profile switch
# ----------------------------------------------------------------------

@pytest.fixture
def api():
    device = Device(maxoid_enabled=True)
    device.install(AndroidManifest(package=APP), object())
    api = device.spawn(APP)
    api.sys.makedirs("/storage/sdcard/p")
    api.sys.write_file("/storage/sdcard/p/file.bin", b"x" * 512)
    return api


def test_profile_capture_records_latency_histograms(api):
    with OBS.capture(profile=True) as obs:
        assert OBS.profile
        for _ in range(5):
            api.sys.read_file("/storage/sdcard/p/file.bin")
        snapshot = obs.metrics.snapshot()
    summary = latency_summary(snapshot)
    assert "vfs.read" in summary and "vfs.open" in summary
    row = summary["vfs.read"]
    assert row["count"] == 5
    assert 0.0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
    # Switch and subscription are both gone after the capture.
    assert not OBS.profile
    assert OBS.profiler.on_span not in OBS.tracer.span_tap


def test_profile_off_records_no_latency_histograms(api):
    with OBS.capture() as obs:  # tracing on, profile off
        api.sys.read_file("/storage/sdcard/p/file.bin")
        snapshot = obs.metrics.snapshot()
    assert not any(
        name.startswith(SPAN_LATENCY_PREFIX) for name in snapshot.histograms
    ), "profile-off capture still produced lat.* histograms"


def test_capture_restores_profile_armed_state():
    OBS.enable()
    OBS.enable_profile()
    try:
        with OBS.capture():  # inner capture defaults profile off
            assert not OBS.profile
        assert OBS.profile, "outer profile arming lost across capture()"
        assert OBS.profiler.on_span in OBS.tracer.span_tap
    finally:
        OBS.disable()
        OBS.reset()
    assert not OBS.profile


def test_enable_profile_implies_enable_and_is_idempotent():
    assert not OBS.enabled
    OBS.enable_profile()
    try:
        assert OBS.enabled and OBS.profile
        OBS.enable_profile()
        assert OBS.tracer.span_tap.count(OBS.profiler.on_span) == 1
    finally:
        OBS.disable()
        OBS.reset()


def test_recorder_feeds_the_given_registry():
    metrics = Metrics()
    recorder = ProfileRecorder(metrics)
    recorder.on_span(make_span(1, None, "cow.query", 0.0, 2.0))
    recorder.on_span(make_span(2, None, "cow.query", 0.0, 4.0))
    snap = metrics.snapshot()
    hist = snap.histograms[SPAN_LATENCY_PREFIX + "cow.query"]
    assert hist.count == 2
    assert hist.total == pytest.approx(6.0)
    assert recorder.spans_seen == 2


def test_latency_summary_ignores_foreign_histograms():
    metrics = Metrics()
    metrics.observe("vfs.read.bytes", 100.0)
    metrics.observe(SPAN_LATENCY_PREFIX + "vfs.read", 1.0)
    summary = latency_summary(metrics.snapshot())
    assert list(summary) == ["vfs.read"]
