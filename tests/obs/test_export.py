"""Trace exporters: Chrome/Perfetto JSON and folded stacks.

The Chrome exporter is validated structurally (required keys, monotone
timestamps, proper nesting per pid/tid row) on both hand-built trees with
pinned times and a real traced delegate launch; the folded-stacks
exporter has an exact golden output.
"""

import json

import pytest

from repro import AndroidManifest, Device, Intent
from repro.obs import OBS
from repro.obs.export import (
    BASE_APP_UID,
    to_chrome_trace,
    to_folded_stacks,
    write_chrome_trace,
    write_folded_stacks,
)
from repro.obs.trace import Span, build_trees

pytestmark = pytest.mark.trace


def make_span(span_id, parent_id, name, start_ms, end_ms, **attrs):
    span = Span(
        tracer=None, trace_id=1, span_id=span_id, parent_id=parent_id,
        name=name, attrs=attrs,
    )
    span.start = start_ms / 1000.0
    span.end = end_ms / 1000.0
    return span


@pytest.fixture
def invocation_spans():
    """AM -> (zygote, vfs -> aufs) with pinned times and contexts."""
    return [
        make_span(4, 2, "aufs.copy_up", 5.0, 9.0),
        make_span(2, 1, "vfs.open", 4.0, 9.0),
        make_span(3, 1, "zygote.fork", 1.0, 3.0),
        make_span(1, None, "am.start_activity", 0.0, 10.0, ctx="b^a"),
    ]


def check_chrome_schema(document):
    """The structural contract Perfetto's JSON importer relies on."""
    assert isinstance(document["traceEvents"], list) and document["traceEvents"]
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    previous_ts = None
    for event in complete:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in event, f"event missing {key}: {event}"
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if previous_ts is not None:
            assert event["ts"] >= previous_ts, "events not in ts order"
        previous_ts = event["ts"]
    # Same-row events must nest or be disjoint — never partially overlap.
    by_row = {}
    for event in complete:
        by_row.setdefault((event["pid"], event["tid"]), []).append(event)
    for row_events in by_row.values():
        for i, a in enumerate(row_events):
            for b in row_events[i + 1:]:
                a0, a1 = a["ts"], a["ts"] + a["dur"]
                b0, b1 = b["ts"], b["ts"] + b["dur"]
                nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
                disjoint = a1 <= b0 or b1 <= a0
                assert nested or disjoint, f"partial overlap: {a} vs {b}"
    return complete


def test_chrome_trace_shape_and_mapping(invocation_spans):
    document = to_chrome_trace(invocation_spans)
    complete = check_chrome_schema(document)
    names = [event["name"] for event in complete]
    assert names == [
        "am.start_activity", "zygote.fork", "vfs.open", "aufs.copy_up",
    ]  # ts order
    # pid = synthetic app uid per inherited ctx; tid = layer row.
    am = next(e for e in complete if e["name"] == "am.start_activity")
    aufs = next(e for e in complete if e["name"] == "aufs.copy_up")
    assert am["pid"] == BASE_APP_UID
    assert aufs["pid"] == am["pid"], "descendant did not inherit the ctx pid"
    assert aufs["tid"] != am["tid"], "layers must land on different rows"
    assert am["args"]["ctx"] == "b^a"
    assert am["args"]["status"] == "ok"
    assert am["dur"] == pytest.approx(10_000.0)  # µs
    # Metadata labels both the process and every thread row.
    metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
    process_names = {e["args"]["name"] for e in metadata if e["name"] == "process_name"}
    thread_names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
    assert "b^a" in process_names
    assert {"am", "zygote", "vfs", "aufs"} <= thread_names


def test_chrome_trace_normalizes_ts_to_the_earliest_span(invocation_spans):
    document = to_chrome_trace(invocation_spans)
    complete = check_chrome_schema(document)
    assert min(event["ts"] for event in complete) == 0.0


def test_write_chrome_trace_round_trips_through_json(tmp_path, invocation_spans):
    path = tmp_path / "trace.json"
    written = write_chrome_trace(str(path), invocation_spans)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(written))
    check_chrome_schema(loaded)


def test_exporter_accepts_prebuilt_trees(invocation_spans):
    trees = build_trees(invocation_spans)
    assert to_chrome_trace(trees) == to_chrome_trace(invocation_spans)


# ----------------------------------------------------------------------
# Folded stacks (golden)
# ----------------------------------------------------------------------

def test_folded_stacks_golden(invocation_spans):
    # Self times: am 3 ms, zygote 2 ms, vfs 1 ms, aufs 4 ms -> µs weights.
    assert to_folded_stacks(invocation_spans) == [
        "am.start_activity 3000",
        "am.start_activity;vfs.open 1000",
        "am.start_activity;vfs.open;aufs.copy_up 4000",
        "am.start_activity;zygote.fork 2000",
    ]


def test_folded_stacks_merge_identical_stacks():
    spans = [
        make_span(2, 1, "vfs.open", 0.0, 1.0),
        make_span(3, 1, "vfs.open", 2.0, 4.0),
        make_span(1, None, "am.start_activity", 0.0, 5.0),
    ]
    lines = to_folded_stacks(spans)
    assert "am.start_activity;vfs.open 3000" in lines


def test_write_folded_stacks_golden_file(tmp_path, invocation_spans):
    path = tmp_path / "stacks.folded"
    write_folded_stacks(str(path), invocation_spans)
    assert path.read_text().splitlines() == to_folded_stacks(invocation_spans)
    # Every line parses as "<stack> <positive int>".
    for line in path.read_text().splitlines():
        stack, _, weight = line.rpartition(" ")
        assert stack and int(weight) > 0


# ----------------------------------------------------------------------
# A real traced delegate invocation exports cleanly
# ----------------------------------------------------------------------

APP = "com.export.app"
INITIATOR = "com.export.initiator"


class _Worker:
    def main(self, api, intent):
        api.write_external("out/x.bin", b"x" * 1024)
        return "done"


def test_real_delegate_invocation_exports(tmp_path):
    device = Device(maxoid_enabled=True)
    device.install(AndroidManifest(package=APP), _Worker())
    device.install(AndroidManifest(package=INITIATOR), _Worker())
    with OBS.capture(ring_capacity=65536, profile=True) as obs:
        device.launch_as_delegate(APP, INITIATOR, Intent(Intent.ACTION_VIEW))
        trees = obs.trees()
    document = to_chrome_trace(trees)
    complete = check_chrome_schema(document)
    layers = {event["cat"] for event in complete}
    assert {"am", "zygote", "vfs"} <= layers
    # The delegate context owns a pid row labelled with B^A.
    metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
    process_names = {e["args"]["name"] for e in metadata if e["name"] == "process_name"}
    assert any("^" in name for name in process_names), process_names
    stacks = to_folded_stacks(trees)
    assert stacks and all(int(line.rpartition(" ")[2]) > 0 for line in stacks)
