"""Tracer unit tests: nesting, the ring and the span tap, zero-cost
disabled path semantics."""

import json

import pytest

from repro.errors import FileNotFound
from repro.obs import OBS, ObsContext, build_trees
from repro.obs.trace import NOOP_SPAN, Tracer

pytestmark = pytest.mark.trace


def _jsonl_writer(fh):
    """A ``span_tap`` subscriber writing each finished span as a JSON line."""
    return lambda span: fh.write(json.dumps(span.to_dict(), default=str) + "\n")


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer()
        span = t.span("vfs.open", path="/x")
        assert span is NOOP_SPAN
        with span as s:
            s.set(anything="goes")
            s.event("noop.event")
        assert t.finished() == []

    def test_disabled_event_records_nothing(self):
        t = Tracer()
        t.event("am.something", detail=1)
        assert t.finished() == []


class TestNesting:
    def test_children_inherit_trace_and_parent(self, tracer):
        with tracer.span("am.start_activity") as parent:
            with tracer.span("zygote.fork") as child:
                with tracer.span("vfs.open") as grandchild:
                    pass
        spans = {s.name: s for s in tracer.finished()}
        assert spans["zygote.fork"].parent_id == spans["am.start_activity"].span_id
        assert spans["vfs.open"].parent_id == spans["zygote.fork"].span_id
        assert (
            spans["vfs.open"].trace_id
            == spans["zygote.fork"].trace_id
            == spans["am.start_activity"].trace_id
        )

    def test_siblings_share_parent(self, tracer):
        with tracer.span("am.start_activity"):
            with tracer.span("vfs.read"):
                pass
            with tracer.span("vfs.write"):
                pass
        roots = tracer.trees()
        assert len(roots) == 1
        assert [c.name for c in roots[0].children] == ["vfs.read", "vfs.write"]

    def test_separate_roots_get_separate_traces(self, tracer):
        with tracer.span("vfs.read"):
            pass
        with tracer.span("vfs.write"):
            pass
        a, b = tracer.finished()
        assert a.trace_id != b.trace_id

    def test_exception_marks_span_error(self, tracer):
        with pytest.raises(FileNotFound):
            with tracer.span("vfs.open", path="/missing"):
                raise FileNotFound("/missing")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.attrs["error"] == "FileNotFound"

    def test_event_is_zero_duration_child(self, tracer):
        with tracer.span("aufs.open"):
            tracer.event("aufs.copy_up", bytes=42)
        spans = {s.name: s for s in tracer.finished()}
        assert spans["aufs.copy_up"].parent_id == spans["aufs.open"].span_id

    def test_layer_is_prefix_before_dot(self, tracer):
        with tracer.span("cow.query") as span:
            pass
        assert span.layer == "cow"


class TestSinks:
    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        t = Tracer()
        t.enable(capacity=3)
        for i in range(5):
            with t.span(f"vfs.op{i}"):
                pass
        assert [s.name for s in t.finished()] == ["vfs.op2", "vfs.op3", "vfs.op4"]
        assert t.ring.dropped == 2

    def test_jsonl_sink_writes_one_valid_line_per_span(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        t = Tracer()
        t.enable()
        with open(path, "w", encoding="utf-8") as fh:
            t.span_tap.add(_jsonl_writer(fh))
            with t.span("am.start_activity", target="com.app"):
                with t.span("vfs.open", path="/f"):
                    pass
        t.disable()
        lines = [json.loads(line) for line in open(path)]
        assert [rec["name"] for rec in lines] == ["vfs.open", "am.start_activity"]
        assert lines[1]["attrs"]["target"] == "com.app"
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_enabling_twice_with_a_path_writes_each_span_once(self, tmp_path):
        path = str(tmp_path / "twice.jsonl")
        ctx = ObsContext(device_id="twice")
        with open(path, "w", encoding="utf-8") as fh:
            writer = _jsonl_writer(fh)
            for _ in range(2):  # enable() and Tap.add() are idempotent
                ctx.enable()
                ctx.tracer.span_tap.add(writer)
            with ctx.tracer.span("vfs.open"):
                pass
            ctx.disable()
        assert [json.loads(line)["name"] for line in open(path)] == ["vfs.open"]


class TestTreeBuilding:
    def test_orphans_promote_to_roots(self, tracer):
        with tracer.span("am.start_activity"):
            with tracer.span("vfs.open"):
                pass
        # Drop the parent, as ring eviction would.
        orphan = [s for s in tracer.finished() if s.name == "vfs.open"]
        roots = build_trees(orphan)
        assert len(roots) == 1 and roots[0].name == "vfs.open"

    def test_walk_and_find(self, tracer):
        with tracer.span("am.start_activity"):
            with tracer.span("vfs.open"):
                pass
            with tracer.span("vfs.open"):
                pass
        (root,) = tracer.trees()
        assert len(root.find("vfs.open")) == 2
        assert root.layers() == {"am", "vfs"}
        assert "am.start_activity" in root.render()


class TestObservabilityFacade:
    def test_capture_enables_then_restores(self):
        obs = ObsContext()
        assert not obs.enabled
        with obs.capture() as captured:
            assert captured is obs and obs.enabled
        assert not obs.enabled

    def test_capture_restores_prior_enabled_state(self):
        obs = ObsContext()
        obs.enable()
        with obs.capture():
            pass
        assert obs.enabled
        obs.disable()

    def test_capture_starts_from_clean_slate(self):
        obs = ObsContext()
        obs.enable()
        with obs.tracer.span("vfs.open"):
            pass
        obs.metrics.count("vfs.open")
        with obs.capture():
            assert obs.spans() == []
            assert obs.metrics.snapshot().counters == {}

    def test_global_instance_is_disabled_by_default(self):
        assert not OBS.enabled
