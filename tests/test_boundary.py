"""The ``@boundary`` primitive: disarmed cost, armed wiring and order."""

import inspect

import pytest

from repro.boundary import boundary, tag
from repro.faults import FAULTS, FaultPolicy, fail_nth
from repro.faults.plane import FAULT_POINTS
from repro.errors import InjectedFault
from repro.obs import ObsContext
from repro.sched import SCHED

POINT = "probe.op"


def _explode(*_args, **_kwargs):
    raise AssertionError("a hook ran on the disarmed path")


class _Recording(FaultPolicy):
    """Passes every consult and keeps the context it was handed."""

    describe = "recording"

    def __init__(self):
        self.contexts = []

    def decide(self, point, hit, ctx):
        self.contexts.append(dict(ctx))
        return None


class Probe:
    """A kernel-style object: an ``obs`` handle plus one boundary."""

    def __init__(self):
        self.obs = ObsContext(device_id="probe-dev")
        self.calls = []

    @boundary(
        POINT,
        attrs=lambda self, path, size=0: {"path": path},
        count="probe.ops",
        fault=lambda self, path, size=0: {"path": path},
        sched=lambda self, path, size=0: {"resource": f"file:{path}", "rw": "w"},
        done=lambda self, span, result: span.set(result=result),
    )
    def op(self, path, size=0):
        self.calls.append(path)
        if self.obs.enabled:
            with self.obs.tracer.span("probe.body"):
                pass
        return size * 2


class Disarmed:
    def __init__(self):
        self.obs = ObsContext(device_id="probe-dev")

    @boundary(
        POINT,
        attrs=_explode,
        count="probe.ops",
        fault=_explode,
        sched=_explode,
        done=_explode,
    )
    def op(self, path, size=0):
        return size * 2


class Spanless:
    def __init__(self):
        self.obs = ObsContext(device_id="probe-dev")
        self.done_spans = []

    @boundary(
        POINT,
        span=False,
        count="probe.resolves",
        done=lambda self, span, result: self.done_spans.append(span),
    )
    def resolve(self, path):
        return path.upper()


@pytest.fixture(autouse=True)
def probe_point(monkeypatch):
    monkeypatch.setitem(FAULT_POINTS, POINT, "boundary primitive test point")
    yield
    FAULTS.reset()


def test_decorated_method_is_a_plain_function_over_its_body():
    assert inspect.isfunction(Probe.op)
    assert Probe.op.__name__ == "op"
    probe = Probe()
    with probe.obs.capture() as obs:
        assert Probe.op.__wrapped__(probe, "/p", 2) == 4
        assert [span.name for span in obs.spans()] == ["probe.body"]


class Keywords:
    def __init__(self):
        self.obs = ObsContext(device_id="probe-dev")

    @boundary(
        POINT,
        attrs=lambda self, a, b=2, *, c=3: {"a": a, "b": b, "c": c},
        done=lambda self, span, result: span.set(result=result),
    )
    def op(self, a, b=2, *, c=3):
        return (a, b, c)


def test_wrapper_keeps_the_signature_defaults_and_keyword_only_args():
    probe = Keywords()
    assert inspect.signature(Keywords.op) == inspect.signature(Keywords.op.__wrapped__)
    calls = [((1,), {}), ((1, 5), {}), ((1,), {"c": 7}), ((), {"a": 1, "b": 5, "c": 7})]
    expected = [(1, 2, 3), (1, 5, 3), (1, 2, 7), (1, 5, 7)]
    assert [probe.op(*args, **kwargs) for args, kwargs in calls] == expected
    with probe.obs.capture() as obs:
        assert [probe.op(*args, **kwargs) for args, kwargs in calls] == expected
        attrs = [span.attrs for span in obs.spans()]
    assert attrs == [
        {"a": a, "b": b, "c": c, "result": (a, b, c)} for a, b, c in expected
    ]
    with pytest.raises(TypeError):
        probe.op(1, 2, 3)


def test_variadic_bodies_are_rejected():
    with pytest.raises(TypeError, match="named parameters"):
        boundary(POINT)(lambda self, *args: None)


def test_disarmed_runs_no_hook_and_records_nothing():
    probe = Disarmed()
    assert probe.op("/a", size=3) == 6
    assert probe.op("/b", 4) == 8
    assert probe.obs.spans() == []
    assert probe.obs.metrics.snapshot().counters == {}
    assert FAULTS.schedule == []


def test_armed_span_count_done_and_fault_context():
    probe = Probe()
    policy = _Recording()
    FAULTS.arm(POINT, policy)
    with probe.obs.capture() as obs:
        assert probe.op("/data/x", size=5) == 10
        spans = {span.name: span for span in obs.spans()}
        counters = obs.metrics.snapshot().counters
    span = spans[POINT]
    assert span.status == "ok"
    assert span.attrs == {"path": "/data/x", "result": 10}
    assert span.device_id == "probe-dev"
    assert spans["probe.body"].parent_id == span.span_id
    assert counters == {"probe.ops": 1}
    assert policy.contexts == [{"path": "/data/x", "device_id": "probe-dev"}]
    assert FAULTS.schedule == [(1, POINT, "pass")]


def test_faults_armed_obs_off_consults_without_span_hooks():
    probe = Probe()
    policy = _Recording()
    FAULTS.arm(POINT, policy)
    assert probe.op("/y") == 0
    assert policy.contexts == [{"path": "/y", "device_id": "probe-dev"}]
    assert probe.obs.spans() == []
    assert probe.obs.metrics.snapshot().counters == {}


def test_spanless_boundary_counts_without_a_span():
    probe = Spanless()
    with probe.obs.capture() as obs:
        assert probe.resolve("/z") == "/Z"
        assert obs.spans() == []
        assert obs.metrics.snapshot().counters == {"probe.resolves": 1}
    assert probe.done_spans == [None]


@pytest.mark.recorder
def test_order_is_span_then_fault_then_yield_then_body():
    """From the flight recorder: the fault consult and the scheduler's
    resumption at the boundary's yield point come first, in that order;
    the body's child span closes next, the boundary span last (spans are
    recorded as they close), so both consults ran inside the span."""
    probe = Probe()
    FAULTS.arm(POINT, fail_nth(99))
    with probe.obs.capture() as obs:
        recorder = obs.recorder.arm()
        try:
            SCHED.run({"task": lambda: probe.op("/o")}, seed=0)
        finally:
            recorder.disarm()
        events = [(e.plane, e.name, e.detail) for e in recorder.events()]
    assert events == [
        ("sched", "decision", "task @ start"),
        ("fault", POINT, "pass"),
        ("sched", "decision", f"task @ {POINT}"),
        ("span", "probe.body", "ok"),
        ("span", POINT, "ok"),
    ]


@pytest.mark.recorder
def test_fired_fault_closes_an_errored_span_before_the_body():
    probe = Probe()
    FAULTS.arm(POINT, fail_nth(1))
    with probe.obs.capture() as obs:
        recorder = obs.recorder.arm()
        try:
            with pytest.raises(InjectedFault):
                probe.op("/f", size=1)
        finally:
            recorder.disarm()
        events = [(e.plane, e.name, e.detail) for e in recorder.events()]
        (span,) = obs.spans()
        counters = obs.metrics.snapshot().counters
    assert events == [
        ("fault", POINT, "raise:InjectedFault"),
        ("span", POINT, "error"),
    ]
    assert span.attrs == {"path": "/f", "error": "InjectedFault"}
    assert counters == {"probe.ops": 1}
    assert probe.calls == []


def test_tag_sets_attrs_only_on_the_named_open_span():
    obs = ObsContext(device_id="probe-dev")
    with obs.capture():
        with obs.tracer.span("outer") as outer:
            tag(obs, "outer", target="t")
            tag(obs, "other", ignored=True)
    assert outer.attrs == {"target": "t"}
