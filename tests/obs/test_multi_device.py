"""Per-device context isolation, including under the deterministic
scheduler.

Two devices recording concurrently must keep disjoint tracers, metric
registries, fault planes, provenance actor stacks, sinks and listeners —
both when their flows run sequentially and when ``repro.sched``
interleaves them at every yield point (each task runs on its own thread,
and the span and actor stacks are per thread).
"""

from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import given, strategies as st

from repro.android.content.provider import ContentValues
from repro.android.intents import Intent
from repro.android.packages import AndroidManifest
from repro.android.uri import Uri
from repro.core.device import Device
from repro.errors import InjectedFault, ReproError
from repro.faults import FAULT_POINTS, FAULTS, fail_nth, fail_prob
from repro.obs import OBS, ObsContext
from repro.sched import SCHED

pytestmark = pytest.mark.trace

APP = "com.iso.app"
INITIATOR = "com.iso.initiator"


def _device(device_id: str) -> Device:
    device = Device(maxoid_enabled=True, device_id=device_id)
    device.install(AndroidManifest(package=APP))
    device.install(AndroidManifest(package=INITIATOR))
    return device


# ----------------------------------------------------------------------
# Plain (unscheduled) isolation
# ----------------------------------------------------------------------

def test_devices_record_into_disjoint_contexts():
    left = _device("left")
    right = _device("right")
    left.obs.enable()
    right.obs.enable()
    api = left.spawn(APP, initiator=INITIATOR)
    api.write_internal("only-left.bin", b"L")
    assert left.obs.tracer.started > 0
    assert right.obs.tracer.started == 0
    assert right.obs.metrics.snapshot().counters == {}
    assert all(s.device_id == "left" for s in left.obs.spans())
    left.obs.disable()
    right.obs.disable()


def test_bare_device_still_attaches_to_the_global_obs():
    device = Device(maxoid_enabled=True)
    assert device.obs is OBS
    assert device.zygote.obs is OBS
    assert device.binder.obs is OBS
    assert device.obs.faults is FAULTS


def test_forked_processes_inherit_the_device_context():
    device = _device("inherit")
    api = device.spawn(APP, initiator=INITIATOR)
    assert api.process.obs is device.obs
    # The syscall layer resolves through the process too.
    assert api.sys.obs is device.obs


def test_capture_on_one_device_does_not_disturb_the_other():
    left = _device("cap-left")
    right = _device("cap-right")
    right.obs.enable()
    right_before = right.obs.tracer.started
    with left.obs.capture(prov=True) as obs:
        api = left.spawn(APP, initiator=INITIATOR)
        api.write_internal("x.bin", b"x")
        assert obs.tracer.started > 0
    assert right.obs.tracer.started == right_before
    assert not left.obs.enabled
    assert right.obs.enabled  # untouched by the sibling's capture exit
    right.obs.disable()


# ----------------------------------------------------------------------
# Interleaved under the deterministic scheduler (satellite: concurrent
# capture isolation)
# ----------------------------------------------------------------------

def _traced_flow(device: Device, tag: str, steps: int = 4):
    """One task body: a traced, provenance-armed delegate flow that
    yields to the scheduler between operations."""

    def fn():
        api = device.spawn(APP, initiator=INITIATOR)
        for index in range(steps):
            SCHED.yield_point(f"{tag}.write.{index}")
            api.write_internal(f"{tag}-{index}.bin", b"d")
        return device.obs.tracer.started

    return fn


def test_interleaved_captures_keep_sinks_and_spans_separate():
    left = _device("sched-left")
    right = _device("sched-right")
    with left.obs.capture(prov=True) as lobs, right.obs.capture(prov=True) as robs:
        run = SCHED.run(
            {
                "left": _traced_flow(left, "L"),
                "right": _traced_flow(right, "R"),
            },
            seed=11,
        )
        assert run.errors == {}
        left_spans = lobs.spans()
        right_spans = robs.spans()
    assert left_spans and right_spans
    assert {s.device_id for s in left_spans} == {"sched-left"}
    assert {s.device_id for s in right_spans} == {"sched-right"}
    # Both flows ran to completion with their own tracers armed.
    assert run.results["left"] > 0 and run.results["right"] > 0
    # No half-open spans leaked out of either context.
    assert left.obs.tracer.current is None
    assert right.obs.tracer.current is None
    assert left.obs.provenance.current_actor() == (None, None)
    assert right.obs.provenance.current_actor() == (None, None)


def test_interleaved_runs_match_sequential_span_counts():
    """Interleaving must not lose or cross-record spans: each device
    records exactly what it records when it runs alone."""

    def span_names(spans):
        names = {}
        for span in spans:
            names[span.name] = names.get(span.name, 0) + 1
        return names

    solo = _device("solo-count")
    with solo.obs.capture() as obs:
        _traced_flow(solo, "S")()
        expected = span_names(obs.spans())

    left = _device("pair-left")
    right = _device("pair-right")
    with left.obs.capture() as lobs, right.obs.capture() as robs:
        SCHED.run(
            {
                "left": _traced_flow(left, "S"),
                "right": _traced_flow(right, "S"),
            },
            seed=3,
        )
        assert span_names(lobs.spans()) == expected
        assert span_names(robs.spans()) == expected


def test_scheduler_restores_the_driver_stacks_of_every_context():
    ctx = ObsContext(device_id="driver")
    ctx.enable()
    with ctx.tracer.span("driver.outer"):
        run = SCHED.run(
            {"t": lambda: SCHED.yield_point("t.only")},
            seed=0,
        )
        assert run.errors == {}
        # Back on the driver: the outer span is still the open one.
        assert ctx.tracer.current is not None
        assert ctx.tracer.current.name == "driver.outer"
    ctx.disable()


def test_every_root_is_recorded_under_interleaving():
    """Two tasks open roots that yield mid-span: every root is recorded
    and every child hangs under a root of its own task, whatever the
    schedule."""

    def recorded(seed):
        ctx = ObsContext(device_id=f"roots-{seed}")

        def flow(tag):
            def fn():
                for index in range(6):
                    with ctx.tracer.span(f"{tag}.root"):
                        SCHED.yield_point(f"{tag}.inside.{index}")
                        with ctx.tracer.span(f"{tag}.child"):
                            pass

            return fn

        with ctx.capture():
            SCHED.run({"a": flow("a"), "b": flow("b")}, seed=seed)
            spans = ctx.spans()
        roots = [span for span in spans if span.parent_id is None]
        names = {span.span_id: span.name for span in spans}
        cross_task = [
            span
            for span in spans
            if span.parent_id is not None and names[span.parent_id][0] != span.name[0]
        ]
        return len(roots), len(cross_task)

    assert [recorded(seed) for seed in range(3)] == [(12, 0)] * 3


# ----------------------------------------------------------------------
# One fault plane per device
# ----------------------------------------------------------------------

@pytest.mark.faults
def test_faults_armed_for_one_device_stay_on_that_device():
    left = _device("faults-left")
    right = _device("faults-right")
    writer = right.spawn(APP, initiator=INITIATOR)
    left.obs.faults.arm("sms.send", fail_nth(99))
    right.obs.faults.arm("vfs.write", fail_nth(1))
    recorder = left.arm_flight_recorder()
    try:
        with pytest.raises(InjectedFault):
            writer.write_internal("right.bin", b"r")
        box = recorder.seal()
    finally:
        recorder.disarm()
    assert len(right.obs.faults.injection_log) == 1
    assert [event for event in recorder.events() if event.plane == "fault"] == []
    assert box.metadata["armed_faults"] == {"sms.send": ["fail_nth(99)"]}
    assert box.metadata["fault_schedule"] == ""
    left.recover(validate=False)
    assert left.obs.faults.armed_points() == []
    assert right.obs.faults.armed_points() == ["vfs.write"]
    assert left.audit_log.events("fault") == []


# ----------------------------------------------------------------------
# Oracle: interleaving devices changes no device's evidence
# ----------------------------------------------------------------------

WORDS = Uri.content("user_dictionary", "words")
SHARED = "/storage/sdcard/shared.txt"
MAIN = "android.intent.action.MAIN"

#: The consults made inline in a method body rather than by ``@boundary``.
INLINE_POINTS = {
    "aufs.copy_up.publish",
    "am.delegate_bookkeeping",
    "vol.commit",
    "vol.commit.journal",
    "vol.commit.apply",
    "vol.commit.truncate",
    "cow.delta_commit",
    "cow.delta_commit.apply",
    "cow.delta_commit.truncate",
}
#: Where each device's seeded ``fail_prob`` policy is armed.
CHAOS_POINTS = ("vfs.write", "binder.transact", "vol.commit.apply", "cow.delta_commit.apply")


class _Nop:
    def main(self, api, intent):
        return None


def _oracle_device(device_id: str) -> Device:
    device = Device(maxoid_enabled=True, device_id=device_id)
    device.install(AndroidManifest(package=APP), _Nop())
    device.install(AndroidManifest(package=INITIATOR), _Nop())
    device.spawn(INITIATOR).sys.write_file(SHARED, b"public")
    return device


def _oracle_flow(device: Device):
    """One task body that reaches every inline consult site; injected
    errors end a step, not the flow."""

    def insert_words(delegate):
        for word in ("alpha", "beta", "gamma"):
            delegate.insert(WORDS, ContentValues({"word": word}))

    def commit_words():
        proxy = device.user_dictionary.proxy
        volatile = proxy.volatile_rows("words", INITIATOR)
        pk = [column.lower() for column in volatile.columns].index("_id")
        row_ids = [row[pk] for row in volatile.rows]
        if row_ids:
            proxy.commit_volatile("words", INITIATOR, row_ids[0])
            proxy.commit_volatile_batch("words", INITIATOR, row_ids[1:])

    def fn():
        delegate = device.spawn(APP, initiator=INITIATOR)
        steps = (
            lambda: delegate.write_external("doc.bin", b"volatile"),
            lambda: delegate.sys.append_file(SHARED, b" +delegate"),  # copy-up
            lambda: insert_words(delegate),
            lambda: device.spawn(INITIATOR).volatile.commit("/storage/sdcard/tmp/doc.bin"),
            commit_words,
            lambda: device.launch_as_delegate(APP, INITIATOR, Intent(MAIN)),
        )
        for index, step in enumerate(steps):
            SCHED.yield_point(f"{device.device_id}.step.{index}")
            try:
                step()
            except ReproError:
                pass

    return fn


def _oracle_run(seeds, sched_seed, interleave):
    """Per device: consult schedule, injection log, recorded fault events
    and span-name multiset, after running every flow alone or all of
    them interleaved."""
    devices = [_oracle_device(f"oracle-{index}") for index in range(len(seeds))]
    with ExitStack() as stack:
        for device, seed in zip(devices, seeds):
            stack.enter_context(device.obs.capture())
            stack.callback(device.arm_flight_recorder().disarm)
            for index, point in enumerate(CHAOS_POINTS):
                device.obs.faults.arm(point, fail_prob(0.2, seed=seed * 31 + index))
        flows = [(device.device_id, _oracle_flow(device)) for device in devices]
        if interleave:
            SCHED.run(flows, seed=sched_seed)
        else:
            for flow in flows:
                SCHED.run([flow], seed=sched_seed)
        return {
            device.device_id: (
                device.obs.faults.schedule_bytes(),
                device.obs.faults.injection_log,
                [
                    (event.name, event.detail)
                    for event in device.obs.recorder.events()
                    if event.plane == "fault"
                ],
                Counter(span.name for span in device.obs.spans()),
            )
            for device in devices
        }


@pytest.mark.faults
@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3),
    sched_seed=st.integers(0, 2**16),
)
def test_interleaving_devices_changes_no_device_evidence(seeds, sched_seed):
    with FAULTS.scope():
        # Armed but never firing: a consult that reaches the default
        # plane instead of its device's shows up in its schedule.
        for point in FAULT_POINTS:
            FAULTS.arm(point, fail_nth(2**31))
        alone = _oracle_run(seeds, sched_seed, interleave=False)
        together = _oracle_run(seeds, sched_seed, interleave=True)
        assert FAULTS.schedule == []
    assert together == alone
    for schedule, injections, _events, _spans in alone.values():
        consulted = {line.split()[1] for line in schedule.decode().splitlines()}
        if not injections:
            assert INLINE_POINTS <= consulted
