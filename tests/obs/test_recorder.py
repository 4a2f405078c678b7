"""Flight recorder & causal timeline: gates, ring, triggers, replay.

The acceptance properties pinned here:

- **zero cost when disarmed** — a disarmed recorder subscribes to no tap
  on any plane (tracer, fault plane, scheduler, audit log) and its
  ``record()`` is a pure no-op; arm/disarm round-trips leave every
  tap exactly as found;
- **bounded ring** — overflow evicts oldest-first, counts into
  ``recorder.evicted``, and the counter surfaces as
  ``recorder_evicted_total`` in per-device Prometheus text;
- **capture() hygiene** — the recorder arm-state survives a nested
  ``OBS.capture`` block (an armed recorder left untouched by the block
  keeps its ring, one armed inside the block cannot leak out);
- **trigger matrix** — violation / delegate-timeout (audit tap),
  deadlock (scheduler trigger tap), crash-recovery (``Device.recover``),
  counterexample (fuzz drivers) and manual seals all produce dumps;
- **byte-identity** — a sealed counterexample replays to its anchor with
  the same events digest and the same schedule digest, for both the
  sequential driver and the interleaved race driver.
"""

import json

import pytest

from repro import AndroidManifest, Device
from repro.core.audit import AuditLog
from repro.faults import FAULTS, fail_nth
from repro.obs import OBS, ObsContext
from repro.obs.artifacts import load_blackbox, write_blackbox
from repro.obs.export import BASE_APP_UID
from repro.obs.recorder import (
    SEAL_TRIGGERS,
    BlackBox,
    Event,
    events_digest,
)
from repro.obs.timeline import (
    main as timeline_main,
    merge_events,
    parse_anchor,
    render_text,
    slice_around,
    timeline_json,
    to_perfetto,
)
from repro.sched import SCHED, DeadlockError, RWLock

pytestmark = pytest.mark.recorder

APP = "com.recorder.app"


# ----------------------------------------------------------------------
# Zero-cost-when-disarmed gate
# ----------------------------------------------------------------------


class TestZeroCostGate:
    def test_disarmed_record_is_a_pure_no_op(self):
        ctx = ObsContext(device_id="gate0")
        recorder = ctx.recorder
        assert not recorder.armed
        assert recorder.record("span", "vfs.write", "ok") is None
        assert recorder.events() == []
        assert recorder.seq == 0

    def test_arm_disarm_leaves_every_listener_list_as_found(self):
        ctx = ObsContext(device_id="gate1")
        audit = AuditLog()
        taps = {
            "span": (ctx.tracer.span_tap, "_on_span"),
            "consult": (ctx.faults.consult_tap, "_on_fault"),
            "decision": (SCHED.decision_tap, "_on_decision"),
            "trigger": (SCHED.trigger_tap, "_on_trigger"),
            "lock": (SCHED.lock_tap, "_on_lock"),
            "audit": (audit.entry_tap, "_on_audit"),
        }
        before = {name: list(tap) for name, (tap, _) in taps.items()}
        recorder = ctx.recorder.arm(audit_log=audit)
        for name, (tap, handler) in taps.items():
            assert getattr(recorder, handler) in tap, name
        recorder.disarm()
        for name, (tap, _) in taps.items():
            assert list(tap) == before[name], name

    def test_disarmed_device_workload_feeds_no_recorder_state(self):
        # A per-device context: the global OBS recorder legitimately
        # keeps its ring after a sealed postmortem elsewhere in the run.
        device = Device(maxoid_enabled=True, device_id="zerocost0")
        device.install(AndroidManifest(package=APP))
        api = device.spawn(APP)
        with device.obs.capture():
            api.write_internal("f.bin", b"x" * 64)
            api.sys.read_file(f"{api.internal_dir}/f.bin")
        recorder = device.obs.recorder
        assert recorder.events() == []
        assert recorder.seq == 0
        assert recorder.dumps == []

    def test_armed_recorder_sees_spans_and_audit_entries(self):
        device = Device(maxoid_enabled=True)
        device.install(AndroidManifest(package=APP))
        api = device.spawn(APP)
        with device.obs.capture():
            device.arm_flight_recorder()
            try:
                api.write_internal("g.bin", b"y" * 32)
                device.audit_log.record("recovery", "note", step=1)
                planes = {event.plane for event in device.obs.recorder.events()}
                names = {event.name for event in device.obs.recorder.events()}
            finally:
                device.obs.recorder.disarm()
        assert "span" in planes
        assert "audit" in planes
        assert "vfs.write" in names


# ----------------------------------------------------------------------
# The bounded ring and its eviction counter
# ----------------------------------------------------------------------


class TestRingEviction:
    def test_overflow_evicts_oldest_and_counts_into_metrics(self):
        ctx = ObsContext(device_id="ring0")
        recorder = ctx.recorder.arm(capacity=4)
        try:
            for index in range(10):
                recorder.record("span", f"op{index}")
        finally:
            recorder.disarm()
        events = recorder.events()
        assert [event.seq for event in events] == [7, 8, 9, 10]
        assert recorder.evicted == 6
        assert ctx.metrics.snapshot().counters["recorder.evicted"] == 6
        assert "recorder_evicted_total 6" in ctx.metrics.to_prometheus_text()

    def test_seal_metadata_records_eviction_count(self):
        ctx = ObsContext(device_id="ring1")
        recorder = ctx.recorder.arm(capacity=2)
        try:
            for _ in range(5):
                recorder.record("span", "op")
            box = recorder.seal()
        finally:
            recorder.disarm()
        assert box.metadata["evicted"] == 3


# ----------------------------------------------------------------------
# Event identity: counter-free lines, digests, dict round-trips
# ----------------------------------------------------------------------


class TestEventIdentity:
    def test_line_is_counter_free(self):
        event = Event(
            1, 0.0, "span", "vfs.write", "ok", attrs={"pid": 12345}, device_id="d0"
        )
        assert event.line() == "1 0 span vfs.write ok"
        assert "12345" not in event.line()

    def test_digest_prefix_matches_truncated_ring(self):
        one = Event(1, 0.0, "span", "a", "x")
        two = Event(2, 1.5, "fault", "vol.commit", "pass")
        assert events_digest((one, two)) != events_digest((one,))
        assert events_digest((one, two), upto=1) == events_digest((one,))

    def test_event_and_blackbox_dict_roundtrip(self):
        event = Event(3, 2.5, "lock", "acquire", "w:A by t1", attrs={"k": "v"})
        clone = Event.from_dict(event.to_dict())
        assert clone.line() == event.line()
        assert clone.attrs == event.attrs
        box = BlackBox(
            trigger="manual",
            device_id="d0",
            events=(event,),
            metadata={"note": "n"},
        )
        loaded = BlackBox.from_dict(box.to_dict())
        assert loaded.anchor_seq == 3
        assert loaded.events_digest() == box.events_digest()
        assert loaded.metadata["note"] == "n"


# ----------------------------------------------------------------------
# capture() hygiene: recorder arm-state
# ----------------------------------------------------------------------


class TestCaptureRestore:
    def test_untouched_block_keeps_outer_ring_intact(self):
        # The Device.recover(validate=True) regression: the validation
        # sweep runs inside a capture; re-arming on exit would wipe the
        # ring right before the crash-recovery seal.
        ctx = ObsContext(device_id="cap0")
        recorder = ctx.recorder.arm(capacity=64)
        try:
            recorder.record("span", "before-capture")
            with ctx.capture():
                pass
            assert recorder.armed
            assert [event.name for event in recorder.events()] == ["before-capture"]
        finally:
            recorder.disarm()

    def test_recorder_armed_inside_block_does_not_leak(self):
        ctx = ObsContext(device_id="cap1")
        with ctx.capture():
            ctx.recorder.arm(capacity=8)
            ctx.recorder.record("span", "inner")
        assert not ctx.recorder.armed
        assert ctx.tracer.span_tap == []
        assert ctx.recorder._on_fault not in ctx.faults.consult_tap

    def test_rearm_inside_block_restores_outer_config(self):
        ctx = ObsContext(device_id="cap2")
        ctx.recorder.arm(capacity=64)
        try:
            with ctx.capture():
                ctx.recorder.arm(capacity=8)
            assert ctx.recorder.armed
            assert ctx.recorder.arm_config["capacity"] == 64
        finally:
            ctx.recorder.disarm()


# ----------------------------------------------------------------------
# The trigger matrix
# ----------------------------------------------------------------------


class TestTriggers:
    def test_violation_audit_entry_autoseals(self):
        ctx = ObsContext(device_id="trig0")
        audit = AuditLog()
        recorder = ctx.recorder.arm(audit_log=audit)
        try:
            audit.record("violation", "S1 breached", rule="S1")
        finally:
            recorder.disarm()
        assert [box.trigger for box in recorder.dumps] == ["violation"]
        box = recorder.dumps[0]
        assert box.metadata["rule"] == "S1"
        assert box.events[-1].plane == "audit"
        assert box.events[-1].detail == "S1 breached"

    def test_timeout_audit_entry_seals_delegate_timeout(self):
        ctx = ObsContext(device_id="trig1")
        audit = AuditLog()
        recorder = ctx.recorder.arm(audit_log=audit)
        try:
            audit.record("timeout", "delegate hung")
        finally:
            recorder.disarm()
        assert [box.trigger for box in recorder.dumps] == ["delegate-timeout"]

    def test_other_audit_categories_do_not_seal(self):
        ctx = ObsContext(device_id="trig2")
        audit = AuditLog()
        recorder = ctx.recorder.arm(audit_log=audit)
        try:
            audit.record("recovery", "journal replayed")
        finally:
            recorder.disarm()
        assert recorder.dumps == []
        assert [event.name for event in recorder.events()] == ["recovery"]

    def test_deadlock_trigger_seals_with_schedule_context(self):
        ctx = ObsContext(device_id="trig4")
        recorder = ctx.recorder.arm()
        lock_a, lock_b = RWLock("A"), RWLock("B")

        def t1() -> None:
            with lock_a.write():
                SCHED.yield_point("t1-holds-A")
                with lock_b.write():
                    pass

        def t2() -> None:
            with lock_b.write():
                SCHED.yield_point("t2-holds-B")
                with lock_a.write():
                    pass

        try:
            with pytest.raises(DeadlockError):
                SCHED.run(
                    [("t1", t1), ("t2", t2)], replay=["t1", "t2", "t1", "t2"]
                )
        finally:
            recorder.disarm()
        assert not SCHED.enabled
        assert [box.trigger for box in recorder.dumps] == ["deadlock"]
        box = recorder.dumps[0]
        planes = {event.plane for event in box.events}
        assert "lock" in planes and "sched" in planes
        assert any(event.name == "trigger.deadlock" for event in box.events)
        assert any(event.vclock > 0 for event in box.events)
        assert recorder.decisions, "decision tap never fired"
        assert box.metadata["schedule_digest"] == recorder.schedule_digest()
        assert "deadlock" in box.metadata["report"]

    def test_crash_recovery_seals_and_keeps_pre_crash_events(self):
        device = Device(maxoid_enabled=True)
        device.install(AndroidManifest(package=APP))
        device.spawn(APP)
        recorder = device.arm_flight_recorder()
        try:
            recorder.record("span", "pre-crash-marker")
            device.recover(validate=True)
        finally:
            recorder.disarm()
        triggers = [box.trigger for box in recorder.dumps]
        assert triggers == ["crash-recovery"]
        box = recorder.dumps[0]
        assert "recovery" in box.metadata
        assert set(box.metadata["recovery"]) >= {
            "file_commits_replayed",
            "namespaces_rebuilt",
            "validation_violations",
        }
        # The validation sweep runs inside a capture; the ring (and the
        # pre-crash event) must survive it.
        assert any(event.name == "pre-crash-marker" for event in box.events)

    def test_manual_seal_and_max_dumps_cap(self):
        ctx = ObsContext(device_id="trig5")
        recorder = ctx.recorder.arm()
        try:
            recorder.record("span", "op")
            recorder.max_dumps = 2
            first = recorder.seal()
            second = recorder.seal("manual", note="second")
            third = recorder.seal()
        finally:
            recorder.disarm()
        assert first.trigger == "manual" and first.trigger in SEAL_TRIGGERS
        assert second.metadata["note"] == "second"
        assert third is None
        assert recorder.dumps_suppressed == 1
        assert len(recorder.dumps) == 2

    def test_fault_consults_are_recorded_with_device_id(self):
        device = Device(maxoid_enabled=True)
        device.install(AndroidManifest(package=APP))
        api = device.spawn(APP)
        recorder = device.arm_flight_recorder()
        try:
            FAULTS.arm("vfs.write", fail_nth(99))
            api.write_internal("h.bin", b"z")
        finally:
            recorder.disarm()
            FAULTS.reset()
        faults = [event for event in recorder.events() if event.plane == "fault"]
        assert faults, "no fault-plane consult recorded"
        assert any(event.name == "vfs.write" for event in faults)
        assert all(
            event.attrs.get("device_id") == device.obs.device_id
            for event in faults
            if "device_id" in event.attrs
        )
        assert any("device_id" in event.attrs for event in faults)


# ----------------------------------------------------------------------
# Black-box dump files
# ----------------------------------------------------------------------


def _sealed_box(device_id: str = "dump0") -> BlackBox:
    ctx = ObsContext(device_id=device_id)
    recorder = ctx.recorder.arm()
    try:
        recorder.record("span", "vfs.write", "ok", path="/data/f")
        recorder.record("fault", "vol.commit", "pass")
        recorder.record("audit", "violation", "S1 breached")
        return recorder.seal("manual", note="roundtrip")
    finally:
        recorder.disarm()


class TestBlackBoxArtifacts:
    def test_write_load_roundtrip(self, tmp_path):
        box = _sealed_box()
        path = str(tmp_path / "dump.jsonl")
        assert write_blackbox(path, box) == path
        loaded = load_blackbox(path)
        assert loaded.trigger == "manual"
        assert loaded.device_id == "dump0"
        assert loaded.anchor_seq == box.anchor_seq
        assert loaded.events_digest() == box.events_digest()
        assert [event.line() for event in loaded.events] == [
            event.line() for event in box.events
        ]
        assert loaded.metadata["note"] == "roundtrip"

    def test_tampered_dump_fails_digest_check(self, tmp_path):
        path = str(tmp_path / "tampered.jsonl")
        write_blackbox(path, _sealed_box())
        with open(path, "r", encoding="utf-8") as source:
            lines = source.read().splitlines()
        event = json.loads(lines[1])
        event["detail"] = "doctored"
        lines[1] = json.dumps(event, sort_keys=True)
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            load_blackbox(path)

    def test_non_blackbox_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-dump.jsonl")
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(json.dumps({"kind": "timeline"}) + "\n")
        with pytest.raises(ValueError, match="not a black-box dump"):
            load_blackbox(path)


# ----------------------------------------------------------------------
# The causal timeline
# ----------------------------------------------------------------------


def _two_device_events():
    d0 = [
        Event(1, 1.0, "span", "a0", device_id="d0"),
        Event(2, 3.0, "span", "a1", device_id="d0"),
    ]
    d1 = [
        Event(1, 2.0, "fault", "b0", device_id="d1"),
        Event(2, 3.0, "sched", "b1", device_id="d1"),
    ]
    return d0, d1


class TestTimeline:
    def test_merge_orders_by_vclock_then_device_then_seq(self):
        d0, d1 = _two_device_events()
        merged = merge_events(d1, d0)
        assert [(e.device_id, e.seq) for e in merged] == [
            ("d0", 1),
            ("d1", 1),
            ("d0", 2),
            ("d1", 2),
        ]

    def test_slice_around_window_and_unknown_anchor(self):
        d0, d1 = _two_device_events()
        merged = merge_events(d0, d1)
        window = slice_around(merged, ("d1", 1), window=1)
        assert [(e.device_id, e.seq) for e in window] == [
            ("d0", 1),
            ("d1", 1),
            ("d0", 2),
        ]
        with pytest.raises(KeyError):
            slice_around(merged, ("d9", 99))

    def test_parse_anchor(self):
        assert parse_anchor("device0:42") == ("device0", 42)
        with pytest.raises(ValueError):
            parse_anchor("no-seq")
        with pytest.raises(ValueError):
            parse_anchor("dev:notanumber")

    def test_render_text_marks_the_anchor(self):
        d0, _d1 = _two_device_events()
        rendered = render_text(d0, anchor=("d0", 2))
        lines = rendered.splitlines()
        assert lines[0].startswith("  ")
        assert lines[1].startswith(">")

    def test_timeline_json_shape(self):
        d0, d1 = _two_device_events()
        doc = timeline_json(merge_events(d0, d1))
        assert doc["kind"] == "timeline"
        assert doc["devices"] == ["d0", "d1"]
        assert len(doc["events"]) == 4

    def test_perfetto_pids_per_device_and_threads_per_plane(self):
        d0, d1 = _two_device_events()
        trace = to_perfetto(merge_events(d0, d1))
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 4
        pids = {e["pid"] for e in instants}
        assert len(pids) == 2 and min(pids) == BASE_APP_UID
        process_names = {
            m["args"]["name"]
            for m in trace["traceEvents"]
            if m["ph"] == "M" and m["name"] == "process_name"
        }
        assert process_names == {"d0", "d1"}
        # vclock present: timestamps are virtual-clock microseconds.
        assert {e["ts"] for e in instants} == {1000.0, 2000.0, 3000.0}

    def test_perfetto_falls_back_to_seq_without_a_clock(self):
        events = [Event(1, 0.0, "span", "a"), Event(2, 0.0, "span", "b")]
        trace = to_perfetto(events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["ts"] for e in instants] == [1.0, 2.0]

    def test_cli_merges_dumps_and_slices_around_anchor(self, tmp_path, capsys):
        dump0 = str(tmp_path / "d0.jsonl")
        dump1 = str(tmp_path / "d1.jsonl")
        write_blackbox(dump0, _sealed_box("cli0"))
        write_blackbox(dump1, _sealed_box("cli1"))
        assert timeline_main([dump0, dump1]) == 0
        out = capsys.readouterr().out
        assert "6 event(s) from 2 device(s)" in out
        assert "trigger=manual" in out

        out_path = str(tmp_path / "timeline.json")
        assert (
            timeline_main(
                [dump0, dump1, "--format", "json", "--out", out_path]
            )
            == 0
        )
        with open(out_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["devices"] == ["cli0", "cli1"]

        assert (
            timeline_main(
                [dump0, dump1, "--around", "cli1:2", "--window", "1"]
            )
            == 0
        )
        sliced = capsys.readouterr().out
        assert "> " in sliced

        perfetto_path = str(tmp_path / "timeline.perfetto.json")
        assert (
            timeline_main(
                [dump0, dump1, "--format", "perfetto", "--out", perfetto_path]
            )
            == 0
        )
        with open(perfetto_path, "r", encoding="utf-8") as fh:
            assert "traceEvents" in json.load(fh)

    def test_cli_errors_exit_2(self, tmp_path, capsys):
        assert timeline_main([str(tmp_path / "missing.jsonl")]) == 2
        dump = str(tmp_path / "d.jsonl")
        write_blackbox(dump, _sealed_box("cli2"))
        assert timeline_main([dump, "--around", "nope:999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_rejects_a_negative_window(self, tmp_path, capsys):
        dump = str(tmp_path / "d.jsonl")
        write_blackbox(dump, _sealed_box("cli3"))
        assert timeline_main([dump, "--around", "cli3:1", "--window", "-1"]) == 2
        captured = capsys.readouterr()
        assert "window must be >= 0" in captured.err
        assert captured.out == ""
