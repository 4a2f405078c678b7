"""Device facade and audit-module tests."""

import pytest

from repro.errors import IpcDenied
from repro import AndroidManifest
from repro.core.audit import (
    audit_observer,
    find_marker_in_files,
    leaked_off_device,
    readable_files,
)

A = "com.dev.a"
B = "com.dev.b"


class Nop:
    def main(self, api, intent):
        return None


@pytest.fixture
def env(device):
    device.install(AndroidManifest(package=A), Nop())
    device.install(AndroidManifest(package=B), Nop())
    return device


class TestDeviceFacade:
    def test_spawn_contexts(self, env):
        assert not env.spawn(A).is_delegate
        assert env.spawn(B, initiator=A).is_delegate

    def test_mount_table_rendering(self, env):
        delegate = env.spawn(B, initiator=A)
        table = env.mount_table_for(delegate.process)
        assert any("/storage/sdcard" in line for line in table)

    def test_clear_volatile_counts_across_stores(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_external("x.txt", b"1")
        from repro.android.content.provider import ContentValues
        from repro.android.uri import Uri

        delegate.insert(Uri.content("user_dictionary", "words"), ContentValues({"word": "w"}))
        assert env.clear_volatile(A) == 2

    def test_api_for_existing_process(self, env):
        process = env.zygote.fork_app(A)
        api = env.api_for(process)
        assert api.package == A

    def test_app_registry(self, env):
        app = Nop()
        env.install(AndroidManifest(package="com.dev.c"), app)
        assert env.app("com.dev.c") is app

    def test_maxoid_service_scopes_to_caller(self, env):
        """An app can clear only its own state via the maxoid service."""
        a = env.spawn(A)
        with pytest.raises(IpcDenied):
            env.binder.transact(a.process, "maxoid", "clear_volatile", {"package": B})
        # Its own state is fine.
        assert env.binder.transact(a.process, "maxoid", "clear_volatile", {}) == 0

    def test_delegate_may_not_clear_state(self, env):
        delegate = env.spawn(B, initiator=A)
        with pytest.raises(IpcDenied):
            env.binder.transact(delegate.process, "maxoid", "clear_volatile", {})

    def test_stock_device_has_no_maxoid_mounts(self, stock_device):
        stock_device.install(AndroidManifest(package=A), Nop())
        api = stock_device.spawn(A)
        assert api.process.namespace.mount_points() == ["/", "/storage/sdcard"]


class TestAudit:
    def test_readable_files_respects_views(self, env):
        a = env.spawn(A)
        a.write_external("pub.txt", b"public")
        a.write_internal("priv.txt", b"private")
        b = env.spawn(B)
        files = readable_files(b)
        assert "/storage/sdcard/pub.txt" in files
        assert f"/data/data/{A}/priv.txt" not in files

    def test_find_marker(self, env):
        a = env.spawn(A)
        a.write_external("note.txt", b"xx MARKER-123 yy")
        hits = find_marker_in_files(env.spawn(B), b"MARKER-123")
        assert hits == ["/storage/sdcard/note.txt"]

    def test_audit_observer_clean(self, env):
        report = audit_observer(env.spawn(B), b"MARKER-xyz")
        assert report.clean
        assert report.observer == B

    def test_audit_observer_detects_clipboard(self, env):
        env.spawn(A).clipboard_set("contains MARKER-clip here")
        report = audit_observer(env.spawn(B), b"MARKER-clip")
        assert report.clipboard_hit
        assert not report.clean

    def test_audit_observer_detects_provider_rows(self, env):
        from repro.android.content.provider import ContentValues
        from repro.android.uri import Uri

        env.spawn(A).insert(
            Uri.content("user_dictionary", "words"), ContentValues({"word": "MARKER-word"})
        )
        report = audit_observer(env.spawn(B), b"MARKER-word")
        assert report.provider_hits

    def test_leaked_off_device_via_sms(self, stock_device):
        stock_device.install(AndroidManifest(package=A), Nop())
        api = stock_device.spawn(A)
        api.send_sms("+1", "the MARKER-sms content")
        assert leaked_off_device(stock_device, b"MARKER-sms")

    def test_leaked_off_device_via_bluetooth(self, stock_device):
        stock_device.install(AndroidManifest(package=A), Nop())
        api = stock_device.spawn(A)
        api.bluetooth_send("dev", b"MARKER-bt payload")
        assert leaked_off_device(stock_device, b"MARKER-bt")

    def test_nothing_leaked_on_fresh_device(self, env):
        assert not leaked_off_device(env, b"MARKER-none")


class TestAuditLog:
    """The fault/recovery post-mortem log (crash-sweep satellite)."""

    def test_record_and_render(self):
        from repro.core.audit import AuditLog

        log = AuditLog()
        log.record("recovery", "replayed file commit", destination="/x")
        assert len(log) == 1
        line = log.render()
        assert "recovery: replayed file commit" in line and "'/x'" in line

    def test_ingest_faults_is_idempotent(self):
        import pytest as _pytest

        from repro.core.audit import AuditLog
        from repro.errors import InjectedFault
        from repro.faults import FaultPlane, fail_nth

        plane = FaultPlane()
        plane.arm("vfs.write", fail_nth(1))
        with _pytest.raises(InjectedFault):
            plane.hit("vfs.write", path="/p")
        log = AuditLog()
        assert log.ingest_faults(plane) == 1
        assert log.ingest_faults(plane) == 0  # same entries skipped
        (event,) = log.events("fault")
        assert event.details["point"] == "vfs.write"
        assert event.details["path"] == "/p"

    def test_device_recovery_actions_are_audited(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_external("doc.txt", b"payload")
        import pytest as _pytest

        from repro.faults import FAULTS, SimulatedCrash, crash_at

        FAULTS.arm("vol.commit.apply", crash_at())
        with _pytest.raises(SimulatedCrash):
            env.spawn(A).volatile.commit("/storage/sdcard/tmp/doc.txt")
        env.recover(validate=False)
        categories = {e.category for e in env.audit_log.events()}
        assert categories == {"fault", "recovery"}
        messages = " / ".join(e.message for e in env.audit_log.events())
        assert "crash at vol.commit.apply" in messages
        assert "replayed file commit" in messages
