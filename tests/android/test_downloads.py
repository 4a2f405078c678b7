"""Downloads provider tests: public/volatile downloads, the delegate
network guard, background worker, notifications (paper 5.3, 6.2)."""

import pytest

from repro.android.content.downloads import (
    DOWNLOADS_URI,
    STATUS_ERROR_NETWORK,
    STATUS_SUCCESS,
)
from repro.android.content.provider import ContentValues
from repro import AndroidManifest

A = "com.app.initiator"
B = "com.app.helper"
HOST = "files.example.com"


@pytest.fixture
def env(device):
    class Nop:
        def main(self, api, intent):
            return None

    device.install(AndroidManifest(package=A), Nop())
    device.install(AndroidManifest(package=B), Nop())
    device.network.publish(HOST, "doc.bin", b"DOWNLOADED-CONTENT")
    return device


class TestPublicDownloads:
    def test_enqueue_and_fetch(self, env):
        api = env.spawn(A)
        download_id = api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin")
        assert env.run_downloads() == 1
        assert env.download_manager.succeeded(api.process, download_id)

    def test_file_lands_in_public_storage(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin")
        env.run_downloads()
        other = env.spawn(B)
        assert other.sys.read_file("/storage/sdcard/Download/doc.bin") == b"DOWNLOADED-CONTENT"

    def test_notification_posted(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin")
        env.run_downloads()
        note = env.downloads.notifications[-1]
        assert note.title == "doc.bin"
        assert not note.is_volatile

    def test_missing_resource_marks_network_error(self, env):
        api = env.spawn(A)
        download_id = api.enqueue_download(f"https://{HOST}/ghost.bin", "ghost.bin")
        env.run_downloads()
        assert env.download_manager.status(api.process, download_id) == STATUS_ERROR_NETWORK

    def test_open_downloaded_file_via_provider(self, env):
        api = env.spawn(A)
        download_id = api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin")
        env.run_downloads()
        data = env.download_manager.open_downloaded_file(api.process, download_id)
        assert data == b"DOWNLOADED-CONTENT"

    def test_headers_stored(self, env):
        api = env.spawn(A)
        api.enqueue_download(
            f"https://{HOST}/doc.bin", "doc.bin", headers={"X-Auth": "token"}
        )
        rows = env.downloads.proxy.query("request_headers", None).rows
        assert any("X-Auth" in row for row in rows)


class TestVolatileDownloads:
    def test_volatile_download_succeeds(self, env):
        api = env.spawn(A)
        download_id = api.enqueue_download(
            f"https://{HOST}/doc.bin", "doc.bin", volatile=True
        )
        assert env.run_downloads() == 1
        assert env.download_manager.status(api.process, download_id, volatile=True) == STATUS_SUCCESS

    def test_volatile_file_invisible_publicly(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        other = env.spawn(B)
        assert not other.sys.exists("/storage/sdcard/Download/doc.bin")

    def test_volatile_record_invisible_publicly(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        other = env.spawn(B)
        assert other.query(DOWNLOADS_URI).rows == []

    def test_volatile_file_visible_to_initiators_delegates(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        delegate = env.spawn(B, initiator=A)
        assert delegate.sys.read_file("/storage/sdcard/Download/doc.bin") == b"DOWNLOADED-CONTENT"

    def test_volatile_file_visible_to_initiator_under_tmp(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        assert api.sys.read_file("/storage/sdcard/tmp/Download/doc.bin") == b"DOWNLOADED-CONTENT"

    def test_volatile_record_visible_to_delegates(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        delegate = env.spawn(B, initiator=A)
        rows = delegate.query(DOWNLOADS_URI).rows
        assert len(rows) == 1

    def test_clear_volatile_discards_everything(self, env):
        api = env.spawn(A)
        api.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin", volatile=True)
        env.run_downloads()
        env.clear_volatile(A)
        delegate = env.spawn(B, initiator=A)
        assert delegate.query(DOWNLOADS_URI).rows == []
        assert not delegate.sys.exists("/storage/sdcard/Download/doc.bin")


class TestDelegateGuard:
    def test_delegate_fetch_request_gets_network_error(self, env):
        delegate = env.spawn(B, initiator=A)
        download_id = delegate.enqueue_download(f"https://{HOST}/doc.bin", "doc.bin")
        # The record exists (in Vol(A)) but is marked failed; the worker
        # never fetches it.
        assert env.run_downloads() == 0
        status = env.download_manager.status(delegate.process, download_id)
        assert status == STATUS_ERROR_NETWORK

    def test_delegate_may_record_existing_file_metadata(self, env):
        delegate = env.spawn(B, initiator=A)
        values = ContentValues({"title": "existing", "_data": "/storage/sdcard/x", "status": 200})
        uri = delegate.insert(DOWNLOADS_URI, values)
        assert uri.row_id >= 10_000_001
        rows = delegate.query(DOWNLOADS_URI).rows
        assert len(rows) == 1

    def test_delegate_metadata_stays_volatile(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.insert(
            DOWNLOADS_URI,
            ContentValues({"title": "note", "_data": "/storage/sdcard/x", "status": 200}),
        )
        assert env.spawn(B).query(DOWNLOADS_URI).rows == []
