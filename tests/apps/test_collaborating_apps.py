"""Unit tests for the 'apps that need help': Dropbox, Google Drive, Email,
Browser, the wrapper app, and the app catalog."""

import pytest

from repro.errors import SecurityException
from repro.apps import (
    BrowserApp,
    DropboxApp,
    EmailApp,
    GoogleDriveApp,
    PdfViewerApp,
    WrapperApp,
    install_standard_apps,
    STANDARD_PACKAGES,
)
from repro import Device


@pytest.fixture
def env():
    device = Device(maxoid_enabled=True)
    device.network.publish("dropbox.com", "a.txt", b"file a")
    device.network.publish("dropbox.com", "b.txt", b"file b")
    device.network.publish("drive.google.com", "doc.txt", b"drive doc")
    device.network.publish("example.com", "dl.bin", b"downloaded")
    device.apps = install_standard_apps(device)
    return device


class TestCatalog:
    def test_all_standard_packages_install(self, env):
        assert len(env.apps) == len(STANDARD_PACKAGES) == 12
        for package in STANDARD_PACKAGES:
            assert env.packages.is_installed(package)

    def test_build_packages_are_unique(self):
        assert len({cls.BUILD.package for cls in STANDARD_PACKAGES.values()}) == 12


class TestDropbox:
    def test_sync_down_tracks_hashes(self, env):
        dbx = env.spawn(DropboxApp.BUILD.package)
        fetched = env.apps[DropboxApp.BUILD.package].sync_down(dbx, ["a.txt", "b.txt"])
        assert len(fetched) == 2
        # Nothing to sync right after a fetch.
        assert env.apps[DropboxApp.BUILD.package].auto_sync(dbx) == []

    def test_auto_sync_uploads_own_changes(self, env):
        app = env.apps[DropboxApp.BUILD.package]
        dbx = env.spawn(DropboxApp.BUILD.package)
        app.sync_down(dbx, ["a.txt"])
        dbx.sys.write_file("/storage/sdcard/Dropbox/a.txt", b"changed by user")
        assert app.auto_sync(dbx) == ["a.txt"]
        assert env.network.leaked_to_network(b"changed by user")

    def test_upload_from_tmp_commits(self, env):
        app = env.apps[DropboxApp.BUILD.package]
        dbx = env.spawn(DropboxApp.BUILD.package)
        app.sync_down(dbx, ["a.txt"])
        delegate = env.spawn(PdfViewerApp.BUILD.package, initiator=DropboxApp.BUILD.package)
        delegate.sys.write_file("/storage/sdcard/Dropbox/a.txt", b"delegate edit")
        committed = app.upload_from_tmp(dbx, "a.txt")
        assert dbx.sys.read_file(committed) == b"delegate edit"
        # After commit, auto_sync is already up to date.
        assert app.auto_sync(dbx) == []


class TestGoogleDrive:
    def test_cache_names_deterministic_but_opaque(self, env):
        app = env.apps[GoogleDriveApp.BUILD.package]
        drive = env.spawn(GoogleDriveApp.BUILD.package)
        path = app.fetch(drive, "doc.txt")
        assert "/cache/filecache/" in path
        assert not path.endswith("doc.txt")  # unguessable name

    def test_cached_file_world_readable(self, env):
        app = env.apps[GoogleDriveApp.BUILD.package]
        drive = env.spawn(GoogleDriveApp.BUILD.package)
        path = app.fetch(drive, "doc.txt")
        other = env.spawn(PdfViewerApp.BUILD.package)
        assert other.sys.read_file(path) == b"drive doc"


class TestEmail:
    def test_attachment_stored_privately(self, env):
        app = env.apps[EmailApp.BUILD.package]
        email = env.spawn(EmailApp.BUILD.package)
        attachment_id = app.receive_attachment(email, "x.pdf", b"%PDF x")
        assert email.sys.exists(
            f"/data/data/{EmailApp.BUILD.package}/attachments/{attachment_id}/x.pdf"
        )

    def test_provider_query_lists_attachments(self, env):
        app = env.apps[EmailApp.BUILD.package]
        email = env.spawn(EmailApp.BUILD.package)
        app.receive_attachment(email, "x.pdf", b"%PDF x")
        app.receive_attachment(email, "y.pdf", b"%PDF y")
        rows = email.query(app.attachment_uri(1))
        assert ("1" in str(rows.rows)) or rows.rows  # (_id, name) pairs
        assert len(rows.rows) == 2

    def test_open_attachment_without_grant_denied(self, env):
        app = env.apps[EmailApp.BUILD.package]
        email = env.spawn(EmailApp.BUILD.package)
        attachment_id = app.receive_attachment(email, "x.pdf", b"%PDF x")
        thief = env.spawn(PdfViewerApp.BUILD.package)
        with pytest.raises(SecurityException):
            thief.open_input(app.attachment_uri(attachment_id))

    def test_save_is_public(self, env):
        app = env.apps[EmailApp.BUILD.package]
        email = env.spawn(EmailApp.BUILD.package)
        attachment_id = app.receive_attachment(email, "flyer.pdf", b"%PDF f")
        path = app.save_attachment(email, attachment_id)
        from repro.android.uri import Uri

        rows = env.spawn(PdfViewerApp.BUILD.package).query(
            Uri.content("downloads", "all_downloads")
        ).rows
        assert rows  # the Downloads-provider metadata entry
        assert env.spawn(PdfViewerApp.BUILD.package).sys.exists(path)


class TestBrowser:
    def test_normal_browsing_records_history(self, env):
        app = env.apps[BrowserApp.BUILD.package]
        browser = env.spawn(BrowserApp.BUILD.package)
        app.browse(browser, "example.com", "dl.bin", incognito=False)
        assert app.history == ["example.com/dl.bin"]
        assert browser.prefs.get("history") == ["example.com/dl.bin"]

    def test_incognito_browsing_skips_persistent_history(self, env):
        app = env.apps[BrowserApp.BUILD.package]
        browser = env.spawn(BrowserApp.BUILD.package)
        app.browse(browser, "example.com", "dl.bin", incognito=True)
        assert app.history == []
        assert browser.prefs.get("history") is None
        assert app.incognito_history == ["example.com/dl.bin"]

    def test_open_url_from_qr(self, env):
        app = env.apps[BrowserApp.BUILD.package]
        browser = env.spawn(BrowserApp.BUILD.package)
        content = app.open_url_from_qr(browser, {"text": "example.com/dl.bin"})
        assert content == b"downloaded"


class TestWrapper:
    def test_vault_is_private(self, env):
        app = env.apps[WrapperApp.BUILD.package]
        wrapper = env.spawn(WrapperApp.BUILD.package)
        app.add_document(wrapper, "w.pdf", b"%PDF w")
        assert not env.spawn(PdfViewerApp.BUILD.package).sys.exists(
            "/storage/sdcard/wrapper-vault/w.pdf"
        )

    def test_end_session_clears_everything(self, env):
        app = env.apps[WrapperApp.BUILD.package]
        wrapper = env.spawn(WrapperApp.BUILD.package)
        app.add_document(wrapper, "w.pdf", b"%PDF w")
        app.open_with_real_app(wrapper, "w.pdf")
        assert app.end_session(wrapper) >= 1
