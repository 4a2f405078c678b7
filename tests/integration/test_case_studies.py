"""The paper's section 7.1 use cases, end to end:

Securing Dropbox, securing Email attachments, incognito Browser downloads,
the wrapper app's system-wide incognito mode, Google Drive, and
EBookDroid's persistent private state.
"""

import pytest

from repro.errors import KernelError
from repro.android.intents import Intent
from repro.android.uri import Uri
from repro.core.audit import leaked_off_device

DROPBOX = "com.dropbox.android"
GDRIVE = "com.google.android.apps.docs"
EMAIL = "com.android.email"
BROWSER = "com.android.browser"
ADOBE = "com.adobe.reader"
SCANNER = "com.google.zxing.client.android"
EBOOK = "org.ebookdroid"
WRAPPER = "org.maxoid.wrapper"


class TestSecuringDropbox(object):
    def test_files_private_on_external_storage(self, loaded_device):
        env = loaded_device
        dbx = env.spawn(DROPBOX)
        env.apps[DROPBOX].sync_down(dbx, ["report.pdf"])
        # Another app cannot see the synced file even though it lives on
        # the public SD card path-wise.
        other = env.spawn(ADOBE)
        assert not other.sys.exists("/storage/sdcard/Dropbox/report.pdf")

    def test_click_to_open_runs_delegate(self, loaded_device):
        env = loaded_device
        dbx = env.spawn(DROPBOX)
        env.apps[DROPBOX].sync_down(dbx, ["report.pdf"])
        invocation = env.apps[DROPBOX].open_file(dbx, "report.pdf")
        assert invocation.process.context.initiator == DROPBOX
        assert invocation.result["bytes"] == len(b"%PDF dropbox report")

    def test_delegate_edit_does_not_autosync(self, loaded_device):
        """The integrity story: a delegate's unintended change must not be
        synced to the server."""
        env = loaded_device
        dbx = env.spawn(DROPBOX)
        env.apps[DROPBOX].sync_down(dbx, ["report.pdf"])
        delegate = env.spawn(ADOBE, initiator=DROPBOX)
        delegate.sys.write_file("/storage/sdcard/Dropbox/report.pdf", b"mangled")
        assert env.apps[DROPBOX].auto_sync(dbx) == []

    def test_user_commits_desired_edit_via_tmp(self, loaded_device):
        env = loaded_device
        dbx = env.spawn(DROPBOX)
        env.apps[DROPBOX].sync_down(dbx, ["report.pdf"])
        delegate = env.spawn(ADOBE, initiator=DROPBOX)
        delegate.sys.write_file("/storage/sdcard/Dropbox/report.pdf", b"good edit")
        committed = env.apps[DROPBOX].upload_from_tmp(dbx, "report.pdf")
        assert committed == "/storage/sdcard/Dropbox/report.pdf"
        assert dbx.sys.read_file(committed) == b"good edit"
        assert env.network.leaked_to_network(b"good edit")  # the upload

    def test_camera_as_dropbox_delegate_via_launcher(self, loaded_device):
        env = loaded_device
        invocation = env.launch_as_delegate(
            "com.magix.camera_mx",
            DROPBOX,
            Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": b"\xff\xd8PHOTO"}),
        )
        photo_path = invocation.result["path"]
        dbx = env.spawn(DROPBOX)
        tmp_path = "/storage/sdcard/tmp" + photo_path[len("/storage/sdcard"):]
        assert dbx.volatile.read(tmp_path).endswith(b"PHOTO")
        # The photo is not public.
        assert not env.spawn(ADOBE).sys.exists(photo_path)


class TestSecuringEmail:
    def test_view_attachment_confines_viewer(self, loaded_device):
        env = loaded_device
        em = env.spawn(EMAIL)
        attachment_id = env.apps[EMAIL].receive_attachment(em, "contract.pdf", b"%PDF contract")
        invocation = env.apps[EMAIL].view_attachment(em, attachment_id)
        assert invocation.process.context.initiator == EMAIL
        # Adobe's copy of the attachment is in Vol(Email), not public.
        copy = invocation.result["sd_copy"]
        assert copy is not None
        assert not env.spawn(SCANNER).sys.exists(copy)
        assert em.volatile.read("/storage/sdcard/tmp" + copy[len("/storage/sdcard"):])

    def test_viewer_recents_do_not_survive_into_normal_runs(self, loaded_device):
        env = loaded_device
        em = env.spawn(EMAIL)
        attachment_id = env.apps[EMAIL].receive_attachment(em, "contract.pdf", b"%PDF c")
        env.apps[EMAIL].view_attachment(em, attachment_id)
        normal_viewer = env.spawn(ADOBE)
        assert normal_viewer.prefs.get("recent_files") is None

    def test_save_button_is_explicitly_public(self, loaded_device):
        env = loaded_device
        em = env.spawn(EMAIL)
        attachment_id = env.apps[EMAIL].receive_attachment(em, "flyer.pdf", b"%PDF flyer")
        path = env.apps[EMAIL].save_attachment(em, attachment_id)
        assert env.spawn(SCANNER).sys.read_file(path) == b"%PDF flyer"

    def test_attachment_secret_never_leaves_device(self, loaded_device):
        env = loaded_device
        em = env.spawn(EMAIL)
        secret = b"MARKER-attachment-secret"
        attachment_id = env.apps[EMAIL].receive_attachment(em, "s.pdf", secret)
        env.apps[EMAIL].view_attachment(em, attachment_id)
        assert not leaked_off_device(env, secret)


class TestIncognitoBrowser:
    def _incognito_download(self, env):
        browser = env.spawn(BROWSER)
        download_id = env.apps[BROWSER].download(
            browser, "https://example.com/leaflet.pdf", "leaflet.pdf", incognito=True
        )
        env.run_downloads()
        return browser, download_id

    def test_incognito_download_is_volatile(self, loaded_device):
        env = loaded_device
        browser, download_id = self._incognito_download(env)
        assert env.download_manager.succeeded(browser.process, download_id, volatile=True)
        # Publicly invisible: no file, no Downloads entry.
        other = env.spawn(SCANNER)
        assert not other.sys.exists("/storage/sdcard/Download/leaflet.pdf")
        assert other.query(Uri.content("downloads", "all_downloads")).rows == []

    def test_notification_opens_viewer_as_delegate(self, loaded_device):
        env = loaded_device
        browser, _ = self._incognito_download(env)
        note = env.downloads.notifications[-1]
        assert note.is_volatile
        invocation = env.apps[BROWSER].open_download(browser, note)
        assert invocation.process.context.initiator == BROWSER
        assert invocation.result["bytes"] == len(b"%PDF public leaflet")

    def test_clear_vol_erases_all_traces(self, loaded_device):
        env = loaded_device
        browser, _ = self._incognito_download(env)
        note = env.downloads.notifications[-1]
        env.apps[BROWSER].open_download(browser, note)
        env.launcher.clear_vol(BROWSER)
        env.launcher.clear_priv(BROWSER)
        fresh_delegate = env.spawn(ADOBE, initiator=BROWSER)
        assert not fresh_delegate.sys.exists("/storage/sdcard/Download/leaflet.pdf")
        assert fresh_delegate.query(Uri.content("downloads", "all_downloads")).rows == []
        assert env.spawn(ADOBE).prefs.get("recent_files") is None

    def test_normal_download_is_public(self, loaded_device):
        env = loaded_device
        browser = env.spawn(BROWSER)
        env.apps[BROWSER].download(
            browser, "https://example.com/leaflet.pdf", "leaflet.pdf", incognito=False
        )
        env.run_downloads()
        assert env.spawn(SCANNER).sys.exists("/storage/sdcard/Download/leaflet.pdf")

    def test_qr_scanner_as_browser_delegate_leaves_no_history(self, loaded_device):
        env = loaded_device
        scan = env.launch_as_delegate(
            SCANNER,
            BROWSER,
            Intent(Intent.ACTION_SCAN, extras={"qr_payload": "example.com/leaflet.pdf"}),
        )
        assert scan.result["text"] == "example.com/leaflet.pdf"
        env.launcher.clear_priv(BROWSER)
        normal_scanner = env.spawn(SCANNER)
        assert env.apps[SCANNER].recent_scans(normal_scanner) == []


class TestGoogleDrive:
    def test_cache_is_unlistable_but_file_openable(self, loaded_device):
        env = loaded_device
        drive = env.spawn(GDRIVE)
        cached = env.apps[GDRIVE].fetch(drive, "notes.txt")
        viewer = env.spawn(ADOBE)
        # The viewer can open the disclosed file...
        assert viewer.sys.read_file(cached) == b"drive notes body"
        # ...but cannot enumerate the cache directory.
        with pytest.raises(KernelError):
            viewer.sys.listdir("/data/data/" + GDRIVE + "/cache/filecache")

    def test_open_runs_viewer_as_delegate(self, loaded_device):
        env = loaded_device
        drive = env.spawn(GDRIVE)
        env.apps[GDRIVE].fetch(drive, "notes.txt")
        invocation = env.apps[GDRIVE].open_file(drive, "notes.txt")
        assert invocation.process.context.initiator == GDRIVE


class TestWrapperApp:
    def test_system_wide_incognito(self, loaded_device):
        env = loaded_device
        wrapper = env.spawn(WRAPPER)
        env.apps[WRAPPER].add_document(wrapper, "taxes.pdf", b"%PDF taxes MARKER-taxes")
        invocation = env.apps[WRAPPER].open_with_real_app(wrapper, "taxes.pdf")
        assert invocation.process.context.initiator == WRAPPER
        cleared = env.apps[WRAPPER].end_session(wrapper)
        assert cleared >= 1
        # No app can see any trace of the session.
        viewer = env.spawn(ADOBE)
        assert viewer.prefs.get("recent_files") is None
        assert not leaked_off_device(env, b"MARKER-taxes")

    def test_every_wrapper_invocation_is_private(self, loaded_device):
        env = loaded_device
        wrapper = env.spawn(WRAPPER)
        env.apps[WRAPPER].add_document(wrapper, "x.pdf", b"%PDF x")
        invocation = env.apps[WRAPPER].open_with_real_app(wrapper, "x.pdf", Intent.ACTION_VIEW)
        assert invocation.process.context.is_delegate


class TestEBookDroidPersistentState:
    def test_ppriv_survives_npriv_refork(self, loaded_device):
        env = loaded_device
        ebook = env.apps[EBOOK]
        email = env.spawn(EMAIL)
        env.apps[EMAIL].receive_attachment(email, "book.pdf", b"%PDF book")
        # First delegate run records the book in pPriv.
        first = env.spawn(EBOOK, initiator=EMAIL)
        ebook.main(
            first,
            Intent(Intent.ACTION_VIEW, extras={"path": "/data/data/%s/attachments/1/book.pdf" % EMAIL}),
        )
        # The user updates Priv(ebook) between invocations -> nPriv reforks.
        normal = env.spawn(EBOOK)
        normal.prefs.put("theme", "sepia")
        second = env.spawn(EBOOK, initiator=EMAIL)
        assert "book.pdf" in ebook.recent_list(second)

    def test_ppriv_isolated_per_initiator(self, loaded_device):
        env = loaded_device
        ebook = env.apps[EBOOK]
        email = env.spawn(EMAIL)
        env.apps[EMAIL].receive_attachment(email, "book.pdf", b"%PDF book")
        for_email = env.spawn(EBOOK, initiator=EMAIL)
        ebook.main(
            for_email,
            Intent(Intent.ACTION_VIEW, extras={"path": "/data/data/%s/attachments/1/book.pdf" % EMAIL}),
        )
        for_browser = env.spawn(EBOOK, initiator=BROWSER)
        assert "book.pdf" not in ebook.recent_list(for_browser)

    def test_delegate_entries_invisible_when_running_normally(self, loaded_device):
        env = loaded_device
        ebook = env.apps[EBOOK]
        email = env.spawn(EMAIL)
        env.apps[EMAIL].receive_attachment(email, "private.pdf", b"%PDF p")
        delegate = env.spawn(EBOOK, initiator=EMAIL)
        ebook.main(
            delegate,
            Intent(Intent.ACTION_VIEW, extras={"path": "/data/data/%s/attachments/1/private.pdf" % EMAIL}),
        )
        normal = env.spawn(EBOOK)
        assert "private.pdf" not in ebook.recent_list(normal)
