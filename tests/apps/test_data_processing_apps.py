"""Unit tests for the Table 1 data-processing apps: each app leaves
exactly the traces its category is catalogued with."""

import pytest

from repro.android.intents import Intent
from repro.android.uri import Uri
from repro.apps import (
    BarcodeScannerApp,
    CameraApp,
    CamScannerApp,
    OfficeApp,
    PdfViewerApp,
    VideoPlayerApp,
)
from repro import Device


@pytest.fixture
def env():
    device = Device(maxoid_enabled=False)  # unit-test the raw behaviour
    apps = {
        "adobe": PdfViewerApp.install(device),
        "office": OfficeApp.install(device),
        "barcode": BarcodeScannerApp.install(device),
        "camscanner": CamScannerApp.install(device),
        "camera": CameraApp.install(device),
        "vplayer": VideoPlayerApp.install(device),
    }
    device.apps_by_name = apps
    return device


class TestPdfViewer:
    def test_open_by_path_records_recents_no_copy(self, env):
        api = env.spawn(PdfViewerApp.BUILD.package)
        path = api.write_external("docs/a.pdf", b"%PDF data")
        result = env.apps_by_name["adobe"].main(
            api, Intent(Intent.ACTION_VIEW, extras={"path": path})
        )
        assert result["sd_copy"] is None
        assert api.prefs.get("recent_files") == ["a.pdf"]

    def test_open_file_uri(self, env):
        api = env.spawn(PdfViewerApp.BUILD.package)
        path = api.write_external("docs/b.pdf", b"%PDF other")
        result = env.apps_by_name["adobe"].main(
            api, Intent(Intent.ACTION_VIEW, data=Uri.file(path))
        )
        assert result["name"] == "b.pdf"
        assert result["bytes"] == 10

    def test_recents_capped_at_20(self, env):
        api = env.spawn(PdfViewerApp.BUILD.package)
        app = env.apps_by_name["adobe"]
        for index in range(25):
            path = api.write_external(f"docs/f{index}.pdf", b"x")
            app.main(api, Intent(Intent.ACTION_VIEW, extras={"path": path}))
        assert len(api.prefs.get("recent_files")) == 20

    def test_search_counts_occurrences(self, env):
        api = env.spawn(PdfViewerApp.BUILD.package)
        app = env.apps_by_name["adobe"]
        assert app.search(api, b"abcabcab", b"ab") == 3
        assert app.search(api, b"xyz", b"ab") == 0

    def test_open_without_source_raises(self, env):
        api = env.spawn(PdfViewerApp.BUILD.package)
        with pytest.raises(ValueError):
            env.apps_by_name["adobe"].main(api, Intent(Intent.ACTION_VIEW))


class TestOffice:
    def test_view_leaves_three_traces(self, env):
        api = env.spawn(OfficeApp.BUILD.package)
        path = api.write_external("docs/sheet.xls", b"CELLS")
        result = env.apps_by_name["office"].main(
            api, Intent(Intent.ACTION_VIEW, extras={"path": path})
        )
        # Private ADF recents file.
        assert b"sheet.xls" in api.read_internal("recents.adf")
        # Public thumbnail + public index DB on the SD card.
        assert api.sys.exists(result["thumbnail"])
        assert b"sheet.xls" in api.read_external("office/index.db")

    def test_edit_modifies_in_place(self, env):
        api = env.spawn(OfficeApp.BUILD.package)
        path = api.write_external("docs/memo.doc", b"original")
        env.apps_by_name["office"].main(
            api, Intent(Intent.ACTION_EDIT, extras={"path": path})
        )
        assert api.sys.read_file(path).endswith(b"[edited with office]")

    def test_index_accumulates(self, env):
        api = env.spawn(OfficeApp.BUILD.package)
        app = env.apps_by_name["office"]
        for name in ("a.doc", "b.doc"):
            path = api.write_external(f"docs/{name}", b"x")
            app.main(api, Intent(Intent.ACTION_VIEW, extras={"path": path}))
        index = api.read_external("office/index.db").decode()
        assert index.count("\n") == 2


class TestScanners:
    def test_barcode_history_accumulates(self, env):
        api = env.spawn(BarcodeScannerApp.BUILD.package)
        app = env.apps_by_name["barcode"]
        app.main(api, Intent(Intent.ACTION_SCAN, extras={"qr_payload": "first"}))
        app.main(api, Intent(Intent.ACTION_SCAN, extras={"qr_payload": "second"}))
        assert app.recent_scans(api) == ["first", "second"]

    def test_barcode_returns_decoded_text(self, env):
        api = env.spawn(BarcodeScannerApp.BUILD.package)
        result = env.apps_by_name["barcode"].main(
            api, Intent(Intent.ACTION_SCAN, extras={"qr_payload": "https://x"})
        )
        assert result == {"text": "https://x", "format": "QR_CODE"}

    def test_camscanner_leaves_image_thumb_log(self, env):
        api = env.spawn(CamScannerApp.BUILD.package)
        source = api.write_external("in/page1.jpg", b"PAGEDATA")
        result = env.apps_by_name["camscanner"].main(
            api, Intent(Intent.ACTION_SCAN, extras={"path": source})
        )
        assert api.sys.read_file(result["image"]).startswith(b"SCANNED:")
        assert api.sys.read_file(result["thumbnail"]).startswith(b"THUMB:")
        assert b"page1.jpg" in api.read_external("CamScanner/scanner.log")

    def test_camscanner_db_entry(self, env):
        api = env.spawn(CamScannerApp.BUILD.package)
        source = api.write_external("in/page2.jpg", b"DATA")
        env.apps_by_name["camscanner"].main(
            api, Intent(Intent.ACTION_SCAN, extras={"path": source})
        )
        db = api.db("scans")
        assert db.query("SELECT name FROM scans").rows == [("page2.jpg",)]


class TestCameraAndVideo:
    def test_take_photo_creates_file_and_media_row(self, env):
        api = env.spawn(CameraApp.BUILD.package)
        result = env.apps_by_name["camera"].main(
            api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": b"\xff\xd8RAW"})
        )
        assert api.sys.read_file(result["path"]) == b"\xff\xd8RAW"
        rows = api.query(Uri.content("media", "files")).rows
        assert len(rows) == 1

    def test_shot_counter_increments(self, env):
        api = env.spawn(CameraApp.BUILD.package)
        app = env.apps_by_name["camera"]
        first = app.main(api, Intent(Intent.ACTION_IMAGE_CAPTURE))
        second = app.main(api, Intent(Intent.ACTION_IMAGE_CAPTURE))
        assert first["path"] != second["path"]

    def test_edit_photo_creates_new_media_entry(self, env):
        api = env.spawn(CameraApp.BUILD.package)
        app = env.apps_by_name["camera"]
        shot = app.main(api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": b"\xff\xd8X"}))
        edited = app.main(api, Intent(Intent.ACTION_EDIT, extras={"path": shot["path"]}))
        assert api.sys.read_file(edited["path"]).startswith(b"EDITED:")
        assert len(api.query(Uri.content("media", "files")).rows) == 2

    def test_vplayer_history_and_thumbnail(self, env):
        api = env.spawn(VideoPlayerApp.BUILD.package)
        path = api.write_external("Movies/clip.mp4", b"FRAMES")
        result = env.apps_by_name["vplayer"].main(
            api, Intent(Intent.ACTION_VIEW, extras={"path": path})
        )
        assert env.apps_by_name["vplayer"].playback_history(api) == ["clip.mp4"]
        assert api.sys.exists(result["thumbnail"])
