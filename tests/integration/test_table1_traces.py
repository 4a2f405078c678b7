"""The Table 1 experiment as tests: each app category leaves exactly the
traces the paper catalogues on stock Android, and Maxoid confines all of
them when the app runs as a delegate."""

from repro.android.intents import Intent
from repro.android.uri import Uri
from repro.core.audit import audit_observer, find_marker_in_files

EMAIL = "com.android.email"
ADOBE = "com.adobe.reader"
OFFICE = "cn.wps.moffice"
SCANNER = "com.google.zxing.client.android"
CAMSCANNER = "com.intsig.camscanner"
CAMERA = "com.magix.camera_mx"
VPLAYER = "me.abitno.vplayer.t"

MARKER = b"MARKER-T1-sensitive"


def prepare_document(env, name="doc.pdf"):
    """A sensitive document handed to data-processing apps via Email."""
    email = env.spawn(EMAIL)
    attachment_id = env.apps[EMAIL].receive_attachment(email, name, b"%PDF " + MARKER)
    return email, attachment_id


class TestDocumentViewers:
    """Table 1 row 1: XML recents (private) + SD copy (public)."""

    def test_stock_adobe_leaves_both_traces(self, loaded_stock_device):
        env = loaded_stock_device
        email, attachment_id = prepare_document(env)
        env.apps[EMAIL].view_attachment(email, attachment_id)
        viewer = env.spawn(ADOBE)
        # Private trace: recents list.
        assert viewer.prefs.get("recent_files") == ["doc.pdf"]
        # Public trace: a copy of the attachment on the SD card.
        hits = find_marker_in_files(env.spawn(SCANNER), MARKER, roots=["/storage/sdcard"])
        assert hits, "stock Android must leak the SD copy"

    def test_maxoid_confines_both_traces(self, loaded_device):
        env = loaded_device
        email, attachment_id = prepare_document(env)
        env.apps[EMAIL].view_attachment(email, attachment_id)
        viewer = env.spawn(ADOBE)
        assert viewer.prefs.get("recent_files") is None
        report = audit_observer(env.spawn(SCANNER), MARKER)
        assert report.clean

    def test_office_sdcard_database_confined(self, loaded_device):
        env = loaded_device
        wrapper = env.spawn("org.maxoid.wrapper")
        env.apps["org.maxoid.wrapper"].add_document(wrapper, "sheet.doc", MARKER)
        invocation = env.apps["org.maxoid.wrapper"].open_with_real_app(
            wrapper, "sheet.doc", component=OFFICE
        )
        # The office suite ran confined; its SD-card index DB and thumbnail
        # are invisible to other apps.
        observer = env.spawn(ADOBE)
        assert not observer.sys.exists("/storage/sdcard/office/index.db")
        assert not observer.sys.exists("/storage/sdcard/.thumbnails/sheet.doc.png")
        # But the initiator can inspect them in its volatile state.
        assert wrapper.volatile.read("/storage/sdcard/tmp/office/index.db")


class TestScanners:
    """Table 1 row 2: private recent-scans DB; CamScanner's SD traces."""

    def test_stock_scanner_keeps_history(self, loaded_stock_device):
        env = loaded_stock_device
        scanner_api = env.spawn(SCANNER)
        env.apps[SCANNER].main(
            scanner_api, Intent(Intent.ACTION_SCAN, extras={"qr_payload": "secret-url.example"})
        )
        fresh = env.spawn(SCANNER)
        assert env.apps[SCANNER].recent_scans(fresh) == ["secret-url.example"]

    def test_maxoid_delegate_scan_leaves_no_history(self, loaded_device):
        env = loaded_device
        invocation = env.launch_as_delegate(
            SCANNER,
            "com.android.browser",
            Intent(Intent.ACTION_SCAN, extras={"qr_payload": "secret-url.example"}),
        )
        assert invocation.result["text"] == "secret-url.example"
        fresh = env.spawn(SCANNER)
        assert env.apps[SCANNER].recent_scans(fresh) == []

    def test_camscanner_three_public_traces_confined(self, loaded_device):
        env = loaded_device
        email, attachment_id = prepare_document(env, "page.jpg")
        # CamScanner opens the attachment as Email's delegate.
        uri = env.apps[EMAIL].attachment_uri(attachment_id)
        email_api = env.spawn(EMAIL)
        delegate = env.spawn(CAMSCANNER, initiator=EMAIL)
        result = env.apps[CAMSCANNER].main(
            delegate,
            Intent(Intent.ACTION_SCAN, extras={"path": "/data/data/%s/attachments/%d/page.jpg" % (EMAIL, attachment_id)}),
        )
        observer = env.spawn(ADOBE)
        assert not observer.sys.exists(result["image"])
        assert not observer.sys.exists(result["thumbnail"])
        assert not observer.sys.exists("/storage/sdcard/CamScanner/scanner.log")
        # All three live in Vol(Email).
        vol = env.spawn(EMAIL).volatile.list_files()
        assert len([p for p in vol if "CamScanner" in p]) == 3


class TestPhotoApps:
    """Table 1 row 3: photo file + Media provider entry."""

    def test_stock_camera_publishes_photo_and_media_row(self, loaded_stock_device):
        env = loaded_stock_device
        camera = env.spawn(CAMERA)
        result = env.apps[CAMERA].main(
            camera, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": MARKER})
        )
        observer = env.spawn(ADOBE)
        assert observer.sys.exists(result["path"])
        assert observer.query(Uri.content("media", "files")).rows

    def test_maxoid_delegate_photo_fully_volatile(self, loaded_device):
        env = loaded_device
        invocation = env.launch_as_delegate(
            CAMERA,
            "com.dropbox.android",
            Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": MARKER}),
        )
        observer = env.spawn(ADOBE)
        assert not observer.sys.exists(invocation.result["path"])
        assert observer.query(Uri.content("media", "files")).rows == []
        # Dropbox sees both the file (in tmp) and the media row (tmp URI).
        dbx = env.spawn("com.dropbox.android")
        assert dbx.query(Uri.content("media", "files").to_volatile()).rows
        tmp_path = "/storage/sdcard/tmp" + invocation.result["path"][len("/storage/sdcard"):]
        assert dbx.volatile.read(tmp_path) == MARKER


class TestMediaPlayers:
    """Table 1 row 4: playback history DB + thumbnail on SD."""

    def test_stock_vplayer_traces(self, loaded_stock_device):
        env = loaded_stock_device
        owner = env.spawn(VPLAYER)
        owner.write_external("Movies/home.mp4", MARKER)
        result = env.apps[VPLAYER].main(
            env.spawn(VPLAYER), Intent(Intent.ACTION_VIEW, extras={"path": "/storage/sdcard/Movies/home.mp4"})
        )
        fresh = env.spawn(VPLAYER)
        assert env.apps[VPLAYER].playback_history(fresh) == ["home.mp4"]
        assert env.spawn(ADOBE).sys.exists(result["thumbnail"])

    def test_maxoid_delegate_playback_confined(self, loaded_device):
        env = loaded_device
        wrapper = env.spawn("org.maxoid.wrapper")
        env.apps["org.maxoid.wrapper"].add_document(wrapper, "home.mp4", MARKER)
        delegate = env.spawn(VPLAYER, initiator="org.maxoid.wrapper")
        result = env.apps[VPLAYER].main(
            delegate,
            Intent(
                Intent.ACTION_VIEW,
                extras={"path": "/storage/sdcard/wrapper-vault/home.mp4"},
            ),
        )
        fresh = env.spawn(VPLAYER)
        assert env.apps[VPLAYER].playback_history(fresh) == []
        assert not env.spawn(ADOBE).sys.exists(result["thumbnail"])
