"""Table 1: state left after apps process their target data.

For each app category the bench runs the representative operation twice —
on stock Android and under Maxoid confinement — and audits the traces the
paper's table lists. The benchmark times the full operation (the paper's
point is that confinement does not change what the app *does*, only where
its state lands); assertions verify the trace pattern. :func:`render` runs
each operation once per system and prints the audit as the paper's table.
"""

from __future__ import annotations

import pytest

from repro import Device, Intent
from repro.android.uri import Uri
from repro.apps import install_standard_apps
from repro.core.audit import find_marker_in_files
from repro.workloads.reports import render_table

MARKER = b"MARKER-table1"
MODES = ("android", "maxoid")

EMAIL = "com.android.email"
ADOBE = "com.adobe.reader"
SCANNER = "com.google.zxing.client.android"
CAMSCANNER = "com.intsig.camscanner"
CAMERA = "com.magix.camera_mx"
VPLAYER = "me.abitno.vplayer.t"
WRAPPER = "org.maxoid.wrapper"
BROWSER = "com.android.browser"
SCAN_LOG = "/storage/sdcard/CamScanner/scanner.log"


def fresh_env(mode: str) -> Device:
    device = Device(maxoid_enabled=mode == "maxoid")
    device.apps = install_standard_apps(device)
    return device


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


def _confined(env, mode, package, intent):
    """Run the app on the document either normally (stock) or as the
    wrapper's delegate (Maxoid); returns the app's result."""
    wrapper = env.spawn(WRAPPER)
    env.apps[WRAPPER].add_document(wrapper, "target.pdf", MARKER)
    intent.extras["path"] = "/storage/sdcard/wrapper-vault/target.pdf"
    if mode == "maxoid":
        intent.component = package
        return env.am.start_activity(wrapper.process, intent).result
    return env.apps[package].main(env.spawn(package), intent)


# Each row is an operation (the timed op) and an audit of the traces it
# left: (private trace, public items visible to another app).


def view_document(env, mode):
    email = env.spawn(EMAIL)
    attachment_id = env.apps[EMAIL].receive_attachment(email, "doc.pdf", MARKER)
    return env.apps[EMAIL].view_attachment(email, attachment_id)


def view_document_traces(env, result):
    public = find_marker_in_files(env.spawn(SCANNER), MARKER, roots=["/storage/sdcard"])
    return env.spawn(ADOBE).prefs.get("recent_files"), public


def scan_qr(env, mode):
    intent = Intent(Intent.ACTION_SCAN, extras={"qr_payload": "MARKER-url"})
    if mode == "maxoid":
        return env.launch_as_delegate(SCANNER, BROWSER, intent)
    return env.apps[SCANNER].main(env.spawn(SCANNER), intent)


def scan_qr_traces(env, result):
    return env.apps[SCANNER].recent_scans(env.spawn(SCANNER)), []


def scan_page(env, mode):
    return _confined(env, mode, CAMSCANNER, Intent(Intent.ACTION_SCAN, extras={}))


def scan_page_traces(env, result):
    db = env.spawn(CAMSCANNER).db("scans")
    scans = db.query("SELECT name FROM scans").rows if "scans" in db.table_names() else []
    observer = env.spawn(ADOBE)
    paths = (result["image"], result["thumbnail"], SCAN_LOG)
    return scans, [path for path in paths if observer.sys.exists(path)]


def take_photo(env, mode):
    intent = Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": MARKER})
    if mode == "maxoid":
        return env.launch_as_delegate(CAMERA, WRAPPER, intent).result
    return env.apps[CAMERA].main(env.spawn(CAMERA), intent)


def take_photo_traces(env, result):
    """The photo file (first, when public) and its Media provider rows."""
    observer = env.spawn(ADOBE)
    photo = [result["path"]] if observer.sys.exists(result["path"]) else []
    return None, photo + observer.query(Uri.content("media", "files")).rows


def play_video(env, mode):
    return _confined(env, mode, VPLAYER, Intent(Intent.ACTION_VIEW, extras={}))


def play_video_traces(env, result):
    history = env.apps[VPLAYER].playback_history(env.spawn(VPLAYER))
    thumbnail = result["thumbnail"]
    return history, [thumbnail] if env.spawn(ADOBE).sys.exists(thumbnail) else []


ROWS = (
    ("Adobe Reader", "open a file", "XML: recent files", view_document, view_document_traces),
    ("Barcode Scanner", "scan a QR code", "DB: recent scans", scan_qr, scan_qr_traces),
    ("CamScanner", "scan a page", "DB: scanned pages", scan_page, scan_page_traces),
    ("CameraMX", "take a photo", "(none)", take_photo, take_photo_traces),
    ("VPlayer", "play a video", "DB: playback history", play_video, play_video_traces),
)


def render() -> str:
    rows = []
    for mode in MODES:
        for app, operation, private_label, run, traces in ROWS:
            env = fresh_env(mode)
            private, public = traces(env, run(env, mode))
            rows.append([
                mode,
                app,
                operation,
                private_label if private else "(none)",
                f"{len(public)} public item(s)" if public else "(none)",
            ])
    return render_table(
        ["System", "App", "Operation", "Private trace", "Public trace visible to others"],
        rows,
        title="Table 1 — state left after apps process their target data",
    )


@pytest.mark.benchmark(group="table1-document")
def bench_document_viewer_traces(benchmark, mode):
    """Row 1: XML recents (private) + SD copy (public, via content URI)."""
    env = fresh_env(mode)
    recents, public_hits = view_document_traces(env, benchmark(view_document, env, mode))
    if mode == "android":
        assert public_hits and recents
    else:
        assert not public_hits and recents is None


@pytest.mark.benchmark(group="table1-scanner")
def bench_scanner_traces(benchmark, mode):
    """Row 2: recent-scans DB (private)."""
    env = fresh_env(mode)
    history, _ = scan_qr_traces(env, benchmark(scan_qr, env, mode))
    if mode == "android":
        assert "MARKER-url" in history
    else:
        assert history == []


@pytest.mark.benchmark(group="table1-camscanner")
def bench_camscanner_traces(benchmark, mode):
    """Row 2b: CamScanner's image + thumbnail + log on the SD card."""
    env = fresh_env(mode)
    _, public = scan_page_traces(env, benchmark(scan_page, env, mode))
    assert (SCAN_LOG in public) == (mode == "android")


@pytest.mark.benchmark(group="table1-photo")
def bench_camera_traces(benchmark, mode):
    """Row 3: photo file on SD + Media provider entry."""
    env = fresh_env(mode)
    result = benchmark(take_photo, env, mode)
    _, public = take_photo_traces(env, result)
    if mode == "android":
        assert public[0] == result["path"] and public[1:]
    else:
        assert not public


@pytest.mark.benchmark(group="table1-media")
def bench_vplayer_traces(benchmark, mode):
    """Row 4: playback history DB (private) + thumbnail on SD (public)."""
    env = fresh_env(mode)
    history, thumbnail = play_video_traces(env, benchmark(play_video, env, mode))
    if mode == "android":
        assert thumbnail and history
    else:
        assert not thumbnail and history == []
