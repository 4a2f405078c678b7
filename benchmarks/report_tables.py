"""Regenerate every table of the paper's evaluation in its own format.

Usage::

    python benchmarks/report_tables.py [--trials N] [--out FILE]

Prints Tables 1-5 (and the Figure 1 flow matrix) computed from the
simulation, side by side with the paper's reported numbers where they
exist. Absolute magnitudes differ (a pure-Python simulated kernel vs a
Nexus 7), but the *shape* — who pays overhead, orderings, zero-vs-nonzero
— is the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import io
import sys

from repro import AndroidManifest, Device, Intent
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro.apps import install_standard_apps
from repro.core.audit import figure1_flow_matrix, find_marker_in_files
from repro.workloads.generators import (
    deterministic_bytes,
    make_dictionary_words,
    make_image_files,
    publish_download_set,
)
from repro.workloads.harness import Measurement, measure, overhead_pct
from repro.workloads.latency import TASK_BASELINES_MS, modelled_task_latency
from repro.workloads.reports import pct, render_table

WORDS = Uri.content("user_dictionary", "words")
APP = "com.report.app"
INITIATOR = "com.report.initiator"


class _Nop:
    def main(self, api, intent):
        return None


def fresh(maxoid: bool) -> Device:
    device = Device(maxoid_enabled=maxoid)
    device.install(AndroidManifest(package=APP), _Nop())
    device.install(AndroidManifest(package=INITIATOR), _Nop())
    return device


def api_for(device: Device, config: str):
    if config == "delegate":
        return device.spawn(APP, initiator=INITIATOR)
    return device.spawn(APP)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1() -> str:
    rows = []
    marker = b"MARKER-T1"
    for mode in ("android", "maxoid"):
        maxoid = mode == "maxoid"

        def census_row(app_label, operation, private_trace, public_hits):
            rows.append(
                [
                    mode,
                    app_label,
                    operation,
                    private_trace or "(none)",
                    f"{public_hits} public item(s)" if public_hits else "(none)",
                ]
            )

        # --- document viewer (Adobe Reader over an Email attachment) -----
        device = Device(maxoid_enabled=maxoid)
        apps = install_standard_apps(device)
        email = device.spawn("com.android.email")
        attachment_id = apps["com.android.email"].receive_attachment(
            email, "doc.pdf", marker
        )
        apps["com.android.email"].view_attachment(email, attachment_id)
        observer = device.spawn("com.google.zxing.client.android")
        public_hits = find_marker_in_files(observer, marker, roots=["/storage/sdcard"])
        recents = device.spawn("com.adobe.reader").prefs.get("recent_files")
        census_row(
            "Adobe Reader", "open a file",
            "XML: recent files" if recents else None, len(public_hits),
        )
        # --- scanner (Barcode Scanner) ------------------------------------
        device = Device(maxoid_enabled=maxoid)
        apps = install_standard_apps(device)
        scan_intent = Intent(Intent.ACTION_SCAN, extras={"qr_payload": "MARKER-qr"})
        if maxoid:
            device.launch_as_delegate(
                "com.google.zxing.client.android", "com.android.browser", scan_intent
            )
        else:
            apps["com.google.zxing.client.android"].main(
                device.spawn("com.google.zxing.client.android"), scan_intent
            )
        history = apps["com.google.zxing.client.android"].recent_scans(
            device.spawn("com.google.zxing.client.android")
        )
        census_row("Barcode Scanner", "scan a QR code",
                   "DB: recent scans" if history else None, 0)
        # --- photo (CameraMX) -----------------------------------------------
        device = Device(maxoid_enabled=maxoid)
        apps = install_standard_apps(device)
        photo_intent = Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": marker})
        if maxoid:
            result = device.launch_as_delegate(
                "com.magix.camera_mx", "org.maxoid.wrapper", photo_intent
            ).result
        else:
            result = apps["com.magix.camera_mx"].main(
                device.spawn("com.magix.camera_mx"), photo_intent
            )
        observer = device.spawn("com.adobe.reader")
        photo_public = observer.sys.exists(result["path"])
        media_rows = len(observer.query(Uri.content("media", "files")).rows)
        census_row("CameraMX", "take a photo", None,
                   int(photo_public) + media_rows)
        # --- media (VPlayer) --------------------------------------------------
        device = Device(maxoid_enabled=maxoid)
        apps = install_standard_apps(device)
        wrapper = device.spawn("org.maxoid.wrapper")
        apps["org.maxoid.wrapper"].add_document(wrapper, "clip.mp4", marker)
        view_intent = Intent(
            Intent.ACTION_VIEW,
            extras={"path": "/storage/sdcard/wrapper-vault/clip.mp4"},
        )
        if maxoid:
            result = device.am.start_activity(
                wrapper.process,
                Intent(
                    Intent.ACTION_VIEW,
                    component="me.abitno.vplayer.t",
                    extras=view_intent.extras,
                ),
            ).result
        else:
            owner = device.spawn("me.abitno.vplayer.t")
            result = apps["me.abitno.vplayer.t"].main(owner, view_intent)
        history = apps["me.abitno.vplayer.t"].playback_history(
            device.spawn("me.abitno.vplayer.t")
        )
        thumb_public = device.spawn("com.adobe.reader").sys.exists(result["thumbnail"])
        census_row("VPlayer", "play a video",
                   "DB: playback history" if history else None, int(thumb_public))
    return render_table(
        ["System", "App", "Operation", "Private trace", "Public trace visible to others"],
        rows,
        title="Table 1 — state left after apps process their target data",
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def table2() -> str:
    from repro.core.manifest import MaxoidManifest

    device = Device(maxoid_enabled=True)
    device.install(
        AndroidManifest(package="A", maxoid=MaxoidManifest(private_ext_dirs=["data/A"])),
        _Nop(),
    )
    device.install(
        AndroidManifest(package="B", maxoid=MaxoidManifest(private_ext_dirs=["data/B"])),
        _Nop(),
    )
    a = device.zygote.fork_app("A")
    ba = device.zygote.fork_app("B", "A")
    rows = []
    points = sorted(
        set(a.namespace.mount_points()) | set(ba.namespace.mount_points())
    )
    for point in points:
        if point == "/":
            continue

        def describe(process):
            table = process.namespace.mount_table()
            fs = table.get(point)
            if fs is None or not hasattr(fs, "describe"):
                return "N/A" if fs is None else "(plain)"
            return ", ".join(fs.describe())

        rows.append([point, describe(a), describe(ba)])
    return render_table(
        ["Mount point", "Branches for A", "Branches for B^A"],
        rows,
        title="Table 2 — Aufs mount points (paper notation: label(rw|ro))",
    )


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


PAPER_TABLE3 = {
    # (row, config) -> paper overhead %
    ("cpu", "initiator"): 0.0,
    ("cpu", "delegate"): 0.0,
    ("read 4KB", "delegate"): 7.5,
    ("write 4KB", "delegate"): 31.7,
    ("append 4KB", "delegate"): 58.7,
    ("read 1MB", "delegate"): 4.8,
    ("write 1MB", "delegate"): 18.1,
    ("append 1MB", "delegate"): 52.8,
    ("dict insert", "initiator"): 1.3,
    ("dict insert", "delegate"): 8.1,
    ("dict update", "initiator"): 0.4,
    ("dict update", "delegate"): 16.1,
    ("dict query 1", "initiator"): 0.5,
    ("dict query 1", "delegate"): 5.6,
    ("dict query 1k", "initiator"): 0.2,
    ("dict query 1k", "delegate"): 13.7,
    ("dict delete", "initiator"): 1.0,
    ("dict delete", "delegate"): 17.3,
}


def _file_measurements(config: str, size: int, trials: int):
    device = fresh(maxoid=config != "android")
    payload = deterministic_bytes(size)
    owner = device.spawn(APP)
    for index in range(256):
        owner.write_internal(f"bench/pre{index}.bin", payload)
    api = api_for(device, config)
    counters = {"read": 0, "write": 0, "append": 0}

    def read_op():
        counters["read"] += 1
        api.sys.read_file(f"/data/data/{APP}/bench/pre{counters['read'] % 256}.bin")

    def write_op():
        counters["write"] += 1
        api.write_internal(f"bench/w{counters['write']}.bin", payload)

    def append_op():
        counters["append"] += 1
        api.sys.append_file(
            f"/data/data/{APP}/bench/pre{counters['append'] % 256}.bin", b"+x"
        )

    return (
        measure(read_op, trials=trials, label=f"read-{config}"),
        measure(write_op, trials=trials, label=f"write-{config}"),
        measure(append_op, trials=trials, label=f"append-{config}"),
    )


def _dict_measurements(config: str, trials: int):
    device = fresh(maxoid=config != "android")
    owner = device.spawn(INITIATOR)
    for word in make_dictionary_words(1000):
        owner.insert(WORDS, ContentValues({"word": word}))
    api = api_for(device, config)
    if config == "delegate":
        for row in range(1, 51):
            api.update(WORDS.with_appended_id(row), ContentValues({"frequency": 2}))
    state = {"i": 0}

    def insert_op():
        state["i"] += 1
        api.insert(WORDS, ContentValues({"word": f"new{state['i']}"}))

    def update_op():
        state["i"] += 1
        api.update(
            WORDS.with_appended_id((state["i"] % 1000) + 1),
            ContentValues({"frequency": state["i"]}),
        )

    def query_one_op():
        state["i"] += 1
        api.query(WORDS.with_appended_id((state["i"] % 1000) + 1), projection=["word"])

    def query_all_op():
        api.query(WORDS, projection=["word"], order_by="_id")

    def delete_op():
        state["i"] += 1
        api.delete(WORDS.with_appended_id((state["i"] % 1000) + 1))

    return {
        "dict insert": measure(insert_op, trials=trials),
        "dict update": measure(update_op, trials=trials),
        "dict query 1": measure(query_one_op, trials=trials),
        "dict query 1k": measure(query_all_op, trials=max(3, trials // 5)),
        "dict delete": measure(delete_op, trials=trials),
    }


def table3(trials: int) -> str:
    rows = []
    # CPU-bound: identical code under every configuration.
    def cpu_op():
        total = 0
        for i in range(2000):
            total = (total * 31 + i) % 1000003
        return total

    cpu = {
        config: measure(cpu_op, trials=trials, label=config)
        for config in ("android", "initiator", "delegate")
    }
    for config in ("initiator", "delegate"):
        rows.append(
            [
                "cpu",
                config,
                pct(overhead_pct(cpu["android"], cpu[config])),
                pct(PAPER_TABLE3.get(("cpu", config), 0.0)),
            ]
        )
    for size, size_name in ((4096, "4KB"), (1024 * 1024, "1MB")):
        measured = {
            config: _file_measurements(config, size, trials)
            for config in ("android", "initiator", "delegate")
        }
        for op_index, op_name in enumerate(("read", "write", "append")):
            for config in ("initiator", "delegate"):
                key = (f"{op_name} {size_name}", config)
                rows.append(
                    [
                        f"{op_name} {size_name}",
                        config,
                        pct(overhead_pct(measured["android"][op_index], measured[config][op_index])),
                        pct(PAPER_TABLE3[key]) if key in PAPER_TABLE3 else "~0%",
                    ]
                )
    dictionary = {
        config: _dict_measurements(config, trials)
        for config in ("android", "initiator", "delegate")
    }
    for op_name in ("dict insert", "dict update", "dict query 1", "dict query 1k", "dict delete"):
        for config in ("initiator", "delegate"):
            rows.append(
                [
                    op_name,
                    config,
                    pct(overhead_pct(dictionary["android"][op_name], dictionary[config][op_name])),
                    pct(PAPER_TABLE3[(op_name, config)]),
                ]
            )
    return render_table(
        ["Operation", "Setup", "Measured overhead", "Paper overhead"],
        rows,
        title="Table 3 — microbenchmark overheads vs unmodified Android",
    )


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------


def table4(trials: int) -> str:
    rows = []
    paper = {
        ("download", "android"): "7.29±0.39 s",
        ("download", "maxoid-public"): "7.13±0.28 s",
        ("download", "maxoid-volatile"): "7.23±0.21 s",
        ("scan", "android"): "1.54±0.02 s",
        ("scan", "maxoid-public"): "1.54±0.02 s",
        ("scan", "maxoid-volatile"): "1.55±0.02 s",
    }
    for setup in ("android", "maxoid-public", "maxoid-volatile"):
        maxoid = setup != "android"
        volatile = setup == "maxoid-volatile"

        def download_run():
            device = fresh(maxoid)
            publish_download_set(device, count=100)
            api = device.spawn(APP)
            for index in range(100):
                api.enqueue_download(
                    f"https://bench.example.com/dl{index:04d}.bin",
                    f"dl{index:04d}.bin",
                    volatile=volatile,
                )
            device.run_downloads()

        m = measure(download_run, trials=max(2, trials // 20))
        rows.append(["download 100x1KB", setup, str(m), paper[("download", setup)]])
    for setup in ("android", "maxoid-public", "maxoid-volatile"):
        maxoid = setup != "android"
        volatile = setup == "maxoid-volatile"

        def scan_run():
            device = fresh(maxoid)
            api = device.spawn(APP)
            for path in make_image_files(api, count=20, size=64 * 1024):
                api.scan_media(path, volatile=volatile)

        m = measure(scan_run, trials=max(2, trials // 20))
        rows.append(["scan 20 images*", setup, str(m), paper[("scan", setup)]])
    table = render_table(
        ["Workload", "Setup", "Measured (sim)", "Paper (Nexus 7)"],
        rows,
        title="Table 4 — Downloads and Media provider workloads",
    )
    return table + "\n(* image count scaled 100 -> 20 for run time; shape is unaffected)"


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------


def table5(trials: int) -> str:
    from repro.apps import CamScannerApp, CameraApp, PdfViewerApp

    rows = []
    tasks = {
        "adobe_open_1_6mb": "Adobe Reader: open 1.6MB file",
        "adobe_in_file_search": "Adobe Reader: in-file search",
        "camscanner_process_page": "CamScanner: process page",
        "cameramx_take_photo": "CameraMX: take photo",
        "cameramx_save_edited": "CameraMX: save edited photo",
    }
    io_times = {}
    for config in ("android", "initiator", "delegate"):
        device = Device(maxoid_enabled=config != "android")
        device.install(AndroidManifest(package=INITIATOR), _Nop())
        adobe = PdfViewerApp.install(device)
        camscanner = CamScannerApp.install(device)
        camera = CameraApp.install(device)

        def spawn(package):
            if config == "delegate":
                return device.spawn(package, initiator=INITIATOR)
            return device.spawn(package)

        owner = device.spawn(PdfViewerApp.BUILD.package)
        owner.write_internal("docs/big.pdf", deterministic_bytes(1_600_000))
        viewer = spawn(PdfViewerApp.BUILD.package)
        open_intent = Intent(
            Intent.ACTION_VIEW,
            extras={"path": f"/data/data/{PdfViewerApp.BUILD.package}/docs/big.pdf"},
        )
        document = deterministic_bytes(1_600_000)
        scanner_api = spawn(CamScannerApp.BUILD.package)
        page = scanner_api.write_external("in/page.jpg", deterministic_bytes(200_000))
        camera_api = spawn(CameraApp.BUILD.package)
        frame = deterministic_bytes(300_000)
        photo = camera.main(
            camera_api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": frame})
        )
        ops = {
            "adobe_open_1_6mb": lambda: adobe.main(viewer, open_intent),
            "adobe_in_file_search": lambda: adobe.search(viewer, document, b"\x42\x17"),
            "camscanner_process_page": lambda: camscanner.main(
                scanner_api, Intent(Intent.ACTION_SCAN, extras={"path": page})
            ),
            "cameramx_take_photo": lambda: camera.main(
                camera_api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": frame})
            ),
            "cameramx_save_edited": lambda: camera.main(
                camera_api, Intent(Intent.ACTION_EDIT, extras={"path": photo["path"]})
            ),
        }
        io_times[config] = {
            task: measure(op, trials=max(3, trials // 10)).mean_ms
            for task, op in ops.items()
        }
    for task, label in tasks.items():
        base = io_times["android"][task]
        row = [label, f"{TASK_BASELINES_MS[task]:.0f} ms"]
        for config in ("initiator", "delegate"):
            scale = io_times[config][task] / base if base > 0 else 1.0
            row.append(f"{modelled_task_latency(task, scale):.0f} ms")
        rows.append(row)
    return render_table(
        ["Task", "Android (paper)", "Maxoid initiator (modelled)", "Maxoid delegate (modelled)"],
        rows,
        title="Table 5 — user-perceivable task latency (paper baseline + measured sim I/O scale)",
    )


# ---------------------------------------------------------------------------


def figure1() -> str:
    device = Device(maxoid_enabled=True)
    device.install(AndroidManifest(package="com.fig.a"), _Nop())
    device.install(AndroidManifest(package="com.fig.b"), _Nop())
    device.network.add_host("example.com")
    checks = figure1_flow_matrix(device, "com.fig.a", "com.fig.b")
    rows = [
        [c.description, "yes" if c.expected else "no", "yes" if c.observed else "no",
         "OK" if c.ok else "MISMATCH"]
        for c in checks
    ]
    return render_table(
        ["Flow", "Figure 1 allows", "Observed", "Verdict"],
        rows,
        title="Figure 1 — information-flow matrix",
    )


def export_trace(trials: int, perfetto: str = None, folded: str = None) -> None:
    """Trace a delegate workload and export it as a Perfetto-loadable
    JSON and/or a folded-stacks flamegraph file."""
    from repro.obs import OBS
    from repro.obs.export import write_chrome_trace, write_folded_stacks

    device = fresh(maxoid=True)
    payload = deterministic_bytes(4096)
    with OBS.capture(ring_capacity=65536) as obs:
        api = api_for(device, "delegate")
        for index in range(max(1, trials)):
            api.write_external(f"bench/art{index}.bin", payload)
            api.sys.read_file(f"/storage/sdcard/bench/art{index}.bin")
            api.insert(WORDS, ContentValues({"word": f"w{index}"}))
        trees = obs.trees()
    if perfetto:
        write_chrome_trace(perfetto, trees)
    if folded:
        write_folded_stacks(folded, trees)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=40, help="trials per micro-op")
    parser.add_argument("--out", type=str, default=None, help="also write to this file")
    parser.add_argument(
        "--perfetto",
        type=str,
        default=None,
        metavar="PATH",
        help="export the traced delegate workload as Chrome/Perfetto "
        "trace-event JSON (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--folded",
        type=str,
        default=None,
        metavar="PATH",
        help="export the traced delegate workload as folded flamegraph stacks",
    )
    args = parser.parse_args()
    sections = [
        table1(),
        table2(),
        table3(args.trials),
        table4(args.trials),
        table5(args.trials),
        figure1(),
    ]
    text = ("\n\n" + "=" * 78 + "\n\n").join(sections)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.perfetto or args.folded:
        export_trace(args.trials, perfetto=args.perfetto, folded=args.folded)
    return 0


if __name__ == "__main__":
    sys.exit(main())
