"""Table 5: user-perceivable application task latency.

Paper tasks: Adobe Reader open a 1.6 MB file / in-file search; CamScanner
process a scanned page; CameraMX take a photo / save an edited photo —
each on Android, as a Maxoid initiator, and as a Maxoid delegate.

pytest-benchmark times the *simulated I/O portion* of each task under
each configuration (this is all Maxoid can affect). :func:`render` times
the same ops and reports the modelled end-to-end latency, combining the
paper's Android-column baselines with the measured I/O scale factor (see
:mod:`repro.workloads.latency`). The paper's claim reproduces iff the
modelled Maxoid columns stay within a few percent of the baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_INITIATOR, CONFIGS, make_device, spawn_for
from repro import Intent
from repro.apps import CamScannerApp, CameraApp, PdfViewerApp
from repro.workloads.generators import deterministic_bytes
from repro.workloads.harness import measure
from repro.workloads.latency import TASK_BASELINES_MS, modelled_task_latency
from repro.workloads.reports import render_table

DOC_SIZE = 1_600_000  # the paper's 1.6 MB PDF
ADOBE = PdfViewerApp.BUILD.package
TASKS = {
    "adobe_open_1_6mb": "Adobe Reader: open 1.6MB file",
    "adobe_in_file_search": "Adobe Reader: in-file search",
    "camscanner_process_page": "CamScanner: process page",
    "cameramx_take_photo": "CameraMX: take photo",
    "cameramx_save_edited": "CameraMX: save edited photo",
}


def task_ops(config):
    """The I/O portion of every task under ``config``, on one device."""
    device = make_device(config != "android", BENCH_INITIATOR)
    adobe = PdfViewerApp.install(device)
    camscanner = CamScannerApp.install(device)
    camera = CameraApp.install(device)
    device.spawn(ADOBE).write_internal("docs/big.pdf", deterministic_bytes(DOC_SIZE))
    viewer = spawn_for(device, config, ADOBE)
    open_intent = Intent(Intent.ACTION_VIEW, extras={"path": f"/data/data/{ADOBE}/docs/big.pdf"})
    document = deterministic_bytes(DOC_SIZE)
    scanner_api = spawn_for(device, config, CamScannerApp.BUILD.package)
    page = scanner_api.write_external("input/page.jpg", deterministic_bytes(200_000))
    camera_api = spawn_for(device, config, CameraApp.BUILD.package)
    frame = deterministic_bytes(300_000)

    def take_photo():
        return camera.main(camera_api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": frame}))

    original = take_photo()
    return {
        # read + recents write (+ render, unmeasured)
        "adobe_open_1_6mb": lambda: adobe.main(viewer, open_intent),
        # pure CPU over the loaded document
        "adobe_in_file_search": lambda: adobe.search(viewer, document, b"\x42\x17"),
        # private DB + 3 SD-card writes
        "camscanner_process_page": lambda: camscanner.main(
            scanner_api, Intent(Intent.ACTION_SCAN, extras={"path": page})
        ),
        # SD write + media scan
        "cameramx_take_photo": take_photo,
        # read original, write edit, media scan
        "cameramx_save_edited": lambda: camera.main(
            camera_api, Intent(Intent.ACTION_EDIT, extras={"path": original["path"]})
        ),
    }


def render(trials: int) -> str:
    io_ms = {
        config: {
            task: measure(op, trials=max(3, trials // 10)).mean_ms
            for task, op in task_ops(config).items()
        }
        for config in CONFIGS
    }
    rows = []
    for task, label in TASKS.items():
        base = io_ms["android"][task]
        row = [label, f"{TASK_BASELINES_MS[task]:.0f} ms"]
        for config in ("initiator", "delegate"):
            scale = io_ms[config][task] / base if base > 0 else 1.0
            row.append(f"{modelled_task_latency(task, scale):.0f} ms")
        rows.append(row)
    return render_table(
        ["Task", "Android (paper)", "Maxoid initiator (modelled)", "Maxoid delegate (modelled)"],
        rows,
        title="Table 5 — user-perceivable task latency (paper baseline + measured sim I/O scale)",
    )


@pytest.mark.benchmark(group="table5-adobe-open")
def bench_adobe_open(benchmark, config):
    """Open a 1.6 MB document."""
    assert benchmark(task_ops(config)["adobe_open_1_6mb"])["bytes"] == DOC_SIZE


@pytest.mark.benchmark(group="table5-adobe-search")
def bench_adobe_search(benchmark, config):
    """In-file search over the loaded document."""
    assert benchmark(task_ops(config)["adobe_in_file_search"]) >= 0


@pytest.mark.benchmark(group="table5-camscanner")
def bench_camscanner_page(benchmark, config):
    """Process a scanned page."""
    assert benchmark(task_ops(config)["camscanner_process_page"])["name"] == "page.jpg"


@pytest.mark.benchmark(group="table5-camera-photo")
def bench_camera_take_photo(benchmark, config):
    """Take a photo."""
    assert benchmark(task_ops(config)["cameramx_take_photo"])["path"]


@pytest.mark.benchmark(group="table5-camera-edit")
def bench_camera_save_edited(benchmark, config):
    """Save an edited photo."""
    assert benchmark(task_ops(config)["cameramx_save_edited"])["media_uri"]
