"""Table 5: user-perceivable application task latency.

Paper tasks: Adobe Reader open a 1.6 MB file / in-file search; CamScanner
process a scanned page; CameraMX take a photo / save an edited photo —
each on Android, as a Maxoid initiator, and as a Maxoid delegate.

Two outputs:

1. pytest-benchmark times the *simulated I/O portion* of each task under
   each configuration (this is all Maxoid can affect);
2. each test also reports the modelled end-to-end latency by combining the
   paper's Android-column baselines with the measured I/O scale factor
   (see :mod:`repro.workloads.latency`) — run with ``-s`` to see it. The
   paper's claim reproduces iff the modelled Maxoid columns stay within a
   few percent of the baseline.
"""

from __future__ import annotations

import pytest

from repro import AndroidManifest, Device, Intent
from repro.apps import CamScannerApp, CameraApp, PdfViewerApp
from repro.workloads.generators import deterministic_bytes
from repro.workloads.latency import TASK_BASELINES_MS, modelled_task_latency

INITIATOR = "com.bench.initiator"
DOC_SIZE = 1_600_000  # the paper's 1.6 MB PDF


class _Nop:
    def main(self, api, intent):
        return None


def env_for(config: str):
    device = Device(maxoid_enabled=config != "android")
    device.install(AndroidManifest(package=INITIATOR), _Nop())
    adobe = PdfViewerApp.install(device)
    camscanner = CamScannerApp.install(device)
    camera = CameraApp.install(device)
    return device, {"adobe": adobe, "camscanner": camscanner, "camera": camera}


def spawn(device, package, config):
    if config == "delegate":
        return device.spawn(package, initiator=INITIATOR)
    return device.spawn(package)


def report(task: str, config: str, io_ms: float, baseline_io_ms: float) -> None:
    scale = io_ms / baseline_io_ms if baseline_io_ms > 0 else 1.0
    total = modelled_task_latency(task, scale)
    print(
        f"\n[table5] {task} ({config}): measured sim I/O {io_ms:.3f} ms, "
        f"io-scale {scale:.2f}x -> modelled latency {total:.0f} ms "
        f"(paper Android column: {TASK_BASELINES_MS[task]:.0f} ms)"
    )


# A module-level cache of baseline (android) I/O times per task so the
# delegate/initiator runs can report a scale factor.
_BASELINES = {}


def _remember(task: str, config: str, benchmark) -> None:
    if benchmark.stats is None:  # --benchmark-disable times nothing
        return
    mean_ms = benchmark.stats["mean"] * 1000
    if config == "android":
        _BASELINES[task] = mean_ms
    baseline = _BASELINES.get(task, mean_ms)
    report(task, config, mean_ms, baseline)


@pytest.fixture(params=["android", "initiator", "delegate"])
def config(request):
    return request.param


@pytest.mark.benchmark(group="table5-adobe-open")
def bench_adobe_open(benchmark, config):
    """Open a 1.6 MB document: read + recents write (+ render, unmeasured)."""
    device, apps = env_for(config)
    owner = device.spawn(PdfViewerApp.BUILD.package)
    owner.write_internal("docs/big.pdf", deterministic_bytes(DOC_SIZE))
    api = spawn(device, PdfViewerApp.BUILD.package, config)
    intent = Intent(
        Intent.ACTION_VIEW,
        extras={"path": f"/data/data/{PdfViewerApp.BUILD.package}/docs/big.pdf"},
    )

    result = benchmark(apps["adobe"].main, api, intent)
    assert result["bytes"] == DOC_SIZE
    _remember("adobe_open_1_6mb", config, benchmark)


@pytest.mark.benchmark(group="table5-adobe-search")
def bench_adobe_search(benchmark, config):
    """In-file search: pure CPU over the loaded document."""
    device, apps = env_for(config)
    api = spawn(device, PdfViewerApp.BUILD.package, config)
    document = deterministic_bytes(DOC_SIZE)

    count = benchmark(apps["adobe"].search, api, document, b"\x42\x17")
    assert count >= 0
    _remember("adobe_in_file_search", config, benchmark)


@pytest.mark.benchmark(group="table5-camscanner")
def bench_camscanner_page(benchmark, config):
    """Process a scanned page: private DB + 3 SD-card writes."""
    device, apps = env_for(config)
    api = spawn(device, CamScannerApp.BUILD.package, config)
    source = api.write_external("input/page.jpg", deterministic_bytes(200_000))
    state = {"i": 0}

    def run():
        state["i"] += 1
        return apps["camscanner"].main(
            api, Intent(Intent.ACTION_SCAN, extras={"path": source})
        )

    result = benchmark(run)
    assert result["name"] == "page.jpg"
    _remember("camscanner_process_page", config, benchmark)


@pytest.mark.benchmark(group="table5-camera-photo")
def bench_camera_take_photo(benchmark, config):
    """Take a photo: SD write + media scan."""
    device, apps = env_for(config)
    api = spawn(device, CameraApp.BUILD.package, config)
    frame = deterministic_bytes(300_000)

    def run():
        return apps["camera"].main(
            api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": frame})
        )

    result = benchmark(run)
    assert result["path"]
    _remember("cameramx_take_photo", config, benchmark)


@pytest.mark.benchmark(group="table5-camera-edit")
def bench_camera_save_edited(benchmark, config):
    """Save an edited photo: read original, write edit, media scan."""
    device, apps = env_for(config)
    api = spawn(device, CameraApp.BUILD.package, config)
    original = apps["camera"].main(
        api, Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": deterministic_bytes(300_000)})
    )

    def run():
        return apps["camera"].main(
            api, Intent(Intent.ACTION_EDIT, extras={"path": original["path"]})
        )

    result = benchmark(run)
    assert result["media_uri"]
    _remember("cameramx_save_edited", config, benchmark)
