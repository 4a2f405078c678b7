"""Table 4: Downloads and Media provider workloads.

Paper rows: (1) download 100 × 1 KB files; (2) scan 100 × ~780 KB images
storing metadata into the Media provider. Columns: unmodified Android,
Maxoid to public state, Maxoid to volatile state. Expected shape: all
three within noise of each other (the paper reports no overhead).

The image workload is scaled down (IMAGE_COUNT × IMAGE_SIZE) for benchmark
round time; :func:`render` times the same scaled runs for the report.
"""

from __future__ import annotations

from functools import partial

import pytest

from benchmarks.conftest import BENCH_APP, make_device
from repro.android.uri import Uri
from repro.workloads.generators import make_image_files, publish_download_set
from repro.workloads.harness import measure
from repro.workloads.reports import render_table

HOST = "bench.example.com"
DOWNLOAD_COUNT = 100
IMAGE_COUNT = 20  # scaled from the paper's 100 for bench round time
IMAGE_SIZE = 64 * 1024  # scaled from 780 KB
MEDIA = Uri.content("media", "files")
SETUPS = ("android", "maxoid-public", "maxoid-volatile")

PAPER = {
    ("download", "android"): "7.29±0.39 s",
    ("download", "maxoid-public"): "7.13±0.28 s",
    ("download", "maxoid-volatile"): "7.23±0.21 s",
    ("scan", "android"): "1.54±0.02 s",
    ("scan", "maxoid-public"): "1.54±0.02 s",
    ("scan", "maxoid-volatile"): "1.55±0.02 s",
}


def download_run(setup):
    """Download 100 1KB files via DownloadManager on a fresh device."""
    device = make_device(setup != "android")
    publish_download_set(device, count=DOWNLOAD_COUNT, host=HOST)
    api = device.spawn(BENCH_APP)
    for index in range(DOWNLOAD_COUNT):
        api.enqueue_download(
            f"https://{HOST}/dl{index:04d}.bin",
            f"dl{index:04d}.bin",
            volatile=setup == "maxoid-volatile",
        )
    assert device.run_downloads() == DOWNLOAD_COUNT
    return device


def scan_run(setup):
    """Scan images into the Media provider on a fresh device. The paper's
    tester runs as an initiator for the public case and as an initiator
    using its volatile state for the volatile case."""
    device = make_device(setup != "android")
    api = device.spawn(BENCH_APP)
    for path in make_image_files(api, count=IMAGE_COUNT, size=IMAGE_SIZE):
        api.scan_media(path, volatile=setup == "maxoid-volatile")
    return device


def render(trials: int) -> str:
    rows = []
    for workload, label, run in (
        ("download", "download 100x1KB", download_run),
        ("scan", f"scan {IMAGE_COUNT} images*", scan_run),
    ):
        for setup in SETUPS:
            m = measure(partial(run, setup), trials=max(2, trials // 20))
            rows.append([label, setup, str(m), PAPER[workload, setup]])
    table = render_table(
        ["Workload", "Setup", "Measured (sim)", "Paper (Nexus 7)"],
        rows,
        title="Table 4 — Downloads and Media provider workloads",
    )
    return table + f"\n(* image count scaled 100 -> {IMAGE_COUNT} for run time; shape is unaffected)"


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.benchmark(group="table4-download-100x1kb")
def bench_download_100_files(benchmark, setup):
    """Download 100 1KB files via DownloadManager (paper Table 4 row 1)."""
    device = benchmark(download_run, setup)
    # Verify placement semantics.
    observer = device.spawn(BENCH_APP)
    if setup == "maxoid-volatile":
        assert not observer.sys.exists("/storage/sdcard/Download/dl0000.bin")
        assert observer.sys.exists("/storage/sdcard/tmp/Download/dl0000.bin")
    else:
        assert observer.sys.exists("/storage/sdcard/Download/dl0000.bin")


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.benchmark(group="table4-media-scan")
def bench_scan_images(benchmark, setup):
    """Scan images into the Media provider (paper Table 4 row 2)."""
    api = benchmark(scan_run, setup).spawn(BENCH_APP)
    public_rows = api.query(MEDIA).rows
    if setup == "maxoid-volatile":
        assert public_rows == []
        assert len(api.query(MEDIA.to_volatile()).rows) == IMAGE_COUNT
    else:
        assert len(public_rows) == IMAGE_COUNT
