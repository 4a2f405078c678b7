"""Shared benchmark fixtures and the one device helper every bench uses.

Every benchmark compares up to three configurations, matching the paper's
evaluation:

- ``android`` — the stock baseline (``Device(maxoid_enabled=False)``);
- ``initiator`` — Maxoid enabled, the measured app runs on behalf of
  itself;
- ``delegate`` — Maxoid enabled, the measured app runs on behalf of an
  initiator.

Run with ``pytest benchmarks/ --benchmark-only``; the pytest-benchmark
table then shows the three configurations side by side per operation, the
shape the paper's Tables 3-5 report. Each ``bench_table*.py`` /
``bench_fig1_flows.py`` module is the one definition of its table: its
``render`` times the same ops with :func:`repro.workloads.harness.measure`,
and ``benchmarks/report_tables.py`` joins those sections for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import re

import pytest

from repro import AndroidManifest, Device
from repro.apps import install_standard_apps
from repro.obs import OBS, format_breakdown


def pytest_addoption(parser):
    parser.addoption(
        "--obs-jsonl",
        action="store",
        default=None,
        metavar="DIR",
        help="dump one JSONL trace file per benchmark using the obs_capture "
        "fixture into DIR (created if missing)",
    )
    parser.addoption(
        "--obs-prom",
        action="store",
        default=None,
        metavar="DIR",
        help="dump a Prometheus-text metrics file per benchmark using the "
        "obs_capture fixture into DIR (created if missing)",
    )
    parser.addoption(
        "--obs-perfetto",
        action="store",
        default=None,
        metavar="DIR",
        help="dump a Chrome/Perfetto trace-event JSON file per benchmark "
        "using the obs_capture fixture into DIR (open in ui.perfetto.dev)",
    )
    parser.addoption(
        "--faults-seed",
        action="store",
        default=None,
        type=int,
        metavar="SEED",
        help="arm probabilistic fault injection (via the chaos_faults "
        "fixture) with this seed; the same seed reproduces the same fault "
        "schedule byte-for-byte",
    )


BENCH_APP = "com.bench.app"
BENCH_INITIATOR = "com.bench.initiator"
CONFIGS = ("android", "initiator", "delegate")


class _NopApp:
    def main(self, api, intent):
        return None


def make_device(maxoid: bool, *packages) -> Device:
    """A device with a do-nothing app installed for each package, given by
    name or as an :class:`AndroidManifest`; by default the measured app and
    its initiator."""
    device = Device(maxoid_enabled=maxoid)
    for package in packages or (BENCH_APP, BENCH_INITIATOR):
        if isinstance(package, str):
            package = AndroidManifest(package=package)
        device.install(package, _NopApp())
    return device


def spawn_for(device: Device, config: str, package: str = BENCH_APP):
    """An AppApi for ``package`` under the given configuration."""
    if config == "delegate":
        return device.spawn(package, initiator=BENCH_INITIATOR)
    return device.spawn(package)


@pytest.fixture(params=CONFIGS)
def config(request):
    return request.param


@pytest.fixture
def obs_capture(request):
    """Cross-layer tracing + metrics for one benchmark.

    Yields the enabled :data:`repro.obs.OBS` instance; the benchmark body
    runs traced, and at teardown a per-layer self-time breakdown is printed
    (visible with ``-s``). With ``--obs-jsonl DIR`` the finished spans are
    also dumped to ``DIR/<test>.jsonl`` for offline analysis; with
    ``--obs-prom DIR`` the metrics registry is dumped to ``DIR/<test>.prom``
    in the Prometheus text format.
    """
    stem = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
    out_dir = request.config.getoption("--obs-jsonl")
    jsonl_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        jsonl_path = os.path.join(out_dir, f"{stem}.jsonl")
    prom_dir = request.config.getoption("--obs-prom")
    perfetto_dir = request.config.getoption("--obs-perfetto")
    with OBS.capture(jsonl_path=jsonl_path, profile=bool(perfetto_dir)) as obs:
        yield obs
        if prom_dir:
            os.makedirs(prom_dir, exist_ok=True)
            prom_path = os.path.join(prom_dir, f"{stem}.prom")
            with open(prom_path, "w", encoding="utf-8") as fh:
                fh.write(obs.metrics.to_prometheus_text())
        if perfetto_dir:
            from repro.obs.export import write_chrome_trace

            os.makedirs(perfetto_dir, exist_ok=True)
            write_chrome_trace(
                os.path.join(perfetto_dir, f"{stem}.trace.json"), obs.trees()
            )
        spans = obs.spans()
        if spans:
            print()
            print(format_breakdown(spans, title=request.node.name))


@pytest.fixture
def chaos_faults(request):
    """Seeded chaos for one benchmark (no-op without ``--faults-seed``).

    With ``--faults-seed SEED``, every registered fault point is armed
    with a low-probability error policy derived from SEED; the benchmark
    then measures the system under fault load, and the schedule it prints
    is reproducible by re-running with the same SEED. Yields the fault
    plane (disabled when the option is absent).
    """
    from repro.workloads.harness import arm_chaos

    seed = request.config.getoption("--faults-seed")
    if seed is None:
        from repro.faults import FAULTS

        yield FAULTS
        return
    with arm_chaos(seed) as plane:
        yield plane
        if plane.injection_log:
            print()
            print(
                f"chaos seed {seed}: {len(plane.injection_log)} faults over "
                f"{len(plane.schedule)} consults"
            )


@pytest.fixture
def loaded_bench_device():
    """A Maxoid device with the full app catalog (figure/use-case benches)."""
    device = Device(maxoid_enabled=True)
    device.network.publish("dropbox.com", "report.pdf", b"%PDF dropbox report")
    device.network.publish("example.com", "leaflet.pdf", b"%PDF leaflet")
    device.apps = install_standard_apps(device)
    return device
