"""Shared fixtures: booted devices, installed app sets, fuzz profiles."""

from __future__ import annotations

import os

import pytest

from repro import Device
from repro.apps import install_standard_apps
from repro.faults import FAULTS
from repro.sched import SCHED

try:
    from hypothesis import HealthCheck, Phase, settings

    # The pinned CI fuzz profile: derandomized (fixed seed — a red run
    # reproduces with no flake surface), no deadline (simulated devices
    # pay a cold-start per example), example budget bounded but scalable
    # through FUZZ_EXAMPLES (tier-1 keeps the default; the CI fuzz lane
    # raises it). The planted-vulnerability positive controls disable the
    # shrink phase: the seeded driver does its own delta-debugging, so
    # hypothesis only needs to *find*, not minimize.
    settings.register_profile(
        "repro-ci",
        derandomize=True,
        deadline=None,
        max_examples=int(os.environ.get("FUZZ_EXAMPLES", "25")),
        stateful_step_count=25,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
            HealthCheck.data_too_large,
        ],
        print_blob=True,
    )
    settings.register_profile(
        "repro-ci-noshrink",
        settings.get_profile("repro-ci"),
        phases=(Phase.generate,),
    )
    settings.load_profile("repro-ci")
except ImportError:  # pragma: no cover - hypothesis is an extra
    pass


@pytest.fixture(autouse=True)
def _fault_plane_left_clean():
    """The default context's fault plane is shared by every test that
    builds a bare device; no test may leak an armed point into the next
    one."""
    yield
    if FAULTS.enabled or FAULTS.schedule:
        FAULTS.reset()


@pytest.fixture(autouse=True)
def _scheduler_left_clean():
    """The deterministic scheduler is a process-wide singleton; a test
    that leaks an enabled reactor would turn every later kernel call
    into a cooperative yield on a dead scheduler."""
    yield
    assert not SCHED.enabled, "a test left the deterministic scheduler enabled"


@pytest.fixture
def device():
    """A Maxoid-enabled device."""
    return Device(maxoid_enabled=True)


@pytest.fixture
def stock_device():
    """The unmodified-Android baseline."""
    return Device(maxoid_enabled=False)


@pytest.fixture
def loaded_device(device):
    """Maxoid device with the standard app catalog installed and a small
    fake internet."""
    device.network.publish("dropbox.com", "report.pdf", b"%PDF dropbox report")
    device.network.publish("drive.google.com", "notes.txt", b"drive notes body")
    device.network.publish("example.com", "leaflet.pdf", b"%PDF public leaflet")
    apps = install_standard_apps(device)
    device.apps = apps
    return device


@pytest.fixture
def loaded_stock_device(stock_device):
    """Baseline device with the same apps and internet."""
    stock_device.network.publish("dropbox.com", "report.pdf", b"%PDF dropbox report")
    stock_device.network.publish("drive.google.com", "notes.txt", b"drive notes body")
    stock_device.network.publish("example.com", "leaflet.pdf", b"%PDF public leaflet")
    apps = install_standard_apps(stock_device)
    stock_device.apps = apps
    return stock_device
