"""Disabled-tracer fast-path overhead regression.

The instrumentation contract is "zero cost when disabled": a disarmed
``@boundary`` costs its wrapper call plus one ``enabled`` check per
declared plane. This test measures a VFS read/write microloop through the
instrumented entry points (observability off) against the same loop
through their bare bodies (``Syscalls.write_file.__wrapped__`` and
``read_file.__wrapped__``), so the difference is exactly the wrappers'
disarmed cost.

The nominal budget is <5%; the assertion uses a deliberately generous
bound so a noisy CI machine cannot flake the suite, while still catching a
regression that puts real work (dict lookups, span allocation, kwargs
building) on the disabled path. To keep the comparison deterministic on a
shared machine the two loops are interleaved round by round and compared
on their best (minimum) round time: the gate's cost is deterministic and
survives the minimum, while scheduler and allocator noise — which only
ever adds time — is filtered out of both sides equally.
"""

import gc
import time

import pytest

from repro import AndroidManifest, Device
from repro.kernel.syscall import Syscalls
from repro.obs import OBS
from repro.obs.artifacts import bench_json_target, update_bench_json

pytestmark = pytest.mark.trace

APP = "com.obs.overhead"

# Generous CI bound over the ~5% nominal cost of the enabled-flag checks.
MAX_OVERHEAD_PCT = 35.0
OPS_PER_TRIAL = 40
ROUNDS = 120


@pytest.fixture
def api():
    device = Device(maxoid_enabled=True)
    device.install(AndroidManifest(package=APP), object())
    api = device.spawn(APP)
    api.sys.makedirs("/storage/sdcard/bench")
    api.sys.write_file("/storage/sdcard/bench/file.bin", b"d" * 4096)
    return api


def test_disabled_tracer_read_write_overhead(api):
    assert not OBS.enabled
    sys = api.sys
    payload = b"w" * 4096

    def gated_loop():
        for _ in range(OPS_PER_TRIAL):
            sys.write_file("/storage/sdcard/bench/file.bin", payload)
            sys.read_file("/storage/sdcard/bench/file.bin")

    write_body = Syscalls.write_file.__wrapped__
    read_body = Syscalls.read_file.__wrapped__

    def ungated_loop():
        # The bare bodies under the read/write boundaries (open's boundary
        # inside them remains, which only makes this baseline
        # conservative).
        for _ in range(OPS_PER_TRIAL):
            write_body(sys, "/storage/sdcard/bench/file.bin", payload)
            read_body(sys, "/storage/sdcard/bench/file.bin")

    # Warm caches and any lazily-built state on both paths.
    gated_loop()
    ungated_loop()

    best_gated = best_ungated = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            start = time.perf_counter()
            ungated_loop()
            best_ungated = min(best_ungated, time.perf_counter() - start)
            start = time.perf_counter()
            gated_loop()
            best_gated = min(best_gated, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()

    overhead = (best_gated - best_ungated) / best_ungated * 100.0
    target = bench_json_target()
    if target:
        update_bench_json(
            target,
            "gate_overhead_obs",
            {
                "disabled_pct": round(overhead, 3),
                "budget_pct": MAX_OVERHEAD_PCT,
                "best_gated_s": best_gated,
                "best_ungated_s": best_ungated,
            },
        )
    assert overhead < MAX_OVERHEAD_PCT, (
        f"disabled-tracer fast path costs {overhead:.1f}% over the ungated "
        f"loop (budget {MAX_OVERHEAD_PCT}%; nominal target <5%)"
    )


def test_disabled_instrumentation_records_nothing(api):
    spans_before = len(OBS.spans())
    before = OBS.metrics.snapshot()
    api.sys.write_file("/storage/sdcard/bench/silent.bin", b"x")
    api.sys.read_file("/storage/sdcard/bench/silent.bin")
    assert len(OBS.spans()) == spans_before
    assert (OBS.metrics.snapshot() - before).nonzero().counters == {}


def test_profile_cycle_leaves_no_residue_on_the_disabled_path(api):
    """Arming and disarming ``OBS.profile`` must leave the disabled fast
    path exactly as it found it: no tracer listeners, no histogram state,
    nothing recorded by the instrumented loop afterwards. The profile
    switch is implemented as a span listener, so an empty listener list
    *is* the zero-cost guarantee — the hot path re-checks only
    ``OBS.enabled``, same as before this subsystem existed."""
    OBS.enable_profile()
    OBS.disable()
    OBS.reset()
    assert not OBS.enabled and not OBS.profile
    assert OBS.profiler.on_span not in OBS.tracer._listeners

    before = OBS.metrics.snapshot()
    for _ in range(OPS_PER_TRIAL):
        api.sys.write_file("/storage/sdcard/bench/file.bin", b"p" * 4096)
        api.sys.read_file("/storage/sdcard/bench/file.bin")
    assert len(OBS.spans()) == 0
    after = OBS.metrics.snapshot()
    assert not any(
        name.startswith("lat.") for name in (after - before).histograms
    ), "profile-off loop still fed lat.* histograms"


def test_profile_off_tracing_on_adds_no_listener_work(api):
    """With tracing enabled but ``profile`` off, span finish must not
    call into the profile recorder at all (listener never registered)."""
    with OBS.capture() as obs:
        seen_before = OBS.profiler.spans_seen
        api.sys.read_file("/storage/sdcard/bench/file.bin")
        assert obs.spans(), "positive control: tracing recorded nothing"
    assert OBS.profiler.spans_seen == seen_before
