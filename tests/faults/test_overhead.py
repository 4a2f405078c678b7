"""Disabled fault-plane fast-path overhead regression.

Same contract and same measurement discipline as
``tests/obs/test_overhead.py``: a ``@boundary`` that declares a fault
point adds one ``FAULTS.enabled`` check to its disarmed path, so with the
plane disarmed the instrumented entry points must cost no measurable
overhead against their bare bodies (``Syscalls.write_file.__wrapped__``
and ``read_file.__wrapped__``). The loops are
interleaved round by round and compared on best-of-N minima so scheduler
and allocator noise (which only ever adds time) cancels out of both
sides.

Note the gated loop here carries *both* gates — observability and faults
— so this bound also covers their combined disabled cost.
"""

import gc
import time

import pytest

from repro import AndroidManifest, Device
from repro.faults import FAULTS
from repro.kernel.syscall import Syscalls
from repro.obs.artifacts import bench_json_target, update_bench_json

pytestmark = pytest.mark.faults

APP = "com.faults.overhead"

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


def test_disabled_fault_gate_write_overhead(api):
    assert not FAULTS.enabled
    sys = api.sys
    payload = b"w" * 4096

    def gated_loop():
        for _ in range(OPS_PER_TRIAL):
            sys.write_file("/storage/sdcard/bench/file.bin", payload)
            sys.read_file("/storage/sdcard/bench/file.bin")

    write_body = Syscalls.write_file.__wrapped__
    read_body = Syscalls.read_file.__wrapped__

    def ungated_loop():
        # The bare bodies under the read/write boundaries: the difference
        # to the gated loop is exactly the wrappers' disarmed cost (the
        # obs and faults checks), nothing else.
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
            "gate_overhead_faults",
            {
                "disabled_pct": round(overhead, 3),
                "budget_pct": MAX_OVERHEAD_PCT,
                "best_gated_s": best_gated,
                "best_ungated_s": best_ungated,
            },
        )
    assert overhead < MAX_OVERHEAD_PCT, (
        f"disabled fault-plane fast path costs {overhead:.1f}% over the "
        f"ungated loop (budget {MAX_OVERHEAD_PCT}%; nominal target <5%)"
    )


def test_disabled_plane_records_nothing(api):
    assert not FAULTS.enabled
    api.sys.write_file("/storage/sdcard/bench/silent.bin", b"x")
    api.sys.read_file("/storage/sdcard/bench/silent.bin")
    assert FAULTS.schedule == []
    assert FAULTS.injection_log == []
    assert FAULTS.hits("vfs.write") == 0
