"""Fleet observability benchmark: aggregation cost + sampled-on overhead.

Measures what the fleet telemetry plane itself costs, at a small fleet
scale (N devices with isolated ObsContexts, each loaded with the same
delegate workload):

- ``fleet_merge``        — merging N per-device registry snapshots into
  the fleet-wide totals (:meth:`FleetTelemetry.merged_metrics`);
- ``fleet_prom_export``  — the device-labeled Prometheus exposition over
  the whole fleet;
- ``fleet_health``       — building + rendering the ``fleet_health()``
  report;
- ``sampled_write_4kb``  — a delegate file write with tracing enabled at
  ``sample_rate=0.1`` (the always-on fleet configuration), against
  ``traced_write_4kb`` (rate 1.0) and ``disabled_write_4kb`` (off): the
  sampled-on overhead the zero-cost gate acceptance tracks.

It prints the median and MAD of every op and the sampled and traced
overheads against the disabled write.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_obs.py [--devices N] [--trials N]
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import AndroidManifest, Device  # noqa: E402
from repro.obs.fleet import FleetTelemetry  # noqa: E402
from repro.workloads.generators import deterministic_bytes  # noqa: E402
from repro.workloads.harness import measure  # noqa: E402

APP = "com.fleet.app"
INITIATOR = "com.fleet.initiator"

DEFAULT_DEVICES = 8


def _loaded_device(index: int) -> Device:
    """One device with its own context, enabled, plus a little workload
    so every registry has realistic counter/histogram content."""
    device = Device(maxoid_enabled=True, device_id=f"dev{index}")
    device.obs.enable()
    device.install(AndroidManifest(package=APP))
    device.install(AndroidManifest(package=INITIATOR))
    payload = deterministic_bytes(1024)
    api = device.spawn(APP, initiator=INITIATOR)
    for step in range(8):
        api.write_internal(f"bench/f{step}.bin", payload)
        api.sys.read_file(f"/data/data/{APP}/bench/f{step}.bin")
    return device


def fleet_measurements(n_devices: int, trials: int) -> dict:
    results: dict = {}
    fleet = FleetTelemetry()
    devices = [_loaded_device(index) for index in range(n_devices)]
    for device in devices:
        fleet.register_device(device)

    results["fleet_merge"] = measure(
        fleet.merged_metrics, trials=trials, label="fleet_merge"
    )
    results["fleet_prom_export"] = measure(
        fleet.to_prometheus_text, trials=trials, label="fleet_prom_export"
    )
    results["fleet_health"] = measure(
        lambda: fleet.fleet_health().render(), trials=trials, label="fleet_health"
    )

    # Sampled-on overhead: the same delegate write under three tracing
    # configurations on one device. Sampling keeps the ring bounded, so
    # the measured op runs at fleet steady-state, not into a growing ring.
    device = devices[0]
    payload = deterministic_bytes(4096)
    api = device.spawn(APP, initiator=INITIATOR)
    state = {"i": 0}

    def write_4kb():
        state["i"] += 1
        api.write_internal(f"bench/s{state['i'] % 64}.bin", payload)

    device.obs.disable()
    results["disabled_write_4kb"] = measure(
        write_4kb, trials=trials, label="disabled_write_4kb"
    )
    device.obs.enable(ring_capacity=4096, sample_rate=1.0, sample_seed=7)
    results["traced_write_4kb"] = measure(
        write_4kb, trials=trials, label="traced_write_4kb"
    )
    device.obs.enable(ring_capacity=4096, sample_rate=0.1, sample_seed=7)
    results["sampled_write_4kb"] = measure(
        write_4kb, trials=trials, label="sampled_write_4kb"
    )
    device.obs.disable()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=DEFAULT_DEVICES)
    parser.add_argument("--trials", type=int, default=30, help="trials per op")
    args = parser.parse_args(argv)
    results = fleet_measurements(args.devices, args.trials)
    width = max(len(op) for op in results)
    print(f"-- fleet obs bench ({args.devices} devices, {args.trials} trials/op) --")
    for op, m in sorted(results.items()):
        print(f"  {op:<{width}}  median {m.median_ms:8.3f} ms  mad {m.mad_ms:7.3f} ms")
    disabled = results["disabled_write_4kb"].median_ms
    if disabled > 0:
        for op in ("sampled_write_4kb", "traced_write_4kb"):
            pct = (results[op].median_ms - disabled) / disabled * 100.0
            print(f"  {op} overhead vs disabled: {pct:+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
