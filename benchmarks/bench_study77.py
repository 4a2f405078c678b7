"""The 77-app compatibility census as a benchmark (paper section 7.1).

"Out of the 77 data processing apps we analyzed in §2, only three
(DocuSign, EasySign and ThinkTI Document Converter) cannot work when they
run as delegates, due to loss of network connection."

The bench times the full census (install 77 apps, run each once as a
delegate, classify) and asserts the 74/77 split.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device
from repro.apps.fleet import NETWORK_DEPENDENT, run_fleet_as_delegates

INITIATOR = "com.census.initiator"


@pytest.mark.benchmark(group="study77-census")
def bench_compatibility_census(benchmark):
    def census():
        device = make_device(True, INITIATOR)
        owner = device.spawn(INITIATOR)
        path = owner.write_internal("docs/target.pdf", b"census payload")
        return run_fleet_as_delegates(device, INITIATOR, path)

    worked, failed = benchmark(census)
    assert len(worked) == 74
    assert set(failed) == NETWORK_DEPENDENT
    print(f"\n[study77] {len(worked)}/77 apps work as delegates; "
          f"failures (network loss): {sorted(failed)}")


@pytest.mark.benchmark(group="study77-census")
def bench_census_with_trusted_cloud(benchmark):
    """With the trusted-cloud extension, the three networked apps work too."""

    def census():
        device = make_device(True, INITIATOR)
        owner = device.spawn(INITIATOR)
        path = owner.write_internal("docs/target.pdf", b"census payload")
        cloud = device.network.enable_trusted_cloud()
        for package in NETWORK_DEPENDENT:
            cloud.register_backend(package, f"{package}.example")
        return run_fleet_as_delegates(device, INITIATOR, path)

    worked, failed = benchmark(census)
    assert len(worked) == 77 and failed == []
