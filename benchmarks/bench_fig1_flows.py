"""Figure 1: the confinement overview.

The figure shows which read/write arrows exist between A, B^A and the
Priv/Pub/Vol states. The benchmark executes the full flow matrix (11
attempted flows) on a fresh device and asserts every arrow matches the
figure — present arrows succeed, absent arrows are blocked. :func:`render`
prints the matrix with a verdict per arrow.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device
from repro.core.audit import figure1_flow_matrix
from repro.workloads.reports import render_table

A = "com.fig1.initiator"
B = "com.fig1.delegate"


def flow_device(maxoid: bool):
    device = make_device(maxoid, A, B)
    device.network.add_host("example.com")
    return device


def flow_matrix():
    return figure1_flow_matrix(flow_device(True), A, B)


def render() -> str:
    rows = [
        [c.description, "yes" if c.expected else "no", "yes" if c.observed else "no",
         "OK" if c.ok else "MISMATCH"]
        for c in flow_matrix()
    ]
    return render_table(
        ["Flow", "Figure 1 allows", "Observed", "Verdict"],
        rows,
        title="Figure 1 — information-flow matrix",
    )


@pytest.mark.benchmark(group="fig1-flow-matrix")
def bench_flow_matrix(benchmark):
    checks = benchmark(flow_matrix)
    assert len(checks) == 11
    failures = [c for c in checks if not c.ok]
    assert not failures, failures


@pytest.mark.benchmark(group="fig1-flow-matrix")
def bench_flow_matrix_stock_android(benchmark):
    """The same attempts on stock Android: the forbidden flows mostly
    succeed — the motivation for Maxoid. (Delegation does not exist on
    stock, so instances run unconfined.)"""

    def run():
        device = flow_device(False)
        a = device.spawn(A)
        b = device.spawn(B)  # "B^A" does not exist on stock; B is unconfined
        a.write_external("fig1/doc.txt", b"shared secret")
        b.sys.write_file("/storage/sdcard/fig1/doc.txt", b"overwritten!")
        overwrote = a.sys.read_file("/storage/sdcard/fig1/doc.txt") == b"overwritten!"
        reached_network = True
        try:
            b.connect("example.com")
        except Exception:
            reached_network = False
        return overwrote, reached_network

    overwrote, reached_network = benchmark(run)
    assert overwrote, "stock Android lets the helper overwrite in place"
    assert reached_network, "stock Android gives the helper the network"
