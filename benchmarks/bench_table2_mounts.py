"""Table 2: the Aufs mount points for an initiator A and a delegate B^A.

The benchmark times namespace construction (what Zygote does per fork) and
asserts the exact branch layout the paper's table lists; :func:`render`
prints both mount tables in the paper's notation.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device
from repro import AndroidManifest, MaxoidManifest
from repro.android.storage import DATA_ROOT, EXTDIR
from repro.workloads.reports import render_table

A = "A"
B = "B"


def mounts_device():
    return make_device(
        True,
        AndroidManifest(package=A, maxoid=MaxoidManifest(private_ext_dirs=["data/A"])),
        AndroidManifest(package=B, maxoid=MaxoidManifest(private_ext_dirs=["data/B"])),
    )


def branches(process):
    """Each union mount's branch list, highest priority first."""
    return {
        point: fs.describe()
        for point, fs in process.namespace.mount_table().items()
        if hasattr(fs, "describe")
    }


def render() -> str:
    device = mounts_device()
    a = device.zygote.fork_app(A)
    ba = device.zygote.fork_app(B, A)

    def describe(process, point):
        fs = process.namespace.mount_table().get(point)
        if fs is None:
            return "N/A"
        return ", ".join(fs.describe()) if hasattr(fs, "describe") else "(plain)"

    points = sorted(set(a.namespace.mount_points()) | set(ba.namespace.mount_points()))
    return render_table(
        ["Mount point", "Branches for A", "Branches for B^A"],
        [[point, describe(a, point), describe(ba, point)] for point in points if point != "/"],
        title="Table 2 — Aufs mount points (paper notation: label(rw|ro))",
    )


@pytest.mark.benchmark(group="table2-namespace-build")
def bench_initiator_namespace(benchmark):
    """Namespace construction for A (single-branch mounts)."""
    table = branches(benchmark(mounts_device().zygote.fork_app, A))
    # Table 2, initiator column.
    assert table[EXTDIR] == ["pub(rw)"]
    assert table[f"{EXTDIR}/data/A"] == ["A/data/A(rw)"]
    assert table[f"{EXTDIR}/tmp"] == ["A/tmp(rw)"]


@pytest.mark.benchmark(group="table2-namespace-build")
def bench_delegate_namespace(benchmark):
    """Namespace construction for B^A (two-branch mounts)."""
    table = branches(benchmark(mounts_device().zygote.fork_app, B, A))
    # Table 2, B^A column.
    assert table[EXTDIR] == ["A/tmp(rw)", "pub(ro)"]
    assert table[f"{EXTDIR}/data/A"] == ["A/tmp/data/A(rw)", "A/data/A(ro)"]
    assert table[f"{EXTDIR}/data/B"] == ["B-A/data/B(rw)", "B/data/B(ro)"]
    # EXTDIR/tmp is N/A for delegates (no mount).
    assert f"{EXTDIR}/tmp" not in table
    # Plus the internal-storage mounts of section 4.2.
    assert table[f"{DATA_ROOT}/{B}"] == ["B-A/int(rw)", "B/int(ro)"]
    assert table[f"{DATA_ROOT}/{A}"] == ["A/tmp-int(rw)", "A/int(ro)"]


@pytest.mark.benchmark(group="table2-namespace-build")
def bench_stock_namespace(benchmark):
    """Baseline: a stock-Android fork has no per-app mounts at all."""
    process = benchmark(make_device(False, A).zygote.fork_app, A)
    assert process.namespace.mount_points() == ["/", EXTDIR]
