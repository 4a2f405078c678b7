"""Figure 4: views of files for A, B^A and X.

The figure's exact scenario: files a (public), b (in Priv(A), which A
wants edited) and c (public, side-changed by B^A). After B^A edits b and c:

- B^A sees its updated versions at the original names (read-your-writes);
- A sees the originals at the original names and the updated versions
  under EXTDIR/tmp (Vol(A));
- X sees only the original public files and nothing of Priv(A) or Vol(A).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device
from repro import AndroidManifest, MaxoidManifest

A = "com.fig4.a"
B = "com.fig4.b"
X = "com.fig4.x"


def build_scenario():
    device = make_device(
        True, AndroidManifest(package=A, maxoid=MaxoidManifest(private_ext_dirs=["data/A"])), B, X
    )
    a = device.spawn(A)
    a.write_external("a.txt", b"public file a")          # Pub(all)
    a.write_external("data/A/b.txt", b"private file b")  # Priv(A)
    a.write_external("c.txt", b"public file c")          # Pub(all)
    return device, a


@pytest.mark.benchmark(group="fig4-views")
def bench_figure4_scenario(benchmark):
    def run():
        device, a = build_scenario()
        delegate = device.spawn(B, initiator=A)
        # B^A edits b (the wanted edit) and side-changes c.
        delegate.sys.write_file("/storage/sdcard/data/A/b.txt", b"b EDITED")
        delegate.sys.write_file("/storage/sdcard/c.txt", b"c side effect")
        return device, a, delegate

    device, a, delegate = benchmark(run)

    # B^A's view: its own writes at the original names, a unchanged.
    assert delegate.sys.read_file("/storage/sdcard/a.txt") == b"public file a"
    assert delegate.sys.read_file("/storage/sdcard/data/A/b.txt") == b"b EDITED"
    assert delegate.sys.read_file("/storage/sdcard/c.txt") == b"c side effect"

    # A's view: originals in place, updates under tmp.
    assert a.sys.read_file("/storage/sdcard/data/A/b.txt") == b"private file b"
    assert a.sys.read_file("/storage/sdcard/c.txt") == b"public file c"
    assert a.sys.read_file("/storage/sdcard/tmp/data/A/b.txt") == b"b EDITED"
    assert a.sys.read_file("/storage/sdcard/tmp/c.txt") == b"c side effect"

    # X's view: original public files only; no Priv(A), no Vol(A).
    x = device.spawn(X)
    assert x.sys.read_file("/storage/sdcard/a.txt") == b"public file a"
    assert x.sys.read_file("/storage/sdcard/c.txt") == b"public file c"
    assert not x.sys.exists("/storage/sdcard/data/A/b.txt")
    assert not x.sys.exists("/storage/sdcard/tmp/c.txt")
