"""Ablations of Maxoid's design decisions (DESIGN.md section 6).

1. Unilateral per-name COW vs full snapshots (paper 3.3 argues snapshots
   are expensive and violate update visibility): measure initiator write
   cost when delegates exist, per-name vs snapshot-everything.
2. Subquery flattening on vs off for COW-view queries (footnote 5): the
   planner-path cost difference the ORDER BY workaround preserves. For a
   point query the flattened plan probes each arm's primary-key index,
   while the materialised one still evaluates the whole view. Either way
   the public arm excludes the delta's keys by a key anti-join.
3. Coarse-grained view redirection vs naive taint propagation: count how
   many apps a taint would reach through the public SD card without Maxoid
   (the "uncontrolled taint propagation" problem of section 2.3).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device
from repro.core.cow import CowProxy
from repro.minisql import Database
from repro.minisql.planner import (
    FLATTEN_ALWAYS,
    FLATTEN_NEVER_WITH_ORDER_BY,
    FLATTEN_ORDER_BY_SUBSET,
)
from repro.workloads.generators import deterministic_bytes


# ---------------------------------------------------------------------------
# Ablation 1: per-name COW vs full snapshot
# ---------------------------------------------------------------------------


def _device_with_delegates(file_count=64):
    device = make_device(True, "com.abl.a", "com.abl.b")
    a = device.spawn("com.abl.a")
    payload = deterministic_bytes(4096)
    for index in range(file_count):
        a.write_external(f"corpus/f{index}.bin", payload)
    device.spawn("com.abl.b", initiator="com.abl.a")  # a live delegate
    return device, a


@pytest.mark.benchmark(group="ablation1-snapshot")
def bench_per_name_cow_initiator_write(benchmark):
    """Maxoid's design: initiator writes cost nothing extra while a
    delegate exists (copies are made only when *delegates* write)."""
    device, a = _device_with_delegates()
    state = {"i": 0}

    def write():
        state["i"] += 1
        a.sys.write_file(f"/storage/sdcard/corpus/f{state['i'] % 64}.bin", b"update")

    benchmark(write)


@pytest.mark.benchmark(group="ablation1-snapshot")
def bench_full_snapshot_initiator_write(benchmark):
    """The rejected design: snapshotting Pub(all) for the delegate means
    every initiator write while a delegate runs must first preserve the
    old version (copy the file aside)."""
    device, a = _device_with_delegates()
    state = {"i": 0}

    def write_with_snapshot():
        state["i"] += 1
        path = f"/storage/sdcard/corpus/f{state['i'] % 64}.bin"
        # Simulate the snapshot obligation: copy-before-write.
        old = a.sys.read_file(path)
        a.sys.makedirs("/storage/sdcard/.snapshot")
        a.sys.write_file(f"/storage/sdcard/.snapshot/f{state['i'] % 64}.bin", old)
        a.sys.write_file(path, b"update")

    benchmark(write_with_snapshot)


# ---------------------------------------------------------------------------
# Ablation 2: flattening on/off
# ---------------------------------------------------------------------------


def _cow_database(emulation, rows=500, delta_rows=50):
    db = Database(sqlite_emulation=emulation)
    db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT)")
    for index in range(rows):
        db.execute("INSERT INTO t (v) VALUES (?)", [f"row{index}"])
    db.execute(
        "CREATE TABLE t_delta (_id INTEGER PRIMARY KEY, v TEXT, _whiteout INTEGER DEFAULT 0)"
    )
    for index in range(delta_rows):
        db.execute(
            "INSERT OR REPLACE INTO t_delta (_id, v, _whiteout) VALUES (?, ?, 0)",
            [index + 1, f"delta{index}"],
        )
    db.execute(
        "CREATE VIEW t_view AS "
        "SELECT _id, v FROM t WHERE _id NOT IN (SELECT _id FROM t_delta) "
        "UNION ALL SELECT _id, v FROM t_delta WHERE _whiteout = 0"
    )
    return db


@pytest.mark.benchmark(group="ablation2-flattening")
def bench_cow_query_flattened(benchmark):
    db = _cow_database(FLATTEN_ALWAYS)
    sql = "SELECT v FROM t_view ORDER BY _id LIMIT 10"
    result = benchmark(db.execute, sql)
    assert len(result.rows) == 10
    assert db.stats.materialized_views == 0
    # The public arm drops the delta's keys by a key anti-join on the
    # delta's index, as SQLite does, instead of testing NOT IN per row.
    plan = [line.strip() for line in db.explain(sql)]
    assert plan[:2] == ["VIEW t_view (FLATTEN)", "SCAN t (500 rows) EXCEPT KEYS OF t_delta"]


@pytest.mark.benchmark(group="ablation2-flattening")
def bench_cow_query_materialized(benchmark):
    """The 3.7.11 behaviour the proxy's workaround avoids: the whole view
    materializes into a temp table before ORDER BY."""
    db = _cow_database(FLATTEN_NEVER_WITH_ORDER_BY)
    result = benchmark(db.execute, "SELECT v FROM t_view ORDER BY _id LIMIT 10")
    assert len(result.rows) == 10
    assert db.stats.materialized_views > 0


@pytest.mark.benchmark(group="ablation2-point-query")
def bench_cow_point_query_widened(benchmark):
    """3.8.6 with the proxy's widening (ORDER BY column queried): the
    query flattens and each arm is one index probe."""
    db = _cow_database(FLATTEN_ORDER_BY_SUBSET)
    sql = "SELECT v, _id FROM t_view WHERE _id = ? ORDER BY _id"
    result = benchmark(db.execute, sql, [250])
    assert result.rows == [("row249", 250)]
    assert db.stats.materialized_views == 0 and db.stats.index_lookups > 0


@pytest.mark.benchmark(group="ablation2-point-query")
def bench_cow_point_query_unwidened(benchmark):
    """3.8.6 without the widening: the ORDER BY column is not queried, so
    the view materialises whole and no probe reaches it (footnote 5)."""
    db = _cow_database(FLATTEN_ORDER_BY_SUBSET)
    sql = "SELECT v FROM t_view WHERE _id = ? ORDER BY _id"
    result = benchmark(db.execute, sql, [250])
    assert result.rows == [("row249",)]
    assert db.stats.materialized_views > 0


# ---------------------------------------------------------------------------
# Ablation 3: taint spread without view redirection
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation3-taint")
def bench_taint_spread_stock_android(benchmark):
    """Model section 2.3's uncontrolled propagation: a tainted file on the
    public SD card taints every app that reads it; count tainted apps
    after a plausible sharing cascade on stock Android."""

    def cascade():
        packages = [f"com.taint.app{i}" for i in range(10)]
        device = make_device(False, *packages)
        # App 0 writes a tainted file publicly (the Adobe-copies-attachment
        # behaviour); every later app reads something public and re-writes.
        first = device.spawn(packages[0])
        first.write_external("shared/t0.bin", b"TAINT")
        tainted = {packages[0]}
        for index, package in enumerate(packages[1:], start=1):
            api = device.spawn(package)
            data = api.sys.read_file(f"/storage/sdcard/shared/t{index - 1}.bin")
            if b"TAINT" in data:
                tainted.add(package)
            api.write_external(f"shared/t{index}.bin", data)
        return tainted

    tainted = benchmark(cascade)
    assert len(tainted) == 10  # everyone ends up tainted


@pytest.mark.benchmark(group="ablation3-taint")
def bench_taint_spread_maxoid(benchmark):
    """Under Maxoid the tainted writes stay in Vol(A): zero spread."""

    def cascade():
        packages = [f"com.taint.app{i}" for i in range(10)]
        device = make_device(True, *packages)
        initiator = packages[0]
        first = device.spawn(initiator)
        first.write_internal("secret.bin", b"TAINT")
        # The helper runs confined and copies the secret "publicly".
        delegate = device.spawn(packages[1], initiator=initiator)
        secret = delegate.sys.read_file(f"/data/data/{initiator}/secret.bin")
        delegate.write_external("shared/leak.bin", secret)
        tainted = {initiator, packages[1]}
        for package in packages[2:]:
            api = device.spawn(package)
            if api.sys.exists("/storage/sdcard/shared/leak.bin"):
                tainted.add(package)
        return tainted

    tainted = benchmark(cascade)
    assert len(tainted) == 2  # confinement stops the cascade
