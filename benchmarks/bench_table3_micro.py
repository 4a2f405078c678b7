"""Table 3: microbenchmark overheads.

Paper columns: CPU-bound operations; internal file system read/write/
append at 4 KB and 1 MB; User Dictionary insert/update/query-1/query-1k/
delete — each for the initiator and the delegate, relative to stock
Android.

Each parametrized benchmark runs the identical operation under the three
configurations; pytest-benchmark's comparison table is the reproduction of
Table 3 (expected shape: android ≈ initiator < delegate, append worst).
:func:`render` times the same ops per configuration and prints each row's
overhead next to the paper's.
"""

from __future__ import annotations

from functools import partial

import pytest

from benchmarks.conftest import BENCH_APP, BENCH_INITIATOR, CONFIGS, make_device, spawn_for
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro.workloads.generators import LARGE_FILE, SMALL_FILE, deterministic_bytes, make_dictionary_words
from repro.workloads.harness import measure, overhead_pct
from repro.workloads.reports import pct, render_table

WORDS = Uri.content("user_dictionary", "words")
SIZES = {"4KB": SMALL_FILE, "1MB": LARGE_FILE}
PRE_EXISTING = 256  # files in Priv(B) before the measured run
DICTIONARY_ROWS = 1000

PAPER = {
    # (row, config) -> paper overhead %; file rows absent here read ~0%
    ("cpu", "initiator"): 0.0,
    ("cpu", "delegate"): 0.0,
    ("read 4KB", "delegate"): 7.5,
    ("write 4KB", "delegate"): 31.7,
    ("append 4KB", "delegate"): 58.7,
    ("read 1MB", "delegate"): 4.8,
    ("write 1MB", "delegate"): 18.1,
    ("append 1MB", "delegate"): 52.8,
    ("dict insert", "initiator"): 1.3,
    ("dict insert", "delegate"): 8.1,
    ("dict update", "initiator"): 0.4,
    ("dict update", "delegate"): 16.1,
    ("dict query 1", "initiator"): 0.5,
    ("dict query 1", "delegate"): 5.6,
    ("dict query 1k", "initiator"): 0.2,
    ("dict query 1k", "delegate"): 13.7,
    ("dict delete", "initiator"): 1.0,
    ("dict delete", "delegate"): 17.3,
}


def cpu_op():
    """CPU-bound work: identical code under every configuration."""
    total = 0
    for i in range(2000):
        total = (total * 31 + i) % 1000003
    return total


def file_ops(config, size):
    """Read, write and append under ``config``. The appended files are
    pre-existing: a *normal* run of the app created them in Priv(B), so a
    delegate's append must copy the whole file to its writable branch
    first (paper 7.2.1)."""
    device = make_device(config != "android")
    payload = deterministic_bytes(SIZES[size])
    owner = device.spawn(BENCH_APP)
    for index in range(PRE_EXISTING):
        owner.write_internal(f"bench/pre{index}.bin", payload)
    api = spawn_for(device, config)
    counters = {"read": 0, "write": 0, "append": 0}

    def read_op():
        counters["read"] += 1
        return api.sys.read_file(
            f"/data/data/{BENCH_APP}/bench/pre{counters['read'] % PRE_EXISTING}.bin"
        )

    def write_op():
        counters["write"] += 1
        api.write_internal(f"bench/w{counters['write']}.bin", payload)

    def append_op():
        counters["append"] += 1
        api.sys.append_file(
            f"/data/data/{BENCH_APP}/bench/pre{counters['append'] % PRE_EXISTING}.bin", b"+x"
        )

    return {f"read {size}": read_op, f"write {size}": write_op, f"append {size}": append_op}


def dict_ops(config):
    """User Dictionary ops on the public 1000-row table, which pre-exists
    in Pub(all) before the measured app touches it. A delegate first
    updates 50 rows, so its queries span primary and delta tables."""
    device = make_device(config != "android")
    owner = device.spawn(BENCH_INITIATOR)
    for word in make_dictionary_words(DICTIONARY_ROWS):
        owner.insert(WORDS, ContentValues({"word": word}))
    api = spawn_for(device, config)
    if config == "delegate":
        for row in range(1, 51):
            api.update(WORDS.with_appended_id(row), ContentValues({"frequency": 2}))
    state = {"i": 0}

    def next_row():
        state["i"] += 1
        return WORDS.with_appended_id((state["i"] % DICTIONARY_ROWS) + 1)

    def insert_op():
        state["i"] += 1
        api.insert(WORDS, ContentValues({"word": f"new{state['i']}"}))

    def update_op():
        api.update(next_row(), ContentValues({"frequency": state["i"]}))

    return {
        "dict insert": insert_op,
        "dict update": update_op,
        "dict query 1": lambda: api.query(next_row(), projection=["word"]),
        "dict query 1k": lambda: api.query(WORDS, projection=["word"], order_by="_id"),
        "dict delete": lambda: api.delete(next_row()),
    }


def _measure(ops, trials):
    # A 1k-row query does a thousand rows' work: it gets a fifth of the trials.
    return {
        row: measure(op, trials=max(3, trials // 5) if row == "dict query 1k" else trials)
        for row, op in ops.items()
    }


def render(trials: int) -> str:
    measured = {}
    groups = [
        lambda config: {"cpu": cpu_op},
        *(partial(file_ops, size=size) for size in SIZES),
        dict_ops,
    ]
    for ops_for in groups:
        for config in CONFIGS:
            for row, measurement in _measure(ops_for(config), trials).items():
                measured[row, config] = measurement
    rows = [
        [
            row,
            config,
            pct(overhead_pct(measured[row, "android"], measured[row, config])),
            pct(PAPER[row, config]) if (row, config) in PAPER else "~0%",
        ]
        for row in dict.fromkeys(row for row, _ in measured)
        for config in ("initiator", "delegate")
    ]
    return render_table(
        ["Operation", "Setup", "Measured overhead", "Paper overhead"],
        rows,
        title="Table 3 — microbenchmark overheads vs unmodified Android",
    )


per_size = pytest.mark.parametrize("size", list(SIZES), ids=str.lower)


@pytest.mark.benchmark(group="table3-cpu")
def bench_cpu_bound(benchmark, config):
    """CPU-bound operations: no I/O, so no configuration should differ."""
    assert benchmark(cpu_op) == cpu_op()


@per_size
@pytest.mark.benchmark(group="table3-fs-read")
def bench_internal_read(benchmark, config, size):
    """Internal FS read: the delegate pays the two-branch lookup."""
    data = benchmark(file_ops(config, size)[f"read {size}"])
    assert len(data) == SIZES[size]


@per_size
@pytest.mark.benchmark(group="table3-fs-write")
def bench_internal_write(benchmark, config, size):
    """Internal FS write (create + write a fresh file)."""
    benchmark(file_ops(config, size)[f"write {size}"])


@per_size
@pytest.mark.benchmark(group="table3-fs-append")
def bench_internal_append(benchmark, config, size):
    """Append to pre-existing files: the delegate's worst case (copy-up)."""
    benchmark(file_ops(config, size)[f"append {size}"])


@pytest.mark.benchmark(group="table3-dict-insert")
def bench_dict_insert(benchmark, config):
    """User Dictionary insert (1000-row table)."""
    benchmark(dict_ops(config)["dict insert"])


@pytest.mark.benchmark(group="table3-dict-update")
def bench_dict_update(benchmark, config):
    """Update: for delegates the first updates populate the delta table
    (copy-on-write), as in the paper's methodology."""
    benchmark(dict_ops(config)["dict update"])


@pytest.mark.benchmark(group="table3-dict-query1")
def bench_dict_query_one(benchmark, config):
    """Query one word by ID URI."""
    assert len(benchmark(dict_ops(config)["dict query 1"]).rows) == 1


@pytest.mark.benchmark(group="table3-dict-query1k")
def bench_dict_query_all(benchmark, config):
    """Query all 1000 words (the paper's query-1k-words column)."""
    assert len(benchmark(dict_ops(config)["dict query 1k"]).rows) == DICTIONARY_ROWS


@pytest.mark.benchmark(group="table3-dict-delete")
def bench_dict_delete(benchmark, config):
    """Delete by ID (whiteout creation for delegates)."""
    benchmark(dict_ops(config)["dict delete"])
