import threading

import pytest

from e2ebench.layers import LAYER_NAMES, LayerTracer


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def _self_ns(tracer):
    layers, _, _ = tracer.totals()
    return {layer: totals[1] for layer, totals in layers.items()}


def test_self_times_sum_to_wall_time_on_nested_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, wall_clock=clock)

    def leaf():
        clock.tick(7)

    def middle():
        clock.tick(3)
        leaf_span()
        clock.tick(5)
        leaf_span()

    def root():
        clock.tick(11)
        middle_span()
        clock.tick(2)

    leaf_span = tracer.span("sql", leaf)
    middle_span = tracer.span("cow", middle)
    root_span = tracer.span("binder", root)
    root_span()

    assert _self_ns(tracer) == {"binder": 13, "cow": 8, "sql": 14}
    assert sum(_self_ns(tracer).values()) == clock.now == 35
    (root_record,) = [s for s in tracer.spans if s[1] == "binder"]
    assert root_record[7] == clock.now  # its duration is the whole run
    cow_id = [s for s in tracer.spans if s[1] == "cow"][0][3]
    assert [s[4] for s in tracer.spans if s[1] == "sql"] == [cow_id, cow_id]


def test_same_layer_reentry_counts_once():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, wall_clock=clock)

    def walk(depth):
        clock.tick(1)
        if depth:
            walk_span(depth - 1)

    walk_span = tracer.span("syscall", walk)
    walk_span(4)
    layers, _, _ = tracer.totals()
    assert layers["syscall"] == [1, 5, 0]


def test_errors_are_counted_and_the_stack_unwinds():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, wall_clock=clock)

    def boom():
        clock.tick(1)
        raise KeyError("x")

    boom_span = tracer.span("aufs", boom)
    outer_span = tracer.span("syscall", lambda: boom_span())
    with pytest.raises(KeyError):
        outer_span()
    layers, _, _ = tracer.totals()
    assert layers["aufs"][2] == 1 and layers["syscall"][2] == 1
    tracer.span("sql", lambda: None)()
    assert tracer.spans[-1][5] == 0  # a fresh root: the stack unwound


def test_stacks_are_per_thread():
    tracer = LayerTracer()
    both_inside = threading.Barrier(2, timeout=10)

    def inner():
        both_inside.wait()

    inner_span = tracer.span("cow", inner)
    outer_span = tracer.span("binder", inner_span)
    threads = [threading.Thread(target=outer_span) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)

    layers, _, _ = tracer.totals()
    assert layers["cow"][0] == 2 and layers["binder"][0] == 2
    by_id = {s[3]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[1] == "cow":
            parent = by_id[span[4]]
            assert parent[1] == "binder" and parent[10] == span[10]


def test_waits_are_charged_to_sched_not_the_enclosing_layer():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, wall_clock=clock)
    park = tracer.wait(lambda: clock.tick(40))

    def work():
        clock.tick(3)
        park()

    tracer.span("binder", work)()
    layers, _, wait_ns = tracer.totals()
    assert layers["binder"][1] == 3
    assert wait_ns == 40


def test_install_wraps_the_layers_and_uninstall_restores_them():
    from repro.kernel.aufs import AufsMount
    from repro.minisql import engine

    from e2ebench.run import drive
    from e2ebench.workloads import DelegateInvoke

    original_open, original_parse = AufsMount.open, engine.parse
    workload = DelegateInvoke(seed=3)
    workload.setup()
    tracer = LayerTracer().install()
    try:
        assert AufsMount.open is not original_open
        drive(workload, ops=40, tracer=tracer)
    finally:
        tracer.uninstall()
    assert AufsMount.open is original_open and engine.parse is original_parse
    metrics = tracer.metrics(40)
    for layer in ("am", "zygote", "binder", "mounts", "aufs", "syscall", "volatile", "cow", "sql"):
        assert metrics[f"{layer}.calls_per_op"] > 0, layer
        assert metrics[f"{layer}.self_ms_per_op"] > 0, layer
    assert metrics["fuzz.calls_per_op"] == metrics["sched.calls_per_op"] == 0
    assert metrics["sql.statements_per_op"] >= metrics["sql.calls_per_op"]
    assert set(LAYER_NAMES) == {
        "am", "zygote", "binder", "mounts", "aufs", "syscall",
        "volatile", "cow", "sql", "sched", "fuzz", "device",
    }


def test_a_traced_sweep_charges_scheduler_and_device_work():
    from e2ebench.run import drive
    from e2ebench.workloads import Sweep

    workload = Sweep(seed=5)
    tracer = LayerTracer().install()
    try:
        # Op 24 is the planted fuzz control; the seeded stream holds at
        # least one interleaved run before it.
        result = drive(workload, ops=25, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not result.failed
    metrics = tracer.metrics(25)
    assert metrics["device.calls_per_op"] >= 1
    assert metrics["fuzz.calls_per_op"] > 2
    assert metrics["sched.calls_per_op"] > 0
    assert metrics["sched.decisions_per_run"] > 0
    assert metrics["sched.wait_ms_per_op"] > 0
