"""Outside-in per-layer tracing, installed from the benchmark's own files.

Each layer is named after its module and is the set of public methods
listed in :data:`LAYERS`. :meth:`LayerTracer.install` replaces those class
attributes (and, for the corpus installers, module attributes) with span
wrappers at start-up; :meth:`LayerTracer.uninstall` puts the originals
back. Nothing under ``src/`` is edited.

Span rules:

- one call into a layer is one span, kept on a per-thread stack and
  stamped with the benchmark op it belongs to and its parent span;
- a call into the layer already on top of the stack belongs to that span,
  so a same-layer re-entry counts as one call;
- self time is the span's duration minus its children's durations.
  Durations are thread CPU time, so a scheduled task parked on its baton,
  or the calling thread waiting inside the scheduler's run loop, accrues
  none of the work other threads do meanwhile;
- wall time parked in the scheduler's yield points, sleeps and lock waits
  is charged to ``sched.wait``, not to the enclosing layer.

Counters are read where the work happens: the Aufs copy-up and lookup
counters of the mount a span ran on, ``Database.stats`` around each
statement, every ``minisql.engine.parse`` call, and the decision log of
every scheduler run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, class or None for module functions, method names or
#: None for every public function of the class).
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...] = (
    ("am", "repro.android.am", "ActivityManagerService", ("start_activity",)),
    ("zygote", "repro.android.zygote", "Zygote", ("fork_app",)),
    ("binder", "repro.kernel.binder", "BinderDriver", ("transact",)),
    ("mounts", "repro.kernel.mounts", "MountNamespace", ("unshare", "resolve")),
    ("mounts", "repro.core.branches", "BranchManager", ("materialize",)),
    (
        "aufs",
        "repro.kernel.aufs",
        "AufsMount",
        ("open", "stat", "mkdir", "readdir", "unlink", "rename"),
    ),
    ("syscall", "repro.kernel.syscall", "Syscalls", None),
    ("volatile", "repro.core.volatile", "VolatileFiles", ("commit",)),
    (
        "volatile",
        "repro.core.branches",
        "BranchManager",
        ("clear_volatile", "clear_delegate_priv"),
    ),
    (
        "cow",
        "repro.core.cow",
        "CowProxy",
        (
            "query",
            "insert",
            "update",
            "delete",
            "commit_volatile_batch",
            "discard_all_volatile",
        ),
    ),
    ("sql", "repro.minisql.engine", "Database", ("execute",)),
    ("sched", "repro.sched.reactor", "DeterministicScheduler", ("run",)),
    ("fuzz", "repro.fuzz.harness", "FuzzWorld", ("start", "step", "close")),
    ("device", "repro.core.device", "Device", ("__init__",)),
    (
        "device",
        "repro.apps.catalog",
        None,
        ("install_standard_apps", "install_full_corpus"),
    ),
    ("device", "repro.apps.adversarial", None, ("install_adversarial_apps",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: Scheduler calls whose wall time is waiting, not work.
WAITS = ("yield_point", "sleep", "block_on_lock")

#: Spans kept in memory for the JSONL dump; aggregates cover every span.
SPAN_CAP = 200_000
#: The fields of one kept span, in order.
SPAN_FIELDS = (
    "op",
    "layer",
    "name",
    "span",
    "parent",
    "depth",
    "start_ns",
    "dur_ns",
    "self_ns",
    "error",
    "thread",
)


class _ThreadState:
    __slots__ = ("stack", "layers", "counters", "wait_ns")

    def __init__(self) -> None:
        #: open spans: [layer, start, child_ns, span_id]
        self.stack: List[list] = []
        #: layer -> [calls, self_ns, errors]
        self.layers: Dict[str, List[int]] = {}
        self.counters: Counter = Counter()
        self.wait_ns = 0


class LayerTracer:
    """Per-layer spans and counters for one traced pass."""

    def __init__(
        self,
        clock: Callable[[], int] = time.thread_time_ns,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        self.wall_clock = wall_clock
        #: the benchmark op every span opened now belongs to.
        self.op = 0
        #: set while the runner checks results: nothing is recorded.
        self.paused = False
        #: kept spans, as tuples of :data:`SPAN_FIELDS`.
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def span(self, layer: str, fn: Callable, probe: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a span of ``layer``.

        ``probe(counters, args)`` runs before an outermost call and returns
        a ``done(result)`` callback run after it (``result`` is None when
        the call raised)."""
        tracer = self
        name = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            done = probe(state.counters, args) if probe is not None else None
            frame = [layer, tracer.clock(), 0, next(tracer._ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(state, frame, name, failed=True)
                if done is not None:
                    done(None)
                raise
            tracer._close(state, frame, name, failed=False)
            if done is not None:
                done(result)
            return result

        return wrapper

    def _close(self, state: _ThreadState, frame: list, name: str, failed: bool) -> None:
        end = self.clock()
        stack = state.stack
        stack.pop()
        layer, start, child_ns, span_id = frame
        duration = end - start
        self_ns = duration - child_ns
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        totals = state.layers.get(layer)
        if totals is None:
            totals = state.layers[layer] = [0, 0, 0]
        totals[0] += 1
        totals[1] += self_ns
        totals[2] += failed
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (
                    self.op,
                    layer,
                    name,
                    span_id,
                    parent[3] if parent is not None else None,
                    len(stack),
                    start,
                    duration,
                    self_ns,
                    failed,
                    threading.get_ident(),
                )
            )

    def wait(self, fn: Callable) -> Callable:
        """Wrap a scheduler wait: its wall time goes to ``sched.wait`` and
        its CPU time is taken out of the enclosing span's self time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = tracer._state()
            cpu0 = tracer.clock()
            wall0 = tracer.wall_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                state.wait_ns += tracer.wall_clock() - wall0
                if state.stack:
                    state.stack[-1][2] += tracer.clock() - cpu0

        return wrapper

    def count(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count every call under ``key``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer._state().counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer method; returns the tracer."""
        for layer, module_name, owner_name, names in LAYERS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                for name in names or ():
                    original = getattr(module, name)
                    self._patch_everywhere(name, original, self.span(layer, original))
                continue
            owner = getattr(module, owner_name)
            for name in names or _public_functions(owner):
                original = owner.__dict__[name]
                self._patch(owner, name, self.span(layer, original, _PROBES.get(layer)))

        from repro.kernel.aufs import AufsMount
        from repro.minisql import engine
        from repro.minisql.engine import Database
        from repro.sched.reactor import DeterministicScheduler

        for name in WAITS:
            self._patch(
                DeterministicScheduler,
                name,
                self.wait(DeterministicScheduler.__dict__[name]),
            )
        # Counted on every call, re-entries included: statements, parses
        # and Aufs lookups.
        execute = Database.__dict__["execute"]
        self._patch(Database, "execute", self.count("sql.statements", execute))
        self._patch(engine, "parse", self.count("sql.parses", engine.parse))
        self._patch(AufsMount, "_find", _counted_lookup(self, AufsMount.__dict__["_find"]))
        return self

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_everywhere(self, name: str, original: object, value: object) -> None:
        """Rebind a module function in every loaded module that imported it."""
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is original:
                self._patch(module, name, value)

    # -- reporting -----------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, List[int]], Counter, int]:
        """(layer -> [calls, self_ns, errors], counters, wait_ns) over
        every thread that recorded anything."""
        layers: Dict[str, List[int]] = {}
        counters: Counter = Counter()
        wait_ns = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, self_ns, errors) in state.layers.items():
                merged = layers.setdefault(layer, [0, 0, 0])
                merged[0] += calls
                merged[1] += self_ns
                merged[2] += errors
            counters.update(state.counters)
            wait_ns += state.wait_ns
        return layers, counters, wait_ns

    def metrics(self, ops: int) -> Dict[str, float]:
        """Every per-layer metric, normalised per benchmark op."""
        layers, c, wait_ns = self.totals()
        out: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            calls, self_ns, errors = layers.get(layer, (0, 0, 0))
            out[f"{layer}.calls_per_op"] = calls / ops
            out[f"{layer}.self_ms_per_op"] = self_ns / 1e6 / ops
            out[f"{layer}.errors_per_op"] = errors / ops
        out["sched.wait_ms_per_op"] = wait_ns / 1e6 / ops
        out["sched.decisions_per_run"] = _ratio(c["sched.decisions"], c["sched.runs"])
        out["aufs.copy_ups_per_op"] = c["aufs.copy_ups"] / ops
        out["aufs.copy_up_kb_per_op"] = c["aufs.copy_up_bytes"] / 1024.0 / ops
        out["aufs.branches_scanned_per_lookup"] = _ratio(
            c["aufs.branches_scanned"], c["aufs.lookups"]
        )
        out["sql.statements_per_op"] = c["sql.statements"] / ops
        out["sql.rows_scanned_per_row_returned"] = _ratio(
            c["sql.rows_scanned"], c["sql.rows_returned"]
        )
        out["sql.rows_materialized_per_op"] = c["sql.rows_materialized"] / ops
        out["sql.parses_per_statement"] = _ratio(c["sql.parses"], c["sql.statements"])
        return out

    def write_jsonl(self, path: str) -> int:
        """Write the kept spans, one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.spans:
                sink.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")
        return len(self.spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _public_functions(owner: type) -> List[str]:
    return [
        name
        for name, value in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _copy_up_probe(counters: Counter, args: Sequence[object]) -> Callable:
    mount = args[0]
    count0, bytes0 = mount.copy_up_count, mount.copy_up_bytes

    def done(_result: object) -> None:
        counters["aufs.copy_ups"] += mount.copy_up_count - count0
        counters["aufs.copy_up_bytes"] += mount.copy_up_bytes - bytes0

    return done


def _sql_probe(counters: Counter, args: Sequence[object]) -> Callable:
    stats = args[0].stats
    scanned0, materialized0 = stats.rows_scanned, stats.materialized_rows

    def done(result: object) -> None:
        counters["sql.rows_scanned"] += stats.rows_scanned - scanned0
        counters["sql.rows_materialized"] += stats.materialized_rows - materialized0
        if result is not None:
            counters["sql.rows_returned"] += len(result.rows)

    return done


def _sched_probe(counters: Counter, _args: Sequence[object]) -> Callable:
    def done(result: object) -> None:
        counters["sched.runs"] += 1
        if result is not None:
            counters["sched.decisions"] += len(result.decisions)

    return done


#: layer -> counter probe run around each of its outermost spans.
_PROBES = {"aufs": _copy_up_probe, "sql": _sql_probe, "sched": _sched_probe}


def _counted_lookup(tracer: LayerTracer, find: Callable) -> Callable:
    @functools.wraps(find)
    def wrapper(mount, *args, **kwargs):
        if tracer.paused:
            return find(mount, *args, **kwargs)
        scanned0 = mount.lookup_branches_scanned
        try:
            return find(mount, *args, **kwargs)
        finally:
            counters = tracer._state().counters
            counters["aufs.lookups"] += 1
            counters["aufs.branches_scanned"] += mount.lookup_branches_scanned - scanned0

    return wrapper
