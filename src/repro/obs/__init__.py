"""Cross-layer observability for the Maxoid reproduction.

Observability is **per device**: each :class:`ObsContext` owns a
:class:`~repro.obs.trace.Tracer`, a :class:`~repro.obs.metrics.Metrics`
registry, a provenance ledger, a profiler, a fault plane (``faults``)
and a flight recorder, behind one ``enabled`` switch (the fault plane
has its own). A :class:`~repro.core.device.Device` owns its context
(``device.obs``) and hands it to everything it builds — processes, the
binder driver, mount namespaces, the Aufs branches, the COW proxies, the
SQL engines — so every instrumented layer resolves the gating attribute
through the device/process it is acting *for*. Two devices therefore
record into disjoint tracers and registries and consult disjoint fault
planes. Span and provenance-actor stacks are per thread, so flows the
deterministic scheduler interleaves cannot cross.

``OBS`` remains as the **default context**, and ``repro.faults.FAULTS``
is its plane: objects constructed without a device (bare ``Device()``,
unit-test fixtures, the workload harness) attach to it, so existing
single-device call sites and ``OBS.capture()`` keep working unchanged.
The disabled fast path is preserved by construction — every kernel
entry point opens its span through :func:`repro.boundary.boundary`,
whose disarmed path is one attribute load plus a branch
(``self.obs.enabled``) per declared plane, and nothing else runs when
it is off.

Span taxonomy (the prefix is the layer):

- ``am.*``      — Activity Manager: ``am.start_activity``, ``am.broadcast``
- ``zygote.*``  — process creation: ``zygote.fork``
- ``binder.*``  — IPC: ``binder.transact``
- ``vfs.*``     — syscall layer: ``vfs.open``, ``vfs.read``, ``vfs.write``
- ``aufs.*``    — union fs: ``aufs.open``, ``aufs.copy_up``
- ``cow.*``     — SQLite COW proxy: ``cow.query``/``insert``/``update``/
  ``delete``/``commit``/``discard``
- ``sql.*``     — mini SQL engine: ``sql.execute``
- ``vol.*``     — volatile-state management: ``vol.commit``
- ``prov.*``    — provenance ledger (needs ``ctx.prov``): ``prov.read``,
  ``prov.write``, ``prov.copy_up``, ``prov.commit_file``,
  ``prov.row_write``, ``prov.row_commit``, ``prov.clip_set``,
  ``prov.clip_get``, ``prov.fork``, ``prov.intent_flow``

Every span is stamped with its context's ``device_id`` (and carries its
``trace_id``), so interleaved multi-device span streams separate cleanly.
An enabled context records every span it opens, so a subscribed
:class:`~repro.obs.monitor.SecurityMonitor` checks the whole run.

Provenance tracking (:mod:`repro.obs.provenance`) sits behind a per-
context ``prov`` sub-switch layered on top of ``enabled``; performance
profiling (:mod:`repro.obs.profile`) behind ``profile``. Both follow the
same one-attribute-load contract.

Typical use::

    from repro.obs import OBS

    with OBS.capture(prov=True) as obs:
        device.launch_as_delegate(...)
        trees = obs.tracer.trees()
        delta = obs.metrics.snapshot()  # capture() starts from zero
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.faults.plane import FaultPlane

from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricError,
    Metrics,
    MetricsSnapshot,
    diff,
    render_prometheus,
)
from repro.obs.report import (
    breakdown,
    counters_by_layer,
    format_breakdown,
    layer_self_times,
    span_time,
)
from repro.obs.export import (
    to_chrome_trace,
    to_folded_stacks,
    write_chrome_trace,
    write_folded_stacks,
)
from repro.obs.monitor import SecurityMonitor
from repro.obs.profile import (
    SPAN_LATENCY_PREFIX,
    CriticalPathReport,
    CriticalPathStep,
    ProfileRecorder,
    critical_path,
    critical_paths,
    latency_summary,
)
from repro.obs.provenance import Label, Lineage, ProvenanceLedger
from repro.obs.recorder import AnchorReached, BlackBox, Event, FlightRecorder
from repro.obs.sweep import (
    Violation,
    evaluate_span,
    parse_delegate_ctx,
    priv_owner,
    spans_with_inherited_ctx,
    sweep,
    sweep_violations,
)
from repro.obs.trace import (
    JsonlSink,
    RingBufferSink,
    Span,
    SpanNode,
    Tracer,
    build_trees,
)

__all__ = [
    "sweep",
    "sweep_violations",
    "evaluate_span",
    "spans_with_inherited_ctx",
    "parse_delegate_ctx",
    "priv_owner",
    "Violation",
    "Label",
    "Lineage",
    "SPAN_LATENCY_PREFIX",
    "ProfileRecorder",
    "CriticalPathReport",
    "CriticalPathStep",
    "critical_path",
    "critical_paths",
    "latency_summary",
    "to_chrome_trace",
    "to_folded_stacks",
    "write_chrome_trace",
    "write_folded_stacks",
    "ProvenanceLedger",
    "AnchorReached",
    "BlackBox",
    "Event",
    "FlightRecorder",
    "SecurityMonitor",
    "OBS",
    "ObsContext",
    "Tracer",
    "Span",
    "SpanNode",
    "RingBufferSink",
    "JsonlSink",
    "build_trees",
    "Metrics",
    "MetricsSnapshot",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "diff",
    "render_prometheus",
    "layer_self_times",
    "span_time",
    "breakdown",
    "format_breakdown",
    "counters_by_layer",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]


class ObsContext:
    """One device's planes (see the module docstring)."""

    def __init__(self, device_id: str = "device0") -> None:
        self.device_id = device_id
        self.tracer = Tracer(device_id=device_id)
        self.metrics = Metrics()
        self.provenance = ProvenanceLedger(tracer=self.tracer)
        self.profiler = ProfileRecorder(self.metrics)
        self.enabled = False
        #: Sub-switch for the provenance ledger; hot paths check this one
        #: attribute before building any label machinery.
        self.prov = False
        #: Sub-switch for per-span-name latency histograms. Armed, a
        #: span-tap subscriber observes every closing span's duration;
        #: off, nothing is subscribed and span close runs the seed path.
        self.profile = False
        #: The device's fault plane, with its own ``enabled`` switch.
        self.faults = FaultPlane(device_id)
        #: The device's flight recorder (:mod:`repro.obs.recorder`). A
        #: disarmed recorder holds no tap subscriptions, so it adds
        #: nothing to any hot path until ``recorder.arm()``.
        self.recorder = FlightRecorder(self)
        self._jsonl_path: Optional[str] = None
        self._ring_capacity = 8192

    def enable(
        self,
        jsonl_path: Optional[str] = None,
        ring_capacity: int = 8192,
    ) -> None:
        """Turn instrumentation on (idempotent)."""
        self.tracer.enable(jsonl_path=jsonl_path, capacity=ring_capacity)
        self.enabled = True
        self._jsonl_path = jsonl_path
        self._ring_capacity = ring_capacity

    def enable_prov(self) -> None:
        """Arm provenance tracking (implies :meth:`enable` if needed)."""
        if not self.enabled:
            self.enable()
        self.prov = True

    def enable_profile(self) -> None:
        """Arm latency profiling (implies :meth:`enable` if needed)."""
        if not self.enabled:
            self.enable()
        self.profile = True
        self.tracer.span_tap.add(self.profiler.on_span)

    def disable_profile(self) -> None:
        """Disarm latency profiling; existing ``lat.*`` histograms stay."""
        self.profile = False
        self.tracer.span_tap.remove(self.profiler.on_span)

    def disable(self) -> None:
        """Turn instrumentation off; closes any JSONL sink."""
        self.disable_profile()
        self.tracer.disable()
        self.enabled = False
        self.prov = False

    def reset(self) -> None:
        """Drop recorded spans, all metric values, and the taint ledger."""
        self.tracer.clear()
        self.metrics.reset()
        self.provenance.reset()

    @contextmanager
    def capture(
        self,
        jsonl_path: Optional[str] = None,
        ring_capacity: int = 8192,
        prov: bool = False,
        profile: bool = False,
    ) -> Iterator["ObsContext"]:
        """Enable from a clean slate for the duration of a ``with`` block.

        Restores the previous configuration afterwards — including a
        JSONL sink path or custom ring capacity the context was enabled
        with before — so tests and benchmarks can nest captures without
        leaking or clobbering shared state. ``prov=True`` additionally
        arms the provenance ledger for the block; ``profile=True`` arms
        the per-span latency histograms.

        Span-tap subscribers added *inside* the block (a SecurityMonitor,
        say) are removed on exit even when the block raises mid-span, and
        any provenance actor scopes the aborted op left pushed are cleared —
        one capture cannot leak monitor callbacks or actor attribution
        into the next. The flight recorder's arm-state is saved and
        restored the same way: a recorder armed (or re-armed) inside the
        block is disarmed on exit, and an outer arm-state is re-armed with
        its original configuration, so nested captures cannot leak
        recording config into the enclosing scope.
        """
        was_enabled = self.enabled
        was_prov = self.prov
        was_profile = self.profile
        prior_jsonl = self._jsonl_path
        prior_capacity = self._ring_capacity
        prior_subscribers = list(self.tracer.span_tap)
        was_recording = self.recorder.armed
        prior_arm = self.recorder.arm_config if was_recording else None
        self.reset()
        self.enable(jsonl_path=jsonl_path, ring_capacity=ring_capacity)
        self.prov = prov
        if profile:
            self.enable_profile()
        else:
            self.disable_profile()
        try:
            yield self
        finally:
            self.disable()
            # Restore the recorder arm-state only when the block changed
            # it: a block that leaves the recorder alone keeps its ring
            # intact (re-arming resets it), while one that arms or
            # re-arms the recorder cannot leak that config outward.
            arm_now = self.recorder.arm_config if self.recorder.armed else None
            arm_then = prior_arm if was_recording else None
            if self.recorder.armed != was_recording or arm_now != arm_then:
                self.recorder.disarm()
                if was_recording and prior_arm is not None:
                    self.recorder.arm(**prior_arm)
            self.tracer.span_tap[:] = [
                fn for fn in self.tracer.span_tap if fn in prior_subscribers
            ]
            self.provenance.clear_actors()
            if was_enabled:
                self.enable(jsonl_path=prior_jsonl, ring_capacity=prior_capacity)
                self.prov = was_prov
                if was_profile:
                    self.enable_profile()

    # -- conveniences over the pair -------------------------------------

    def spans(self):
        """Finished spans in the ring buffer."""
        return self.tracer.finished()

    def trees(self):
        """Finished spans as reconstructed trees."""
        return self.tracer.trees()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"<ObsContext {self.device_id} ({state})>"


#: The default observability context. Devices built without an explicit
#: context — and every object constructed outside a device — attach here,
#: so single-device call sites need no context of their own.
OBS = ObsContext()
