"""Capture teardown hygiene under mid-span failures.

Every fuzz example wraps a fresh world in ``OBS.capture()`` and attaches
a :class:`SecurityMonitor` to the span tap inside the block. A step that
raises mid-span (a simulated crash, an injected fault, a plain bug)
unwinds through the capture's ``finally`` — which must strip subscribers
added inside the block and clear any provenance actor scopes the aborted op
left pushed, or example N's monitor keeps observing (and mis-attributing)
example N+1's spans.
"""

from __future__ import annotations

import pytest

from repro.obs import OBS
from repro.obs.monitor import SecurityMonitor


def _listener_count() -> int:
    return len(OBS.tracer.span_tap)


def test_listener_attached_inside_capture_is_removed_on_clean_exit():
    baseline = _listener_count()
    seen = []
    with OBS.capture() as obs:
        obs.tracer.span_tap.add(seen.append)
        with obs.tracer.span("vfs.write", path="/tmp/x"):
            pass
        assert seen
    assert _listener_count() == baseline


def test_raise_mid_span_leaves_no_listener_or_actor_residue():
    baseline = _listener_count()
    with pytest.raises(RuntimeError):
        with OBS.capture(prov=True) as obs:
            obs.tracer.span_tap.add(lambda span: None)
            # An op aborted between push_actor and its balancing pop.
            obs.provenance.push_actor("com.attacker.interpreter", pid=4242)
            with obs.tracer.span("vfs.write", path="/tmp/x"):
                raise RuntimeError("fault injected mid-span")
    assert _listener_count() == baseline
    assert OBS.provenance.current_actor() == (None, None)


def test_preexisting_listener_survives_a_nested_capture():
    seen = []
    OBS.tracer.span_tap.add(seen.append)
    try:
        with pytest.raises(RuntimeError):
            with OBS.capture():
                raise RuntimeError("aborted example")
        assert seen.append in OBS.tracer.span_tap
    finally:
        OBS.tracer.span_tap.remove(seen.append)


def test_aborted_monitor_does_not_observe_the_next_example():
    baseline = _listener_count()
    with pytest.raises(RuntimeError):
        with OBS.capture(prov=True) as obs:
            SecurityMonitor(
                obs.tracer, {"com.android.email"}, ledger=obs.provenance
            ).attach()
            raise RuntimeError("example died before detach")
    assert _listener_count() == baseline
    # The next capture starts from a clean tracer: only its own
    # listeners fire for its spans.
    with OBS.capture() as obs:
        assert _listener_count() == baseline
        with obs.tracer.span("vfs.read", path="/tmp/y"):
            pass
    assert _listener_count() == baseline


def test_consecutive_fuzz_style_captures_do_not_accumulate_listeners():
    baseline = _listener_count()
    for _ in range(3):
        with pytest.raises(ValueError):
            with OBS.capture(prov=True) as obs:
                SecurityMonitor(
                    obs.tracer, {"com.android.email"}, ledger=obs.provenance
                ).attach()
                obs.provenance.push_actor("ctx", pid=1)
                raise ValueError("every example aborts")
    assert _listener_count() == baseline
    assert OBS.provenance.current_actor() == (None, None)


def test_monitor_reattaches_after_capture_stripped_it():
    """A monitor whose subscription a capture stripped on exit must come
    back on the next ``attach()``: subscription state is the span tap's
    membership, not a flag on the monitor that the capture cannot see."""
    with OBS.capture() as obs:
        monitor = SecurityMonitor(obs.tracer, {"com.android.email"}).attach()
    monitor.attach()
    try:
        with OBS.capture() as obs:
            with obs.tracer.span("vfs.read", path="/tmp/z"):
                pass
        assert monitor.spans_seen == 1
    finally:
        monitor.detach()
    assert monitor._on_span not in OBS.tracer.span_tap
