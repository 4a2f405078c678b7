"""End-to-end instrumentation: one delegate invocation, one span tree.

The acceptance bar for the obs subsystem: with tracing enabled, a single
delegate invocation yields a single connected trace tree that crosses the
AM, zygote, syscall/vfs, aufs, and COW-proxy layers, and the metrics
registry accounts for the per-layer operations the invocation performed.
"""

import json

import pytest

from repro import AndroidManifest, Device, Intent
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro.obs import OBS, layer_self_times
from repro.workloads.harness import measure

pytestmark = pytest.mark.trace

INITIATOR = "com.obs.initiator"
WORKER = "com.obs.worker"
WORDS = Uri.content("user_dictionary", "words")


class _Worker:
    """Touches every layer: public file append (copy-up), a new external
    file, and a provider insert (binder -> COW proxy -> SQL engine)."""

    def main(self, api, intent):
        api.sys.append_file("/storage/sdcard/shared/notes.txt", b" worker-was-here")
        api.write_external("worker/out.bin", b"x" * 2048)
        api.insert(
            WORDS, ContentValues({"word": "traced", "frequency": 2, "locale": "en"})
        )
        return "ok"


class _NopApp:
    def main(self, api, intent):
        return None


@pytest.fixture
def traced_device():
    device = Device(maxoid_enabled=True)
    device.install(AndroidManifest(package=INITIATOR), _NopApp())
    device.install(AndroidManifest(package=WORKER), _Worker())
    seed = device.spawn(INITIATOR)
    seed.sys.makedirs("/storage/sdcard/shared")
    seed.sys.write_file("/storage/sdcard/shared/notes.txt", b"seed content")
    return device


def test_delegate_invocation_yields_one_connected_tree(traced_device):
    with OBS.capture() as obs:
        invocation = traced_device.launch_as_delegate(
            WORKER, INITIATOR, Intent("android.intent.action.MAIN")
        )
    assert invocation.result == "ok"
    roots = [t for t in obs.trees() if t.name == "am.start_activity"]
    assert len(roots) == 1, "the delegate invocation must produce one AM root span"
    tree = roots[0]
    # The acceptance criterion: every layer present in ONE connected tree.
    assert {"am", "zygote", "vfs", "aufs", "cow"} <= tree.layers()
    # The COW write rode Binder into the provider and hit the SQL engine.
    assert "binder" in tree.layers() and "sql" in tree.layers()
    # The root span is attributed to the delegate context.
    assert tree.span.attrs["ctx"] == f"{WORKER}^{INITIATOR}"


def test_copy_up_span_appears_under_the_delegates_write(traced_device):
    with OBS.capture() as obs:
        traced_device.launch_as_delegate(
            WORKER, INITIATOR, Intent("android.intent.action.MAIN")
        )
    (tree,) = [t for t in obs.trees() if t.name == "am.start_activity"]
    copy_ups = tree.find("aufs.copy_up")
    assert copy_ups, "appending to a public file as a delegate must copy up"
    assert copy_ups[0].span.attrs["path"].endswith("notes.txt")


def test_metrics_account_for_the_invocation(traced_device):
    with OBS.capture() as obs:
        before = obs.metrics.snapshot()
        traced_device.launch_as_delegate(
            WORKER, INITIATOR, Intent("android.intent.action.MAIN")
        )
        delta = obs.metrics.snapshot() - before
    assert delta.counter("zygote.forks") == 1
    assert delta.counter("am.invocations") == 1
    assert delta.counter("am.delegate_invocations") == 1
    assert delta.counter("aufs.copy_up") == 1
    assert delta.counter("vfs.write") >= 2
    assert delta.counter("sql.statements") >= 1
    assert delta.counter("cow.insert") >= 1
    assert delta.histograms["vfs.write.bytes"].count == delta.counter("vfs.write")


def test_layer_self_times_cover_every_traced_layer(traced_device):
    with OBS.capture() as obs:
        traced_device.launch_as_delegate(
            WORKER, INITIATOR, Intent("android.intent.action.MAIN")
        )
    times = layer_self_times(obs.spans())
    for layer in ("am", "zygote", "vfs", "aufs", "cow", "sql"):
        assert times.get(layer, 0.0) > 0.0, f"no self time attributed to {layer}"


def test_harness_capture_metrics_attaches_layer_breakdown(traced_device):
    api = traced_device.spawn(INITIATOR)
    measurement = measure(
        lambda: api.sys.read_file("/storage/sdcard/shared/notes.txt"),
        trials=5,
        warmup=1,
        label="read",
        capture_metrics=True,
    )
    assert measurement.metrics_delta is not None
    assert measurement.metrics_delta.counter("vfs.read") == 5
    layers = measurement.layer_counters()
    assert "vfs" in layers and "mounts" in layers
    assert not OBS.enabled, "measure() must restore the disabled state"


def test_jsonl_dump_from_a_device_run(traced_device, tmp_path):
    path = str(tmp_path / "delegate.jsonl")
    with open(path, "w", encoding="utf-8") as fh, OBS.capture() as obs:
        obs.tracer.span_tap.add(
            lambda span: fh.write(json.dumps(span.to_dict(), default=str) + "\n")
        )
        traced_device.launch_as_delegate(
            WORKER, INITIATOR, Intent("android.intent.action.MAIN")
        )
    lines = open(path).read().strip().splitlines()
    assert len(lines) > 10
    assert any('"am.start_activity"' in line for line in lines)
