"""Security invariants re-checked from the trace stream.

The Table 1 scenarios run with tracing on and a security monitor
attached, which checks S1/S2 mechanically as each span closes: no span
attributed to a delegate context ``B^A`` may ever carry a virtual path
under another package's Priv, and no aufs open inside a delegate's tree
may resolve its writable branch into a root keyed to a different
initiator. Each span is attributed to the ``ctx`` it carries, which the
tracer stamps from its parent when the span's boundary sets none. This
is the same property the integration suite asserts behaviourally, but
checked against what the instrumented layers actually *did*, operation
by operation — a tracing bug that misattributed work, or a mount-table
bug that routed a delegate's write into a foreign branch, fails here
even if the end-state assertions happen to pass.
"""

import pytest

from repro.android.intents import Intent
from repro.core.cow import initiator_key
from repro.obs import OBS, critical_path, latency_summary
from repro.obs.export import to_chrome_trace, to_folded_stacks
from repro.obs.monitor import SecurityMonitor
from repro.obs.sweep import DATA_PREFIX, parse_delegate_ctx

pytestmark = pytest.mark.trace

EMAIL = "com.android.email"
ADOBE = "com.adobe.reader"
BROWSER = "com.android.browser"
SCANNER = "com.google.zxing.client.android"
CAMSCANNER = "com.intsig.camscanner"
CAMERA = "com.magix.camera_mx"
VPLAYER = "me.abitno.vplayer.t"
DROPBOX = "com.dropbox.android"
WRAPPER = "org.maxoid.wrapper"

MARKER = b"MARKER-TRACE-sensitive"

#: Layers whose boundaries tag a span with the ``ctx`` they act for; the
#: tracer stamps every other span with its parent's.
CTX_TAGGING_LAYERS = {"am", "zygote", "binder", "vfs"}


# ----------------------------------------------------------------------
# Scenarios (the Maxoid half of the Table 1 matrix, traced)
# ----------------------------------------------------------------------

def run_table1_delegates(env):
    """Drive every delegate scenario from the Table 1 suite."""
    # Row 1: document viewer as Email's delegate.
    email = env.spawn(EMAIL)
    attachment_id = env.apps[EMAIL].receive_attachment(
        email, "doc.pdf", b"%PDF " + MARKER
    )
    env.apps[EMAIL].view_attachment(email, attachment_id)
    # Row 2: barcode scanner as the Browser's delegate.
    env.launch_as_delegate(
        SCANNER,
        BROWSER,
        Intent(Intent.ACTION_SCAN, extras={"qr_payload": "secret-url.example"}),
    )
    # Row 2b: CamScanner as Email's delegate.
    delegate = env.spawn(CAMSCANNER, initiator=EMAIL)
    env.apps[CAMSCANNER].main(
        delegate,
        Intent(
            Intent.ACTION_SCAN,
            extras={
                "path": "/data/data/%s/attachments/%d/page.jpg" % (EMAIL, attachment_id)
            },
        ),
    )
    # Row 3: camera app as Dropbox's delegate.
    env.launch_as_delegate(
        CAMERA,
        DROPBOX,
        Intent(Intent.ACTION_IMAGE_CAPTURE, extras={"frame": MARKER}),
    )
    # Row 4: media player as the wrapper's delegate.
    wrapper = env.spawn(WRAPPER)
    env.apps[WRAPPER].add_document(wrapper, "home.mp4", MARKER)
    player = env.spawn(VPLAYER, initiator=WRAPPER)
    env.apps[VPLAYER].main(
        player,
        Intent(
            Intent.ACTION_VIEW,
            extras={"path": "/storage/sdcard/wrapper-vault/home.mp4"},
        ),
    )


@pytest.fixture
def table1_trace(loaded_device):
    """All Table 1 delegate scenarios executed under one capture, with
    the security monitor attached."""
    # CamScanner needs the attachment image staged before it is spawned
    # confined; receive_attachment handles that inside the capture.
    with OBS.capture(ring_capacity=65536, prov=True, profile=True) as obs:
        monitor = SecurityMonitor(
            obs.tracer, list(loaded_device.apps), ledger=obs.provenance
        )
        with monitor:
            run_table1_delegates(loaded_device)
        trees = obs.trees()
        latency = latency_summary(obs.metrics.snapshot())
        assert obs.tracer.ring.dropped == 0, "ring too small for the sweep"
    return loaded_device, trees, monitor, latency


# ----------------------------------------------------------------------
# Invariant tests
# ----------------------------------------------------------------------

def _spans(trees):
    return [node.span for tree in trees for node in tree.walk()]


def test_no_delegate_span_touches_a_foreign_priv(table1_trace):
    _, trees, monitor, _ = table1_trace
    assert monitor.delegate_spans > 50, (
        "positive control failed: the monitor saw almost no delegate-"
        "attributed spans, so the invariant was checked against nothing"
    )
    assert monitor.spans_seen == len(_spans(trees))
    assert not monitor.violations, "\n".join(monitor.messages)


def test_every_untagged_span_carries_its_parents_ctx(table1_trace):
    """A span whose boundary sets no ``ctx`` (aufs, cow, sql, vol, ...)
    acts for its caller, so it carries its parent's ``ctx`` from the
    moment it opens: consumers read the context off the span itself."""
    _, trees, _, _ = table1_trace
    inherited = 0
    for tree in trees:
        for node in tree.walk():
            parent_ctx = node.span.attrs.get("ctx")
            for child in node.children:
                if child.span.layer in CTX_TAGGING_LAYERS:
                    continue
                assert child.span.attrs.get("ctx") == parent_ctx, (
                    f"{child.name} under {node.name} does not act for "
                    f"{parent_ctx}"
                )
                inherited += parent_ctx is not None
    assert inherited > 50, "positive control: no span inherited a ctx"


def test_sweep_covers_every_scenarios_delegate_context(table1_trace):
    """Each Table 1 delegate pair must appear in the trace, so a scenario
    silently running unconfined (ctx ``B`` instead of ``B^A``) fails."""
    _, trees, _, _ = table1_trace
    seen = {
        span.attrs.get("ctx")
        for span in _spans(trees)
        if "^" in span.attrs.get("ctx", "")
    }
    expected = {
        f"{ADOBE}^{EMAIL}",
        f"{SCANNER}^{BROWSER}",
        f"{CAMSCANNER}^{EMAIL}",
        f"{CAMERA}^{DROPBOX}",
        f"{VPLAYER}^{WRAPPER}",
    }
    assert expected <= seen, f"missing delegate contexts: {expected - seen}"


def test_sweep_detects_a_planted_violation(loaded_device):
    """The monitor itself must be able to fail: a hand-built span tree in
    which a delegate touches another package's Priv is flagged, on the
    span that tags the ctx and on the aufs span that inherits it."""
    with OBS.capture() as obs:
        with SecurityMonitor(obs.tracer, list(loaded_device.apps)) as monitor:
            with OBS.tracer.span(
                "vfs.read",
                ctx=f"{ADOBE}^{EMAIL}",
                path=f"/data/data/{DROPBOX}/databases/secrets.db",
            ):
                with OBS.tracer.span(
                    "aufs.open", path=f"/data/data/{DROPBOX}/databases/secrets.db"
                ):
                    pass
    assert [v.span for v in monitor.violations] == ["aufs.open", "vfs.read"]
    assert all(DROPBOX in message for message in monitor.messages)


def test_delegate_writable_roots_stay_in_the_pair_or_initiator_area(table1_trace):
    """Every writable branch observed under a delegate context resolves to
    the ``B@A`` pair area or the initiator's volatile area — never to a
    bare foreign package root."""
    _, trees, _, _ = table1_trace
    checked = 0
    for span in _spans(trees):
        ctx = span.attrs.get("ctx")
        pair = parse_delegate_ctx(ctx)
        root = span.attrs.get("writable_root")
        if pair is None or not root or span.status != "ok":
            continue
        checked += 1
        delegate, initiator = pair
        allowed = {
            initiator_key(delegate),
            initiator_key(initiator),
            f"{initiator_key(delegate)}@{initiator_key(initiator)}",
        }
        first = root.strip("/").split("/")[0]
        assert first in allowed or root.startswith(DATA_PREFIX), (
            f"{span.name} in ctx {ctx} has writable root {root}, outside "
            f"the pair/initiator areas {sorted(allowed)}"
        )
    assert checked > 10, "positive control: no writable-branch spans swept"


# ----------------------------------------------------------------------
# Profiling the same trace (the perf plane over the security sweep)
# ----------------------------------------------------------------------

def test_critical_path_attributes_delegate_invocations(table1_trace):
    """For every Table 1 delegate-invocation tree, the critical-path
    report must attribute at least 95% of the root span's wall time to
    layer self-times — unattributed time means an instrumentation gap."""
    _, trees, _, _ = table1_trace
    invocations = [tree for tree in trees if tree.span.name.startswith("am.")]
    assert invocations, "no delegate-invocation roots in the Table 1 trace"
    for tree in invocations:
        report = critical_path(tree)
        assert report.coverage >= 0.95, (
            f"{report.root}: layers attribute only "
            f"{report.coverage * 100.0:.1f}% of {report.total_ms:.3f} ms"
        )
        assert report.steps[0].name == tree.span.name
        assert report.hottest_layer in report.by_layer


def test_table1_trace_exports_to_perfetto_and_flamegraph(table1_trace):
    """The whole security-sweep trace must survive both exporters: the
    Chrome/Perfetto JSON keeps every delegate context on its own pid row,
    and the folded stacks stay parseable by flamegraph.pl."""
    env, trees, _, _ = table1_trace
    document = to_chrome_trace(trees)
    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(events) == sum(1 for tree in trees for _ in tree.walk())
    process_names = {
        e["args"]["name"]
        for e in document["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    for ctx in (f"{ADOBE}^{EMAIL}", f"{VPLAYER}^{WRAPPER}"):
        assert ctx in process_names, f"delegate ctx {ctx} has no pid row"
    stacks = to_folded_stacks(trees)
    assert stacks
    for line in stacks:
        stack, _, weight = line.rpartition(" ")
        assert stack and int(weight) > 0


def test_table1_latency_histograms_cover_the_hot_layers(table1_trace):
    """``profile=True`` on the sweep capture must yield per-span-name
    latency summaries for the layers every scenario exercises."""
    _, _, _, latency = table1_trace
    assert {"vfs.open", "vfs.read", "zygote.fork"} <= set(latency)
    for name, row in latency.items():
        assert row["count"] >= 1, name
        assert 0.0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"], name
