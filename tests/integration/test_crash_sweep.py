"""The crash sweep: kill the device at every fault point, recover, and
prove nothing tore and nothing leaked.

For each registered fault point the Table 1 delegate scenarios (plus an
explicit commit phase, so the commit-path points fire too) run with a
:func:`~repro.faults.crash_at` policy armed mid-way through that point's
hit sequence. The ``SimulatedCrash`` unwinds through every simulated
layer — it is a ``BaseException``, nothing in the stack may catch it —
and ``Device.recover()`` then has to bring the device back:

- no torn state: the commit WAL and every COW commit journal drain to
  empty, no copy-up staging file survives, no orphaned delegate lingers;
- no security violation: the post-recovery validation sweep re-checks
  S1/S2 over a traced probe workload and must come back clean;
- still alive: a fresh delegate write → initiator commit cycle works.

A planted-violation control corrupts a delegate's mount table by hand and
asserts the validation sweep actually flags it — and that recovery's
namespace rebuild repairs exactly that corruption.
"""

import pytest

from repro import Device
from repro.android.content.provider import ContentValues
from repro.android.storage import EXTDIR
from repro.android.uri import Uri
from repro.apps import install_standard_apps
from repro.core.cow import initiator_key
from repro.faults import FAULT_POINTS, FAULTS, SimulatedCrash, crash_at, fail_nth
from repro.kernel.aufs import AufsMount, Branch
from repro.kernel.vfs import ROOT_CRED

from .test_trace_invariants import (
    DROPBOX,
    EMAIL,
    VPLAYER,
    WRAPPER,
    run_table1_delegates,
)

pytestmark = [pytest.mark.faults, pytest.mark.trace]

WORDS = Uri.content("user_dictionary", "words")

#: A policy hit count no workload reaches: arms a point without ever
#: firing, so the counting pre-pass can measure hit totals.
NEVER = 10**9


def _loaded():
    """A fresh loaded device (module-scoped twin of ``loaded_device``)."""
    device = Device(maxoid_enabled=True)
    device.network.publish("dropbox.com", "report.pdf", b"%PDF dropbox report")
    device.network.publish("drive.google.com", "notes.txt", b"drive notes body")
    device.network.publish("example.com", "leaflet.pdf", b"%PDF public leaflet")
    device.apps = install_standard_apps(device)
    return device


def commit_phase(env):
    """Exercise both commit paths so their fault points fire: one
    volatile file commit and one COW batch commit."""
    delegate = env.spawn(VPLAYER, initiator=WRAPPER)
    delegate.write_external("sweep-note.txt", b"crash sweep payload")
    delegate.insert(WORDS, ContentValues({"word": "sweepword"}))
    wrapper = env.spawn(WRAPPER)
    # Appending to a public (lower-branch) file from the delegate's view
    # forces an aufs copy-up into Vol(WRAPPER).
    wrapper.write_external("vault-log.txt", b"seed")
    delegate.sys.append_file("/storage/sdcard/vault-log.txt", b"+delegate line")
    wrapper.volatile.commit("/storage/sdcard/tmp/sweep-note.txt")
    proxy = env.user_dictionary.proxy
    rows = proxy.volatile_rows("words", WRAPPER)
    pk = [c.lower() for c in rows.columns].index("_id")
    proxy.commit_volatile_batch("words", WRAPPER, [r[pk] for r in rows.rows])


def egress_phase(env):
    """Drive the egress services from a plain (non-delegate) app so the
    bt.send / sms.send / dm.enqueue fault points fire."""
    wrapper = env.spawn(WRAPPER)
    wrapper.bluetooth_send("headset-0", b"sweep bt payload")
    wrapper.send_sms("+15550100", "sweep sms body")
    wrapper.enqueue_download("http://example.com/leaflet.pdf", "leaflet")


def crash_workload(env):
    run_table1_delegates(env)
    commit_phase(env)
    egress_phase(env)


@pytest.fixture(scope="module")
def point_hits():
    """How often the workload consults each fault point, measured with
    never-firing policies armed everywhere."""
    FAULTS.reset()
    for point in FAULT_POINTS:
        FAULTS.arm(point, fail_nth(NEVER))
    try:
        crash_workload(_loaded())
        return {point: FAULTS.hits(point) for point in FAULT_POINTS}
    finally:
        FAULTS.reset()


def _assert_no_torn_state(env):
    """Every journal drained, every staging file gone, no orphans left."""
    assert len(env.commit_journal) == 0, "file-commit WAL still has entries"
    assert env.branches.purge_copyup_temps() == [], "copy-up temp survived"
    for provider in (env.user_dictionary, env.media, env.downloads, env.contacts):
        assert provider.proxy.recover() == (0, 0), (
            f"{provider.authority}: COW journal not drained"
        )
    assert env.am.reap_orphans() == [], "orphaned delegate survived recovery"


def _assert_still_functional(env):
    """A full delegate-write → initiator-commit cycle after recovery."""
    delegate = env.spawn(VPLAYER, initiator=WRAPPER)
    delegate.write_external("post-crash.txt", b"recovered")
    wrapper = env.spawn(WRAPPER)
    destination = wrapper.volatile.commit("/storage/sdcard/tmp/post-crash.txt")
    assert wrapper.sys.read_file(destination) == b"recovered"


@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_crash_at_every_point_recovers_clean(point, point_hits):
    hits = point_hits[point]
    assert hits > 0, f"the workload never reaches fault point {point!r}"
    # Crash mid-sequence, not at the trivially-first hit, wherever the
    # workload offers the room.
    nth = (hits + 1) // 2
    FAULTS.reset()
    env = _loaded()
    FAULTS.arm(point, crash_at(nth=nth))
    with pytest.raises(SimulatedCrash) as excinfo:
        crash_workload(env)
    assert excinfo.value.point == point

    report = env.recover()

    _assert_no_torn_state(env)
    assert report.validation_spans_checked > 0, (
        "validation sweep saw no delegate spans — the S1/S2 check ran "
        "against nothing"
    )
    assert report.clean, "\n".join(report.validation_violations)
    # The crash and every repair action are on the audit trail.
    assert any(e.category == "fault" for e in env.audit_log.events())
    _assert_still_functional(env)


def test_sweep_covers_at_least_eight_points_across_four_layers(point_hits):
    reached = {point for point, hits in point_hits.items() if hits > 0}
    layers = {point.split(".")[0] for point in reached}
    assert len(reached) >= 8, f"only {sorted(reached)} reached by the workload"
    assert len(layers) >= 4, f"only layers {sorted(layers)} covered"


# ----------------------------------------------------------------------
# Controls: the validation sweep must be able to fail, and recovery's
# namespace rebuild must repair exactly the corruption it flags.
# ----------------------------------------------------------------------

def _plant_foreign_mount(env, delegate):
    """Route the delegate's external view into a branch keyed to EMAIL —
    the mount-table corruption S2 exists to prevent."""
    evil_root = "/" + initiator_key(EMAIL)
    if not env.branches.deleg_fs.exists(evil_root, ROOT_CRED):
        env.branches.deleg_fs.mkdir(evil_root, ROOT_CRED, mode=0o777, parents=True)
    evil = AufsMount(
        [Branch(env.branches.deleg_fs, evil_root, writable=True, label="evil")],
        always_allow_read=True,
        label="evil",
    )
    delegate.process.namespace.mount(EXTDIR, evil)


def test_planted_mount_corruption_is_flagged_by_the_sweep(loaded_device):
    env = loaded_device
    delegate = env.spawn(VPLAYER, initiator=DROPBOX)
    _plant_foreign_mount(env, delegate)
    violations, spans_checked = env._validation_sweep()
    assert spans_checked > 0
    assert any(EMAIL in violation for violation in violations), (
        "the control violation went undetected — the crash sweep's clean "
        "verdicts prove nothing"
    )


def test_recovery_rebuilds_the_corrupted_namespace(loaded_device):
    env = loaded_device
    delegate = env.spawn(VPLAYER, initiator=DROPBOX)
    _plant_foreign_mount(env, delegate)
    report = env.recover()
    assert report.namespaces_rebuilt > 0
    assert report.clean, "\n".join(report.validation_violations)
    # The delegate's external writes land back in its pair/initiator area,
    # not in the planted foreign branch.
    delegate.write_external("healed.txt", b"x")
    foreign = "/" + initiator_key(EMAIL) + "/healed.txt"
    assert not env.branches.deleg_fs.exists(foreign, ROOT_CRED)
