"""Every kernel boundary emits the wiring it owes the verification planes.

The trace, crash, race and provenance sweeps see Maxoid's enforcement
points only through what they emit. This test drives the crash sweep's
workload under ``SCHED.run`` with obs, prov, a never-firing policy on
every fault point and the flight recorder armed. Per boundary method it
checks, in the phase that drives the method: its span or counter (obs);
a consult of each fault point (faults); a decision at each yield point
(sched); for a boundary that declares ``lock=``, that its lock was taken
for and is held at every one of its yields, or, with no yield, that the
phase driving only that method takes it (lock); a ``prov.*`` span whose
direct parent is its span, or for an actor scope one stamped beneath it
as its caller (prov). Boundaries that share an event name get phases of
their own.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import pytest

from repro import Device
from repro.android.am import ActivityManagerService
from repro.android.content.provider import ContentValues
from repro.android.intents import Intent
from repro.android.services.bluetooth import BluetoothService
from repro.android.services.clipboard import ClipboardService
from repro.android.services.download_manager import DownloadManager
from repro.android.services.telephony import TelephonyService
from repro.android.storage import EXTDIR
from repro.android.uri import Uri
from repro.android.zygote import Zygote
from repro.apps import install_standard_apps
from repro.core.cow import CowProxy
from repro.core.volatile import VolatileFiles
from repro.faults import FAULT_POINTS, fail_nth
from repro.kernel.aufs import AufsMount
from repro.kernel.binder import BinderDriver
from repro.kernel.mounts import MountNamespace
from repro.kernel.syscall import Syscalls
from repro.minisql.engine import Database
from repro.sched import SCHED

from .test_crash_sweep import NEVER, egress_phase
from .test_trace_invariants import EMAIL, SCANNER, VPLAYER, WRAPPER, run_table1_delegates

pytestmark = [pytest.mark.trace, pytest.mark.faults]

WORDS = Uri.content("user_dictionary", "words")
VAULT_LOG = f"{EXTDIR}/vault-log.txt"


class Need(NamedTuple):
    what: str
    met: Callable[[SimpleNamespace, SimpleNamespace], bool]
    #: the fault or yield point it names, if any
    point: Optional[str] = None


def _is(span, name: str, attrs: Dict[str, object]) -> bool:
    return span is not None and span.name == name and all(
        span.attrs.get(k) == v for k, v in attrs.items()
    )


def span(name: str, **attrs) -> Need:
    return Need(
        f"a {name} span" + (f" with {attrs}" if attrs else ""),
        lambda ev, run: any(_is(s, name, attrs) for s in ev.spans),
    )


def counted(name: str) -> Need:
    return Need(f"the {name} counter", lambda ev, run: ev.counters[name] > 0)


def consulted(*points: str) -> Tuple[Need, ...]:
    return tuple(
        Need(f"a consult of {p}", lambda ev, run, p=p: p in ev.consults, p)
        for p in points
    )


def decided(*points: str) -> Tuple[Need, ...]:
    return tuple(
        Need(f"a scheduler decision at {p}", lambda ev, run, p=p: p in ev.decisions, p)
        for p in points
    )


def locked(lock: str) -> Need:
    return Need(f"a {lock} lock acquisition", lambda ev, run: lock in ev.locks)


def held(point: str, *locks: str) -> Need:
    """Each ``<mode>:<lock>`` of ``locks`` was taken since the task's
    previous yield and is still held, at every yield at ``point``. The
    lock ``fs`` is the resolved filesystem's (``fs:*`` or ``aufs:*``)."""
    return Need(
        f"{' and '.join(locks)} taken for and held at every {point} yield",
        lambda ev, run: bool(ev.held.get(point))
        and all(set(locks) <= taken for taken in ev.held[point]),
        point,
    )


def _lock_kind(name: str) -> str:
    """``fs`` for any filesystem's lock, else the lock's own name."""
    return "fs" if name.startswith(("fs:", "aufs:")) else name


def stamped(prov: str, parent: str, **attrs) -> Need:
    return Need(
        f"a {prov} span directly under a {parent} span" + (f" with {attrs}" if attrs else ""),
        lambda ev, run: any(
            s.name == prov and _is(run.spans.get(s.parent_id), parent, attrs)
            for s in ev.spans
        ),
    )


def acted(scope: str) -> Need:
    def under_scope_as_caller(span, run) -> bool:
        parent = run.spans.get(span.parent_id)
        while parent is not None:
            if parent.name == scope and parent.attrs.get("ctx") == run.actors[span.span_id]:
                return True
            parent = run.spans.get(parent.parent_id)
        return False

    return Need(
        f"a prov.* span under {scope} stamped as its caller",
        lambda ev, run: any(
            s.name.startswith("prov.") and under_scope_as_caller(s, run) for s in ev.spans
        ),
    )


# ----------------------------------------------------------------------
# The wiring each kernel boundary owes
# ----------------------------------------------------------------------

def boundary(method: Callable, phase: str = "main", **needs) -> SimpleNamespace:
    """``needs`` maps each member to what the run must show for it."""
    return SimpleNamespace(
        method=method,
        phase=phase,
        needs={m: (n,) if isinstance(n, Need) else n for m, n in needs.items()},
    )


WIRING = (
    # syscall layer; open's actor scope shows in the append's copy-up
    boundary(
        Syscalls.open, "append",
        obs=span("vfs.open"), sched=decided("vfs.open"),
        lock=held("vfs.open", "r:ns", "w:fs"), prov=acted("vfs.open"),
    ),
    boundary(
        Syscalls.read_file,
        obs=span("vfs.read"), sched=decided("vfs.read"),
        lock=held("vfs.read", "r:ns", "r:fs"), prov=stamped("prov.read", "vfs.read"),
    ),
    boundary(
        Syscalls.write_file,
        obs=span("vfs.write", append=None), faults=consulted("vfs.write"),
        sched=decided("vfs.write"), lock=held("vfs.write", "r:ns", "w:fs"),
        prov=stamped("prov.write", "vfs.write", append=None),
    ),
    boundary(
        Syscalls.append_file, "append",
        obs=span("vfs.write", append=True), faults=consulted("vfs.write"),
        sched=decided("vfs.write"), lock=held("vfs.write", "r:ns", "w:fs"),
        prov=stamped("prov.write", "vfs.write", append=True),
    ),
    # mount namespaces
    boundary(
        MountNamespace.resolve, "resolve",
        obs=counted("mounts.resolve"), faults=consulted("mounts.resolve"),
        lock=locked("r:ns"),
    ),
    boundary(
        MountNamespace.mount,
        sched=decided("mounts.mount"), lock=held("mounts.mount", "w:ns"),
    ),
    boundary(
        MountNamespace.umount, "teardown",
        sched=decided("mounts.umount"), lock=held("mounts.umount", "w:ns"),
    ),
    # aufs union filesystem
    boundary(AufsMount.open, obs=span("aufs.open")),
    boundary(
        AufsMount._copy_up, "append",
        obs=span("aufs.copy_up"),
        faults=consulted("aufs.copy_up", "aufs.copy_up.publish"),
        sched=decided("aufs.copy_up", "aufs.copy_up.publish"),
        lock=held("aufs.copy_up", "w:fs"),
        prov=stamped("prov.copy_up", "aufs.copy_up"),
    ),
    # binder
    boundary(
        BinderDriver.transact,
        obs=span("binder.transact"), faults=consulted("binder.transact"),
        sched=decided("binder.transact", "binder.deliver"), prov=acted("binder.transact"),
    ),
    # activity manager and zygote
    boundary(
        ActivityManagerService.start_activity,
        obs=span("am.start_activity"), faults=consulted("am.delegate_bookkeeping"),
        sched=decided("am.start_activity", "am.bookkeeping"),
        prov=stamped("prov.intent", "am.start_activity"),
    ),
    boundary(ActivityManagerService.send_broadcast, obs=span("am.broadcast")),
    boundary(
        Zygote.fork_app,
        obs=span("zygote.fork"), faults=consulted("zygote.fork"),
        prov=stamped("prov.fork", "zygote.fork"),
    ),
    # COW provider proxy
    boundary(CowProxy.query, obs=span("cow.query"), prov=stamped("prov.query", "cow.query")),
    boundary(
        CowProxy.insert,
        obs=span("cow.insert"),
        # Each branch stamps its own row: a delegate's delta row, a plain row.
        prov=(
            stamped("prov.row", "cow.insert", initiator=WRAPPER),
            stamped("prov.row", "cow.insert", initiator=None),
        ),
    ),
    boundary(CowProxy.update, obs=span("cow.update")),
    boundary(CowProxy.delete, obs=span("cow.delete")),
    boundary(CowProxy.discard_volatile, "teardown", obs=span("cow.discard")),
    boundary(
        CowProxy.commit_volatile, "commit",
        obs=span("cow.commit", committed=True),
        faults=consulted(
            "cow.delta_commit", "cow.delta_commit.apply", "cow.delta_commit.truncate"
        ),
        sched=decided("cow.delta_commit", "cow.delta_commit.apply"),
    ),
    boundary(
        CowProxy.commit_volatile_batch, "batch",
        obs=counted("cow.commits"),
        faults=consulted(
            "cow.delta_commit", "cow.delta_commit.apply", "cow.delta_commit.truncate"
        ),
        sched=decided("cow.delta_commit", "cow.delta_commit.apply"),
    ),
    # volatile state
    boundary(
        VolatileFiles.commit, "commit",
        obs=span("vol.commit"),
        faults=consulted(
            "vol.commit", "vol.commit.journal", "vol.commit.apply", "vol.commit.truncate"
        ),
        sched=decided("vol.commit", "vol.commit.apply", "vol.commit.truncate"),
        prov=stamped("prov.commit", "vol.commit"),
    ),
    boundary(VolatileFiles.list_files, obs=span("vol.list")),
    # minisql
    boundary(Database.execute, obs=span("sql.execute"), prov=stamped("prov.row", "sql.execute")),
    # clipboard: no sched yield on purpose, so its mutations stay atomic
    # under the cooperative scheduler without a lock
    boundary(
        ClipboardService.set_text, obs=span("clip.set"), prov=stamped("prov.clip", "clip.set")
    ),
    boundary(
        ClipboardService.get_text, obs=span("clip.get"), prov=stamped("prov.clip", "clip.get")
    ),
    # egress services
    boundary(
        BluetoothService.send,
        obs=span("bt.send"), faults=consulted("bt.send"), sched=decided("bt.send"),
    ),
    boundary(
        TelephonyService.send_sms,
        obs=span("sms.send"), faults=consulted("sms.send"), sched=decided("sms.send"),
    ),
    boundary(
        DownloadManager.enqueue,
        obs=span("dm.enqueue"), faults=consulted("dm.enqueue"), sched=decided("dm.enqueue"),
    ),
)


# ----------------------------------------------------------------------
# The run: the crash sweep's workload, one SCHED.run per phase
# ----------------------------------------------------------------------

def _phases(env) -> Dict[str, Callable[[], None]]:
    s = SimpleNamespace()
    proxy = env.user_dictionary.proxy

    def main():
        run_table1_delegates(env)
        egress_phase(env)
        s.wrapper = env.spawn(WRAPPER)
        s.delegate = env.spawn(VPLAYER, initiator=WRAPPER)
        s.wrapper.write_external("vault-log.txt", b"seed")
        s.delegate.write_external("sweep-note.txt", b"wiring payload")
        for word in ("alpha", "beta", "gamma", "delta"):
            s.delegate.insert(WORDS, ContentValues({"word": word}))
        s.wrapper.insert(WORDS, ContentValues({"word": "public"}))
        s.delegate.query(WORDS)
        s.delegate.update(WORDS, ContentValues({"word": "beta2"}), "word = ?", ["beta"])
        s.delegate.delete(WORDS, "word = ?", ["delta"])
        s.delegate.clipboard_set("copied")
        s.delegate.clipboard_get()
        s.wrapper.send_broadcast(Intent("org.maxoid.wiring.PING"))
        s.wrapper.volatile.list_files()
        # AM stamps an intent flow only for a caller that holds labels.
        email = env.spawn(EMAIL)
        attachment = env.apps[EMAIL].receive_attachment(email, "labeled.pdf", b"%PDF x")
        email.read_internal(f"attachments/{attachment}/labeled.pdf")
        env.apps[EMAIL].view_attachment(email, attachment)

    def volatile_ids():
        return [row["_id"] for row in proxy.volatile_rows("words", WRAPPER).dicts()]

    def commit():
        s.wrapper.volatile.commit(f"{EXTDIR}/tmp/sweep-note.txt")
        proxy.commit_volatile("words", WRAPPER, volatile_ids()[0])

    def teardown():
        s.wrapper.clear_my_volatile()
        env.spawn(SCANNER, initiator=WRAPPER).process.namespace.umount(EXTDIR)

    return {
        "main": main,
        # A public lower-branch file, so the append forces a copy-up.
        "append": lambda: s.delegate.sys.append_file(VAULT_LOG, b"+delegate line"),
        "commit": commit,
        "batch": lambda: proxy.commit_volatile_batch("words", WRAPPER, volatile_ids()),
        "resolve": lambda: s.wrapper.process.namespace.resolve(VAULT_LOG),
        "teardown": teardown,
    }


@pytest.fixture(scope="module")
def run() -> SimpleNamespace:
    device = Device(maxoid_enabled=True, device_id="wiring")
    device.network.publish("example.com", "leaflet.pdf", b"%PDF public leaflet")
    device.apps = install_standard_apps(device)
    obs = device.obs
    run = SimpleNamespace(phases={}, spans={}, actors={})

    def note_actor(span) -> None:
        if span.name.startswith("prov."):
            run.actors[span.span_id] = obs.provenance.current_actor()[0]

    # Per task, the locks it took since its previous yield; per yield
    # point, those of them it still holds there.
    taken: Dict[str, List[Tuple[object, str]]] = {}
    held_at: Dict[str, List[FrozenSet[str]]] = {}
    tasks: Dict[str, object] = {}

    def note_lock(task, lock, mode, _action) -> None:
        tasks[task.name] = task
        taken.setdefault(task.name, []).append((lock, mode))

    def note_yield(_step, task, point) -> None:
        holding = tasks[task].held_locks if task in tasks else []
        held_at.setdefault(point, []).append(frozenset(
            f"{mode}:{_lock_kind(lock.name)}"
            for lock, mode in taken.pop(task, []) if (lock, mode) in holding
        ))

    with obs.capture(ring_capacity=1 << 16, prov=True):
        obs.tracer.span_tap.add(note_actor)
        SCHED.lock_tap.add(note_lock)
        SCHED.decision_tap.add(note_yield)
        recorder = obs.recorder.arm(capacity=1 << 16, audit_log=device.audit_log)
        for point in FAULT_POINTS:
            obs.faults.arm(point, fail_nth(NEVER))
        try:
            for name, body in _phases(device).items():
                first_span = len(obs.spans())
                counted_before = Counter(obs.metrics.snapshot().counters)
                last_seq = recorder.seq
                held_at.clear()
                SCHED.run({name: body})
                # Recorder details: "<task> @ <point>", "<mode>:<lock> by <task>".
                events = [e for e in recorder.events() if e.seq > last_seq]
                run.phases[name] = SimpleNamespace(
                    spans=obs.spans()[first_span:],
                    counters=Counter(obs.metrics.snapshot().counters) - counted_before,
                    consults={e.name for e in events if e.plane == "fault"},
                    decisions={e.detail.split(" @ ")[1] for e in events if e.name == "decision"},
                    locks={e.detail.split(" by ")[0] for e in events if e.plane == "lock"},
                    held=dict(held_at),
                )
            assert obs.tracer.ring.dropped == 0 and recorder.evicted == 0
            run.spans = {s.span_id: s for s in obs.spans()}
        finally:
            recorder.disarm()
            SCHED.lock_tap.remove(note_lock)
            SCHED.decision_tap.remove(note_yield)
            obs.faults.reset()
    return run


@pytest.mark.parametrize("wiring", WIRING, ids=lambda b: b.method.__qualname__)
def test_boundary_emits_its_wiring(wiring, run):
    phase = run.phases[wiring.phase]
    missing = [
        f"{member}: {need.what}"
        for member, needs in wiring.needs.items()
        for need in needs
        if not need.met(phase, run)
    ]
    assert not missing, (
        f"{wiring.method.__qualname__} (phase {wiring.phase}) lost its wiring: "
        + "; ".join(missing)
    )


def test_phases_keep_shared_names_apart(run):
    writes = [s for s in run.phases["append"].spans if s.name == "vfs.write"]
    assert writes and all(s.attrs.get("append") for s in writes)
    assert not any(s.attrs.get("append") for s in run.phases["main"].spans)
    assert not any(s.name == "cow.commit" for s in run.phases["batch"].spans)
    assert run.phases["resolve"].spans == []


def test_every_fault_point_and_yield_point_has_an_owner(run):
    owned = {need.point for b in WIRING for needs in b.needs.values() for need in needs}
    consulted_points = {need.point for b in WIRING for need in b.needs.get("faults", ())}
    assert set(FAULT_POINTS) == consulted_points, sorted(
        set(FAULT_POINTS) ^ consulted_points
    )
    yields = set().union(*(p.decisions for p in run.phases.values())) - {"start"}
    assert yields <= owned, sorted(yields - owned)
