"""The four seeded workloads.

Every workload is a closed loop with one client. The runner drives it as

- ``setup()``: build the world, preload it and warm up every op type once;
- ``plan(i)``: choose op ``i`` from the seeded stream (untimed). Op kinds
  are drawn in shuffled blocks of fixed proportions (``MIX``), so every
  run has the exact mix in a seeded order and the mix cannot differ
  between two runs being compared;
- ``execute(spec)``: run the op (the timed part);
- ``check(i, spec, raw)``: verify the result against a model and render it
  counter-free for the output digest (untimed); returns ``(render,
  problems)``;
- ``finish()``: end-of-run checks.

The same seed gives the same op stream and the same renders, so two runs
agree op for op on their common prefix.
"""

from __future__ import annotations

import gc
import random
import string
from typing import Any, Dict, List, Optional, Tuple

from repro import AndroidManifest, Device, Intent
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro.apps import catalog
from repro.core.cow import VOLATILE_PK_BASE
from repro.fuzz import run_scenario, scenario_from_seed
from repro.fuzz.interleave import concurrent_scenario_from_seed, run_interleaved

MARKER = b"E2E-CONFIDENTIAL"

EMAIL = "com.android.email"
ADOBE = "com.adobe.reader"
BROWSER = "com.android.browser"
SCANNER = "com.google.zxing.client.android"
CAMSCANNER = "com.intsig.camscanner"
CAMERA = "com.magix.camera_mx"
VPLAYER = "me.abitno.vplayer.t"
WRAPPER = "org.maxoid.wrapper"
DROPBOX = "com.dropbox.android"
OFFICE = "cn.wps.moffice"
OBSERVER = "org.e2ebench.observer"
OWNER = "org.e2ebench.owner"
READER = "org.e2ebench.reader"

EXTDIR = "/storage/sdcard"
DROPBOX_HOST = "dropbox.com"
DOWNLOAD_HOST = "example.com"
OFFICE_EDIT = b"\n[edited with office]"


class Workload:
    """Base class; subclasses set ``name`` and implement the hooks."""

    name = ""
    #: op kind -> how many of each in one block of the op stream.
    MIX: Dict[str, int] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._block: List[str] = []

    def _next_kind(self) -> str:
        if not self._block:
            self._block = [kind for kind, count in self.MIX.items() for _ in range(count)]
            self.rng.shuffle(self._block)
        return self._block.pop()

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, i: int) -> tuple:
        raise NotImplementedError

    def execute(self, spec: tuple) -> Any:
        raise NotImplementedError

    def check(self, i: int, spec: tuple, raw: Any) -> Tuple[str, List[str]]:
        raise NotImplementedError

    def finish(self) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# delegate_invoke: whole Table 1 / section 7.1 invocations
# ---------------------------------------------------------------------------


class DelegateInvoke(Workload):
    """One op is one seeded pick of eight delegate flows, run from intent
    through its commit or discard step."""

    name = "delegate_invoke"
    #: The world's state grows with every invocation (dead process
    #: records, download notifications, network logs), so it is rebuilt,
    #: untimed, every this many ops: a commit that completes more ops in
    #: the same time must not pay for a larger world.
    EPOCH_OPS = 1000
    #: every initiator discards Vol and Priv every this many invocations.
    DISCARD_EVERY = 16
    #: the observer scans public storage for markers every this many ops.
    SCAN_EVERY = 50
    FLOWS = (
        "email_view",
        "zxing_scan",
        "camscanner",
        "cameramx",
        "vplayer",
        "wrapper_incognito",
        "dropbox_commit",
        "incognito_download",
    )
    MIX = {flow: 1 for flow in FLOWS}
    #: flow -> (initiator, delegate app it must run as)
    EXPECTED = {
        "email_view": (EMAIL, ADOBE),
        "zxing_scan": (BROWSER, SCANNER),
        "camscanner": (WRAPPER, CAMSCANNER),
        "cameramx": (WRAPPER, CAMERA),
        "vplayer": (WRAPPER, VPLAYER),
        "wrapper_incognito": (WRAPPER, ADOBE),
        "dropbox_commit": (DROPBOX, OFFICE),
        "incognito_download": (BROWSER, ADOBE),
    }

    def setup(self) -> None:
        self._build()
        warm = random.Random(f"{self.name}:warm-up")
        for flow in self.FLOWS:
            spec = (flow, warm.randrange(len(self.attachments)))
            self.check(-1, spec, self.execute(spec))

    def _build(self) -> None:
        device = Device(maxoid_enabled=True)
        device.network.publish(DROPBOX_HOST, "report.pdf", b"%PDF report " + MARKER)
        device.network.publish(DOWNLOAD_HOST, "leaflet.pdf", b"%PDF leaflet " + MARKER)
        self.apps = catalog.install_standard_apps(device)
        device.install(AndroidManifest(package=OBSERVER))
        self.device = device
        self.observer = device.spawn(OBSERVER)
        self.email = device.spawn(EMAIL)
        self.attachments = [
            self.apps[EMAIL].receive_attachment(
                self.email, f"contract{k}.pdf", b"%%PDF contract %d " % k + MARKER
            )
            for k in range(4)
        ]
        self.wrapper = device.spawn(WRAPPER)
        self.apps[WRAPPER].add_document(self.wrapper, "taxes.pdf", b"%PDF taxes " + MARKER)
        self.apps[WRAPPER].add_document(self.wrapper, "clip.mp4", b"MP4 clip " + MARKER)
        self.dropbox = device.spawn(DROPBOX)
        self.browser = device.spawn(BROWSER)
        self.invocations: Dict[str, int] = {}

    def plan(self, i: int) -> tuple:
        return (self._next_kind(), self.rng.randrange(len(self.attachments)))

    def execute(self, spec: tuple) -> dict:
        flow, pick = spec
        device, apps = self.device, self.apps
        extra: Any = None
        if flow == "email_view":
            invocation = apps[EMAIL].view_attachment(self.email, self.attachments[pick])
        elif flow == "zxing_scan":
            invocation = device.launch_as_delegate(
                SCANNER,
                BROWSER,
                Intent(Intent.ACTION_SCAN, extras={"qr_payload": f"{DOWNLOAD_HOST}/qr{pick}"}),
            )
        elif flow == "camscanner":
            invocation = apps[WRAPPER].open_with_real_app(
                self.wrapper, "taxes.pdf", Intent.ACTION_SCAN, component=CAMSCANNER
            )
        elif flow == "cameramx":
            invocation = self.wrapper.start_activity(
                Intent(
                    Intent.ACTION_IMAGE_CAPTURE,
                    component=CAMERA,
                    extras={"frame": b"\xff\xd8photo " + MARKER},
                )
            )
        elif flow == "vplayer":
            invocation = apps[WRAPPER].open_with_real_app(
                self.wrapper, "clip.mp4", component=VPLAYER
            )
        elif flow == "wrapper_incognito":
            invocation = apps[WRAPPER].open_with_real_app(
                self.wrapper, "taxes.pdf", component=ADOBE
            )
            extra = apps[WRAPPER].end_session(self.wrapper)
        elif flow == "dropbox_commit":
            apps[DROPBOX].sync_down(self.dropbox, ["report.pdf"])
            invocation = device.launch_as_delegate(
                OFFICE,
                DROPBOX,
                Intent(Intent.ACTION_EDIT, extras={"path": f"{EXTDIR}/Dropbox/report.pdf"}),
            )
            committed = apps[DROPBOX].upload_from_tmp(self.dropbox, "report.pdf")
            extra = (committed, self.dropbox.sys.read_file(committed))
            device.clear_volatile(DROPBOX)
        else:  # incognito_download
            apps[BROWSER].download(
                self.browser,
                f"https://{DOWNLOAD_HOST}/leaflet.pdf",
                "leaflet.pdf",
                incognito=True,
            )
            device.run_downloads()
            note = device.downloads.notifications[-1]
            invocation = apps[BROWSER].open_download(self.browser, note)
            device.launcher.clear_vol(BROWSER)
            device.launcher.clear_priv(BROWSER)
        initiator = self.EXPECTED[flow][0]
        count = self.invocations.get(initiator, 0) + 1
        self.invocations[initiator] = count
        if count % self.DISCARD_EVERY == 0:
            device.launcher.clear_vol(initiator)
            device.launcher.clear_priv(initiator)
        return {"invocation": invocation, "extra": extra}

    def check(self, i: int, spec: tuple, raw: dict) -> Tuple[str, List[str]]:
        flow = spec[0]
        invocation = raw["invocation"]
        initiator, app = self.EXPECTED[flow]
        context = invocation.process.context
        problems = []
        if (invocation.target, context.app, context.initiator) != (app, app, initiator):
            problems.append(f"{flow}: ran as {context}, expected {app}^{initiator}")
        if flow == "dropbox_commit":
            committed, data = raw["extra"]
            expected = b"%PDF report " + MARKER + OFFICE_EDIT
            if data != expected:
                problems.append(f"U2: initiator reads {data!r} at {committed}")
        elif flow == "incognito_download":
            fresh = self.device.spawn(ADOBE, initiator=BROWSER)
            if fresh.prefs.get("recent_files") is not None:
                problems.append("S4: delegate recents survived clear_priv")
        if i >= 0 and (i + 1) % self.SCAN_EVERY == 0:
            problems.extend(self._scan_public())
        # EPOCH_OPS is a multiple of SCAN_EVERY: every world is scanned
        # before it is replaced. Collecting before and after the rebuild
        # keeps peak memory from depending on when the collector last ran.
        if i >= 0 and (i + 1) % self.EPOCH_OPS == 0:
            gc.collect()
            self._build()
            gc.collect()
        result = invocation.result or {}
        render = f"{flow}|{context}|{sorted(result.items())!r}|{raw['extra']!r}"
        return render, problems

    def finish(self) -> List[str]:
        return self._scan_public()

    def _scan_public(self) -> List[str]:
        """S1/S2: nothing confidential reaches public external storage."""
        leaks = []
        for path in self.observer.sys.walk_files(EXTDIR):
            if MARKER in self.observer.sys.read_file(path):
                leaks.append(f"S1/S2: marker readable at {path}")
        return leaks


# ---------------------------------------------------------------------------
# cow_read / cow_write: the user dictionary through the COW proxy
# ---------------------------------------------------------------------------

WHITEOUT = None  # model value of a delta row that deletes its public row


class _CowWorkload(Workload):
    """A delegate ``READER^OWNER`` on a 1,000-row user dictionary with a
    live 100-row delta, checked against an in-memory model of the public
    table and the delta."""

    PUBLIC_ROWS = 1000
    DELTA = (40, 40, 20)  # inserts, updates, deletes written during set-up
    PREFIX_LETTERS = "abcdefghijkl"

    def setup(self) -> None:
        self._build()

    def _new_row(self, rng: random.Random) -> Dict[str, object]:
        """A dictionary word whose two-letter prefix ``LIKE`` scans pick."""
        word = (
            rng.choice(self.PREFIX_LETTERS)
            + rng.choice(self.PREFIX_LETTERS)
            + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        )
        return {"word": word, "frequency": rng.randrange(1, 255), "locale": "en", "appid": 0}

    @staticmethod
    def _as_tuple(row_id: int, row: Dict[str, object]) -> tuple:
        return (row_id, row["word"], row["frequency"], row["locale"], row["appid"])

    def _build(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:world")
        device = Device(maxoid_enabled=True)
        device.install(AndroidManifest(package=OWNER))
        device.install(AndroidManifest(package=READER))
        self.device = device
        self.words_uri = Uri.content("user_dictionary", "words")
        self.owner = device.spawn(OWNER)
        self.delegate = device.spawn(READER, initiator=OWNER)
        self.public: Dict[int, tuple] = {}
        self.delta: Dict[int, Optional[tuple]] = {}
        for _ in range(self.PUBLIC_ROWS):
            row = self._new_row(rng)
            row_id = self.owner.insert(self.words_uri, ContentValues(row)).row_id
            self.public[row_id] = self._as_tuple(row_id, row)
        inserts, updates, deletes = self.DELTA
        for _ in range(inserts):
            row = self._new_row(rng)
            row_id = self.delegate.insert(self.words_uri, ContentValues(row)).row_id
            self.delta[row_id] = self._as_tuple(row_id, row)
        touched = rng.sample(sorted(self.public), updates + deletes)
        for row_id in touched[:updates]:
            frequency = rng.randrange(1, 255)
            self.delegate.update(
                self.words_uri.with_appended_id(row_id),
                ContentValues({"frequency": frequency}),
            )
            old = self.public[row_id]
            self.delta[row_id] = (row_id, old[1], frequency, old[3], old[4])
        for row_id in touched[updates:]:
            self.delegate.delete(self.words_uri.with_appended_id(row_id))
            self.delta[row_id] = WHITEOUT

    # -- the model ------------------------------------------------------

    def view(self) -> Dict[int, tuple]:
        """What the delegate should see: public rows not shadowed by the
        delta, plus the delta's live rows."""
        rows = {k: v for k, v in self.public.items() if k not in self.delta}
        rows.update((k, v) for k, v in self.delta.items() if v is not WHITEOUT)
        return rows

    def _compare(self, label: str, result, expected: List[tuple]) -> List[str]:
        got = sorted(result.rows)
        if got != sorted(expected):
            return [f"{label}: {len(got)} rows differ from the model's {len(expected)}"]
        return []

    def _check_view(self, label: str, api, expected: Dict[int, tuple]) -> List[str]:
        """Compare everything ``api`` sees in the dictionary with the model."""
        return self._compare(label, api.query(self.words_uri), list(expected.values()))


class CowRead(_CowWorkload):
    """85% ``_id = ?`` point queries, 15% ``word LIKE ?`` prefix scans;
    no writes."""

    name = "cow_read"
    MIX = {"point": 17, "like": 3}

    def setup(self) -> None:
        super().setup()
        self._ids = sorted(set(self.public) | set(self.delta))
        self._view = self.view()
        warm = random.Random(f"{self.name}:warm-up")
        for spec in (("point", warm.choice(self._ids)), ("like", "ab")):
            self.check(-1, spec, self.execute(spec))

    def plan(self, i: int) -> tuple:
        if self._next_kind() == "point":
            return ("point", self.rng.choice(self._ids))
        letters = self.PREFIX_LETTERS
        return ("like", self.rng.choice(letters) + self.rng.choice(letters))

    def execute(self, spec: tuple):
        kind, arg = spec
        if kind == "point":
            return self.delegate.query(self.words_uri.with_appended_id(arg))
        return self.delegate.query(self.words_uri, where="word LIKE ?", params=[arg + "%"])

    def check(self, i: int, spec: tuple, raw) -> Tuple[str, List[str]]:
        kind, arg = spec
        if kind == "point":
            expected = [self._view[arg]] if arg in self._view else []
        else:
            expected = [row for row in self._view.values() if row[1].startswith(arg)]
        problems = self._compare(f"{kind} {arg}", raw, expected)
        return f"{kind}:{arg}:{sorted(raw.rows)!r}", problems

    def finish(self) -> List[str]:
        return self._check_view("delegate view", self.delegate, self._view)


class CowWrite(_CowWorkload):
    """35% insert, 30% update by id, 35% delete of a live id; every
    ``STEP_EVERY`` ops the initiator alternately commits every delta row
    (then cleans up) or discards them all."""

    name = "cow_write"
    MIX = {"insert": 7, "update": 6, "delete": 7}
    #: Commit and discard steps alternate, each every 50 ops. At every 25
    #: the commits are 2% of ops, so p99 falls inside the commit cluster
    #: rather than on its edge.
    STEP_EVERY = 25

    def setup(self) -> None:
        super().setup()
        self.steps = 0
        warm = random.Random(f"{self.name}:warm-up")
        for kind in ("insert", "update", "delete"):
            spec = self._write(kind, warm)
            self.check(-1, spec, self.execute(spec))
        for kind in ("commit", "discard"):
            spec = self._step(kind)
            self.check(-1, spec, self.execute(spec))

    def _write(self, kind: str, rng: random.Random) -> tuple:
        if kind == "insert":
            return ("insert", self._new_row(rng))
        row_id = rng.choice(sorted(self.view()))
        if kind == "update":
            return ("update", row_id, rng.randrange(1, 255))
        return ("delete", row_id)

    def _step(self, kind: str) -> tuple:
        live = sorted(k for k, v in self.delta.items() if v is not WHITEOUT)
        if kind == "discard":
            return ("discard", len(self.delta))
        whiteouts = sorted(k for k, v in self.delta.items() if v is WHITEOUT and k in self.public)
        return ("commit", live, whiteouts, len(self.delta))

    def plan(self, i: int) -> tuple:
        if (i + 1) % self.STEP_EVERY == 0:
            self.steps += 1
            return self._step("commit" if self.steps % 2 == 0 else "discard")
        return self._write(self._next_kind(), self.rng)

    def execute(self, spec: tuple):
        kind = spec[0]
        uri = self.words_uri
        if kind == "insert":
            return self.delegate.insert(uri, ContentValues(spec[1])).row_id
        if kind == "update":
            return self.delegate.update(
                uri.with_appended_id(spec[1]), ContentValues({"frequency": spec[2]})
            )
        if kind == "delete":
            return self.delegate.delete(uri.with_appended_id(spec[1]))
        if kind == "discard":
            return self.device.clear_volatile(OWNER)
        _, live, whiteouts, _ = spec
        proxy = self.device.user_dictionary.proxy
        committed = proxy.commit_volatile_batch("words", OWNER, live)
        deleted = 0
        if whiteouts:
            marks = ", ".join("?" for _ in whiteouts)
            deleted = self.owner.delete(uri, where=f"_id IN ({marks})", params=whiteouts)
        return committed, deleted, self.device.clear_volatile(OWNER)

    def check(self, i: int, spec: tuple, raw) -> Tuple[str, List[str]]:
        kind = spec[0]
        problems: List[str] = []
        if kind == "insert":
            if raw in self.delta or raw in self.public:
                problems.append(f"insert returned a live id {raw}")
            self.delta[raw] = self._as_tuple(raw, spec[1])
        elif kind in ("update", "delete"):
            row_id = spec[1]
            if raw != 1:
                problems.append(f"{kind} {row_id}: rowcount {raw}, expected 1")
            if kind == "delete":
                self.delta[row_id] = WHITEOUT
            else:
                old = self.view()[row_id]
                self.delta[row_id] = (row_id, old[1], spec[2], old[3], old[4])
        elif kind == "discard":
            if raw != spec[1]:
                problems.append(f"discard removed {raw}, expected {spec[1]}")
            self.delta.clear()
            problems += self._check_view("delegate view after discard", self.delegate, self.public)
        else:
            _, live, whiteouts, delta_rows = spec
            expected = (len(live), len(whiteouts), delta_rows)
            if raw != expected:
                problems.append(f"commit returned {raw}, expected {expected}")
            top = max(self.public)
            for row_id in live:
                row = self.delta[row_id]
                if row_id >= VOLATILE_PK_BASE:
                    top += 1
                    row_id = top
                self.public[row_id] = (row_id,) + row[1:]
            for row_id in whiteouts:
                del self.public[row_id]
            self.delta.clear()
            problems += self._check_view("owner view after commit", self.owner, self.public)
        return f"{kind}:{spec[1:]!r}:{raw!r}", problems

    def finish(self) -> List[str]:
        return self._check_view("delegate view", self.delegate, self.view())


# ---------------------------------------------------------------------------
# sweep: the fuzz and interleave lanes
# ---------------------------------------------------------------------------


class Sweep(Workload):
    """3 in 4 ops run one seeded fuzz scenario in a fresh monitored world,
    1 in 4 one seeded interleaved run; every ``CONTROL_EVERY``-th op is a
    planted control that must be flagged."""

    name = "sweep"
    MIX = {"fuzz": 3, "interleave": 1}
    CONTROL_EVERY = 25
    #: Fixed planted controls, verified to be flagged: a fuzz scenario seed
    #: whose chain launders the secret once clipboard isolation is off,
    #: and a (scenario seed, schedule seed) pair whose interleaving drives
    #: a delegate through the binder guard's race window.
    FUZZ_CONTROL = (2, "clipboard-isolation")
    INTERLEAVE_CONTROL = ((3, 3000), "binder-guard-race")

    def setup(self) -> None:
        warm = random.Random(f"{self.name}:warm-up")
        for spec in (
            ("fuzz", warm.randrange(2**31), None),
            ("interleave", (warm.randrange(2**31), warm.randrange(2**31)), None),
        ):
            self.check(-1, spec, self.execute(spec))

    def plan(self, i: int) -> tuple:
        if (i + 1) % self.CONTROL_EVERY == 0:
            if (i + 1) // self.CONTROL_EVERY % 2:
                seed, planted = self.FUZZ_CONTROL
                return ("fuzz", seed, planted)
            seeds, planted = self.INTERLEAVE_CONTROL
            return ("interleave", seeds, planted)
        if self._next_kind() == "fuzz":
            return ("fuzz", self.rng.randrange(2**31), None)
        return ("interleave", (self.rng.randrange(2**31), self.rng.randrange(2**31)), None)

    def execute(self, spec: tuple):
        kind, seed, planted = spec
        if kind == "fuzz":
            return run_scenario(scenario_from_seed(seed), planted=planted)
        scenario, schedule = seed
        return run_interleaved(
            concurrent_scenario_from_seed(scenario), sched_seed=schedule, planted=planted
        )

    def check(self, i: int, spec: tuple, raw) -> Tuple[str, List[str]]:
        kind, seed, planted = spec
        flagged = bool(raw.violations)
        problems = []
        if planted and not flagged:
            problems.append(f"planted {planted} control {seed} not flagged")
        elif not planted and flagged:
            problems.append(f"unplanted {kind} {seed}: {raw.violations[0].render()}")
        return raw.fingerprint(), problems


WORKLOADS = {cls.name: cls for cls in (DelegateInvoke, CowRead, CowWrite, Sweep)}
