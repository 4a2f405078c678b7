"""The Maxoid confinement policy, stated once, and a prober that checks a
live device against it (paper Figure 1, sections 3-6).

A *cell* is one subject attempting one op on one resource. :func:`expected`
is the policy: for every cell it gives the outcome on Maxoid and on stock
Android, with the paper section behind it. Everything else that needs the
policy reads it from here: :func:`triage` (the PolyScope-style split of
the cell space into what the reference monitor denies outright and what
is worth fuzzing), the Figure 1 render (which selects 11 cells) and
:func:`probe`, which builds each cell on a fresh device and reports what
actually happened.

Subjects: ``A`` the initiator, ``B`` an app running for itself, ``B^A`` B
running as A's delegate, ``X`` an unrelated app and ``X^A`` another
delegate of A. Stock Android has no delegation, so there ``B^A`` runs as
plain B and ``X^A`` as plain X.

Outcomes:

- ``allow`` — a read returns the resource's bytes; a write or delete
  shows in the view of the resource's owner (the subject that seeded it);
- ``redirect`` — the write or delete succeeds, the owner's view is
  unchanged, and the change lands in ``Vol(A)`` (files, provider delta
  rows): what A later commits or discards (section 3.3);
- ``deny`` — anything else: the op fails, sees nothing of the resource,
  or its effect stays in the subject's own state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.android.app_api import AppApi
from repro.android.content.media import FILES_URI
from repro.android.content.provider import ContentProvider, ContentValues
from repro.android.packages import AndroidManifest
from repro.android.uri import Uri
from repro.core.device import Device
from repro.errors import ReproError
from repro.kernel import path as vpath
from repro.kernel.vfs import ROOT_CRED
from repro.minisql.engine import ResultSet
from repro.naming import DATA_ROOT, EXTDIR, PPRIV_ROOT

ALLOW, DENY, REDIRECT = "allow", "deny", "redirect"

SUBJECTS = ("A", "B", "B^A", "X", "X^A")
_FILE_OPS = ("read", "write", "delete")
_ROW_OPS = ("query", "open", "write", "delete")
#: Resource -> the ops that apply to it. The clipboard domain is the one
#: A's delegates copy into; the app-defined provider is X's, exported.
RESOURCES: Dict[str, Tuple[str, ...]] = {
    "Priv(A)": _FILE_OPS,
    "Priv(B)": _FILE_OPS,
    "Priv(B^A)": _FILE_OPS,
    "pPriv(B)": _FILE_OPS,
    "Vol(A) file": _FILE_OPS,
    "Vol(A) row": _ROW_OPS,
    "public file": _FILE_OPS,
    "public row": _ROW_OPS,
    "clipboard": ("read", "write"),
    "app provider": ("query", "open"),
    "network": ("connect",),
}


class Cell(NamedTuple):
    subject: str
    resource: str
    op: str


CELLS = tuple(
    Cell(subject, resource, op)
    for subject in SUBJECTS
    for resource, ops in RESOURCES.items()
    for op in ops
)


class Rule(NamedTuple):
    outcome: str
    why: str


def expected(cell: Cell, maxoid: bool = True) -> Rule:
    """The policy: what ``cell`` does on Maxoid (or on stock Android)."""
    subject, resource, op = cell
    package, _, initiator = subject.partition("^")
    if not maxoid:
        owner = {"Priv(A)": "A", "Priv(B)": "B", "Priv(B^A)": "B"}.get(resource)
        if resource == "pPriv(B)":
            return Rule(DENY, "§3.2: pPriv is Maxoid's; stock has none")
        if owner is not None and package != owner:
            return Rule(DENY, "§2.1: the UID sandbox guards private state")
        return Rule(ALLOW, "§2.2: stock Android has one shared view")
    delegate = bool(initiator)
    reads = op not in ("write", "delete")
    if resource == "network":
        if delegate:
            return Rule(DENY, "§6.2: a delegate's connect() gets ENETUNREACH")
        return Rule(ALLOW, "§6.2: only delegates are cut off")
    if resource == "app provider":
        if delegate:
            return Rule(DENY, "§3.4: a delegate binds only system services, A and A's delegates")
        return Rule(ALLOW, "§2.2: an exported provider needs no grant")
    if resource == "clipboard":
        if delegate:
            return Rule(ALLOW, "§6.2: A's delegates share one clipboard domain")
        return Rule(DENY, "§6.2: apps running for themselves use the main clipboard")
    if resource in ("public file", "public row"):
        if delegate and not reads:
            return Rule(REDIRECT, "§3.3, §5.2: a delegate's writes to public state go to Vol(A)")
        return Rule(ALLOW, "§3.1 U1: public state is everyone's")
    if resource in ("Vol(A) file", "Vol(A) row"):
        if delegate or subject == "A":
            return Rule(ALLOW, "§3.3, §5.1: Vol(A) is A's (under tmp/) and its delegates'")
        return Rule(DENY, "§3.1 S1: only A and its delegates see Vol(A)")
    if resource == f"Priv({subject})":
        return Rule(ALLOW, "§2.1: an app instance's own private state")
    if resource == "Priv(A)" and delegate:
        if reads:
            return Rule(ALLOW, "§4.2: A's internal dir is exposed to its delegates")
        return Rule(REDIRECT, "§4.2: a delegate's writes to Priv(A) go to Vol(A)")
    if resource == "Priv(B)" and subject == "B^A":
        if reads:
            return Rule(ALLOW, "§3.2 U1: B^A starts from a fork of Priv(B)")
        return Rule(DENY, "§3.2 S4: B^A's writes stay in Priv(B^A)")
    if resource == "pPriv(B)" and subject == "B^A":
        return Rule(ALLOW, "§3.2: B^A's persistent private state")
    return Rule(DENY, "§3.1 S1, S3: private state is its owner's (and A's delegates' for Priv(A))")


def triage(maxoid: bool = True) -> Tuple[List[Cell], List[Cell]]:
    """Split the cell space into (reachable, pruned): the cells the policy
    denies outright need no fuzz example."""
    pruned = [cell for cell in CELLS if expected(cell, maxoid).outcome == DENY]
    return [cell for cell in CELLS if cell not in pruned], pruned


# -- the prober: what each cell does on a live device --------------------------

PACKAGES = {"A": "com.policy.initiator", "B": "com.policy.helper", "X": "com.policy.other"}
HOST = "example.com"
MARK = b"MARK-policy-cell"
NEW = b"MARK-policy-new"


@dataclass
class _Target:
    """A seeded resource: its owner, each op as ``fn(api, subject)`` (a
    read returns what the subject saw), and the op that shows the owner's
    view."""

    owner: str
    ops: Dict[str, Callable[[AppApi, str], Optional[bytes]]]
    view: str = "read"


class _XFiles(ContentProvider):
    """X's exported app-defined provider (the leaky-provider pattern)."""

    authority = "com.policy.other.files"
    owner = PACKAGES["X"]
    exported = True

    def open_file(self, uri, context) -> bytes:
        return MARK

    def query(self, uri, projection, where, params, order_by, context) -> ResultSet:
        return ResultSet(columns=["title"], rows=[(MARK.decode(),)])


def _attempt(fn: Callable[[], Optional[bytes]]) -> Optional[bytes]:
    try:
        return fn()
    except ReproError:
        return None


class _ProbeDevice:
    """One fresh device with A, B and X installed, the seeded resource
    and one process per subject."""

    def __init__(self, maxoid: bool, mutate: Optional[Callable] = None) -> None:
        self.maxoid = maxoid
        self.device = Device(maxoid_enabled=maxoid)
        for package in PACKAGES.values():
            self.device.install(AndroidManifest(package=package))
        self.device.register_app_provider(_XFiles())
        self.device.network.publish(HOST, "policy", MARK)
        if mutate is not None:
            mutate(self.device)
        self._apis: Dict[str, AppApi] = {}

    def api(self, subject: str) -> AppApi:
        if subject not in self._apis:
            package, _, initiator = subject.partition("^")
            self._apis[subject] = self.device.spawn(
                PACKAGES[package], PACKAGES[initiator] if initiator else None
            )
        return self._apis[subject]

    def vol_state(self) -> list:
        """Everything in Vol(A): its files (the probe device's only
        volatile tree) and its provider delta rows, whiteouts included."""
        fs = self.device.branches.vol_fs
        state: list = [
            (top, name, fs.read_file(vpath.join(top, name), ROOT_CRED))
            for top, _, files in fs.walk("/", ROOT_CRED)
            for name in files
        ]
        for provider in self.device.cow_providers:
            proxy = provider.proxy
            state += [
                proxy.volatile_rows(source, PACKAGES["A"], include_whiteouts=True).rows
                for source in provider.routes.values()
                if proxy.primary_key(source) is not None
            ]
        return state

    def seed(self, resource: str) -> _Target:
        """Create ``resource`` as its owner and say how each op reaches it."""
        a, b = PACKAGES["A"], PACKAGES["B"]
        vol = resource.startswith("Vol(A)") and self.maxoid
        if resource in ("Vol(A) row", "public row"):
            owner = "B^A" if resource == "Vol(A) row" else "B"
            api = self.api(owner)
            path = api.write_external("policy/row.bin", MARK)
            uri = api.insert(FILES_URI, ContentValues({"_data": path, "title": MARK.decode()}))

            def at(subject: str) -> Uri:
                return uri.to_volatile() if vol and subject == "A" else uri

            return _Target(owner, {
                "query": lambda api, s: str(api.query(at(s), projection=["title"]).scalar()).encode(),
                "open": lambda api, s: api.open_input(at(s)),
                "write": lambda api, s: api.update(at(s), ContentValues({"title": NEW.decode()})),
                "delete": lambda api, s: api.delete(at(s)),
            }, view="query")
        if resource == "clipboard":
            self.api("B^A").clipboard_set(MARK.decode())
            return _Target("B^A", {
                "read": lambda api, s: (api.clipboard_get() or "").encode(),
                "write": lambda api, s: api.clipboard_set(NEW.decode()),
            })
        if resource == "app provider":
            uri = Uri.content(_XFiles.authority, "doc", "1")
            return _Target("X", {
                "query": lambda api, s: str(api.query(uri).scalar()).encode(),
                "open": lambda api, s: api.open_input(uri),
            })
        if resource == "network":
            return _Target("A", {"connect": lambda api, s: api.fetch(HOST, "policy")})
        owner, path = {
            "Priv(A)": ("A", vpath.join(DATA_ROOT, a, "policy.txt")),
            "Priv(B)": ("B", vpath.join(DATA_ROOT, b, "policy.txt")),
            "Priv(B^A)": ("B^A", vpath.join(DATA_ROOT, b, "policy.txt")),
            "pPriv(B)": ("B^A", vpath.join(PPRIV_ROOT, b, "policy.txt")),
            "Vol(A) file": ("B^A", vpath.join(EXTDIR, "policy.txt")),
            "public file": ("B", vpath.join(EXTDIR, "policy.txt")),
        }[resource]
        # Stock Android has no pPriv, so its seed fails there.
        _attempt(lambda: self.api(owner).sys.write_file(
            path, MARK, mode=0o666 if vpath.is_within(path, EXTDIR) else 0o600
        ))
        tmp = vpath.join(EXTDIR, "tmp", vpath.relative_to(path, EXTDIR)) if vol else path

        def at(subject: str) -> str:
            return tmp if subject == "A" else path

        return _Target(owner, {
            "read": lambda api, s: api.sys.read_file(at(s)),
            "write": lambda api, s: api.sys.write_file(at(s), NEW),
            "delete": lambda api, s: api.sys.unlink(at(s)),
        })

    def observe(self, cell: Cell) -> str:
        """Build ``cell`` on this device and classify what happened."""
        target = self.seed(cell.resource)
        act = target.ops[cell.op]
        api = self.api(cell.subject)
        if cell.op not in ("write", "delete"):
            return ALLOW if _attempt(lambda: act(api, cell.subject)) == MARK else DENY
        before = self.vol_state()
        try:
            act(api, cell.subject)
        except ReproError:
            return DENY
        seen = _attempt(lambda: target.ops[target.view](self.api(target.owner), target.owner))
        if (seen == NEW) if cell.op == "write" else (seen != MARK):
            return ALLOW
        return REDIRECT if self.vol_state() != before else DENY


def probe(
    cells=CELLS, maxoid: bool = True, mutate: Optional[Callable] = None
) -> Dict[Cell, str]:
    """What each cell does on a fresh device of its own (Maxoid or stock).
    ``mutate(device)`` runs after boot, before the cell is seeded."""
    return {cell: _ProbeDevice(maxoid, mutate).observe(cell) for cell in cells}
