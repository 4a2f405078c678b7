"""Initiator-side volatile state management (paper section 3.3).

``Vol(A)`` is the set of everything A's delegates wrote to their view of
public state. For files, the initiator sees it under ``EXTDIR/tmp/...``
(and ``/data/data/<A>/tmp`` for writes to its exposed internal dir); for
content providers, through volatile URIs. This module gives initiators the
app-level operations the paper describes:

- enumerate volatile files,
- selectively **commit** one (copy it from the tmp name to the real name),
- **discard** the whole volatile state afterwards ("A can discard the
  entire Vol(A) conveniently because of the fixed naming pattern").

Discarding requires root (the branches live outside the app's reach), so
it goes through the Maxoid system service on Binder.
"""

from __future__ import annotations

from typing import List, Optional

from repro.android.storage import DATA_ROOT, EXTDIR
from repro.boundary import boundary
from repro.errors import FileNotFound, IpcDenied
from repro.kernel import path as vpath
from repro.kernel.binder import BinderDriver, Transaction
from repro.kernel.proc import Process
from repro.kernel.syscall import Syscalls
from repro.core.branches import BranchManager
from repro.core.journal import CommitJournal

EXT_TMP = vpath.join(EXTDIR, "tmp")

MAXOID_SERVICE = "maxoid"


def _commit_done(self, span, destination: str) -> None:
    span.set(destination=destination)
    self.obs.metrics.count("vol.commits")


class VolatileFiles:
    """An initiator's window onto its volatile file state."""

    def __init__(
        self, process: Process, journal: Optional[CommitJournal] = None
    ) -> None:
        if process.context.is_delegate:
            raise IpcDenied("delegates have no volatile state of their own")
        self._process = process
        self._sys = Syscalls(process)
        self._package = process.context.app
        # Resolve observability through the process: volatile-state spans
        # land in the owning device's context.
        self.obs = process.obs
        # The device-wide commit WAL; without one (bare construction in
        # unit tests) commits fall back to the direct, non-journaled copy.
        self._journal = journal

    @property
    def ext_tmp(self) -> str:
        return EXT_TMP

    @property
    def int_tmp(self) -> str:
        return vpath.join(DATA_ROOT, self._package or "", "tmp")

    @boundary(
        "vol.list",
        attrs=lambda self: {"initiator": self._package},
        done=lambda self, span, found: span.set(count=len(found)),
    )
    def list_files(self) -> List[str]:
        """All volatile files, as app-visible tmp paths."""
        found: List[str] = []
        for root in (self.ext_tmp, self.int_tmp):
            try:
                found.extend(self._sys.walk_files(root))
            except FileNotFound:
                continue
        return sorted(found)

    def read(self, tmp_path: str) -> bytes:
        return self._sys.read_file(tmp_path)

    @boundary(
        "vol.commit",
        attrs=lambda self, tmp_path: {"initiator": self._package, "path": tmp_path},
        done=_commit_done,
    )
    def commit(self, tmp_path: str) -> str:
        """Copy a volatile file to its non-volatile name and return it.

        ``EXTDIR/tmp/<p>`` commits to ``EXTDIR/<p>``; a path under the
        initiator's internal tmp commits into its internal dir. Each
        ``vol.commit*`` consult is declared on the step method it precedes.
        """
        if vpath.is_within(tmp_path, self.ext_tmp):
            rel = vpath.relative_to(tmp_path, self.ext_tmp)
            destination = vpath.join(EXTDIR, rel)
        elif vpath.is_within(tmp_path, self.int_tmp):
            rel = vpath.relative_to(tmp_path, self.int_tmp)
            destination = vpath.join(DATA_ROOT, self._package or "", rel)
        else:
            raise FileNotFound(f"{tmp_path} is not a volatile path")
        return self._journal_commit(tmp_path, destination)

    # No access annotation on the commit's own yields: they hold no lock,
    # and the read_file/write_file in the steps yield with the file's
    # access under the ns and fs locks that actually guard it.
    @boundary(
        "vol.commit",
        span=False,
        fault=lambda self, tmp_path, destination: {
            "initiator": self._package, "path": tmp_path
        },
        sched=lambda self, tmp_path, destination: {"path": tmp_path},
    )
    def _journal_commit(self, tmp_path: str, destination: str) -> str:
        """Crash-atomic commit: journal the intent (payload included), then
        apply, then truncate. After any crash, recovery either replays the
        complete intent or rolls back a torn one — the destination is never
        left half-written without a journal entry covering it."""
        data = self._sys.read_file(tmp_path)
        entry = None
        if self._journal is not None:
            entry = self._journal.begin(
                package=self._package or "",
                source=tmp_path,
                destination=destination,
                data=data,
                uid=self._process.cred.uid,
                gid=self._process.cred.gid,
            )
        self._apply(tmp_path, destination, data)
        self._truncate(destination, entry)
        return destination

    @boundary(
        "vol.commit.apply",
        span=False,
        fault=lambda self, tmp_path, destination, data: {
            "initiator": self._package, "path": destination
        },
        sched=lambda self, tmp_path, destination, data: {"path": destination},
    )
    def _apply(self, tmp_path: str, destination: str, data: bytes) -> None:
        """Write the committed bytes to their non-volatile name."""
        self._sys.makedirs(vpath.parent(destination))
        self._sys.write_file(destination, data)
        if self.obs.prov:
            # Link destination to the volatile source directly, so
            # explain() shows the commit edge even when the reading and
            # writing process taints have mixed other labels in.
            self.obs.provenance.commit_file(tmp_path, destination, self._package or "")

    @boundary(
        "vol.commit.truncate",
        span=False,
        fault=lambda self, destination, entry: {
            "initiator": self._package, "path": destination
        },
        sched=lambda self, destination, entry: {"path": destination},
    )
    def _truncate(self, destination: str, entry: Optional[str]) -> None:
        """Drop the applied commit's journal entry."""
        if entry is not None:
            self._journal.truncate(entry)


class MaxoidSystemService:
    """The trusted service behind Vol/Priv clearing.

    Registered on Binder as ``maxoid``. An app may clear only *its own*
    volatile state and delegate-private state; the Launcher (running as
    root on the user's behalf) may clear anyone's (section 6.3).

    The clearing callables come from the Device so that one call covers
    every store Vol(A) spans: files, provider delta tables, clipboard.
    """

    def __init__(
        self,
        binder: BinderDriver,
        branches: BranchManager,
        clear_volatile=None,
        clear_delegate_priv=None,
    ) -> None:
        self._branches = branches
        self._clear_volatile = clear_volatile or branches.clear_volatile
        self._clear_delegate_priv = clear_delegate_priv or branches.clear_delegate_priv
        binder.register(MAXOID_SERVICE, self._handle, is_system=True)

    def _handle(self, transaction: Transaction):
        target = None
        if isinstance(transaction.payload, dict):
            target = transaction.payload.get("package")
        sender = transaction.sender_context
        if sender.app is not None:  # an app, not the Launcher/system
            if sender.is_delegate:
                raise IpcDenied("delegates may not manage volatile state")
            if target is not None and target != sender.app:
                raise IpcDenied(f"{sender} may only clear its own state")
            target = sender.app
        if target is None:
            raise IpcDenied("no target package")
        if transaction.code == "clear_volatile":
            return self._clear_volatile(target)
        if transaction.code == "clear_delegate_priv":
            return self._clear_delegate_priv(target)
        if transaction.code == "list_volatile":
            return self._branches.list_volatile_files(target)
        raise ValueError(f"unknown maxoid service call {transaction.code}")
