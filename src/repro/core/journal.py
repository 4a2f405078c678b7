"""WAL-style intent journal for volatile file commits (paper section 3.3).

An initiator's selective commit — copy ``Vol(A)``'s tmp file to its real
name — is a multi-step mutation (read, mkdir, write). A crash in the
middle must not leave a torn destination file, so the commit first writes
an *intent* here: a single journal entry carrying everything needed to
finish the commit (destination, payload, owner). ``Device.recover()``
replays complete entries (idempotently — same destination, same bytes) and
rolls back torn ones, then truncates the journal.

The journal lives on the system filesystem under a root-only directory,
out of reach of app processes, mirroring where Android keeps system
bookkeeping state.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.kernel import path as vpath
from repro.faults.plane import register_point
from repro.kernel.vfs import Filesystem, ROOT_CRED
from repro.obs import OBS as _OBS

JOURNAL_DIR = "/data/system/maxoid/journal"
INTENT_SUFFIX = ".intent"

TORN_ENTRY = register_point("vol.commit.journal", "CommitJournal.begin")


@dataclass
class CommitIntent:
    """One decoded journal entry: a file commit that must complete."""

    entry_path: str
    package: str
    source: str
    destination: str
    data: bytes
    uid: int
    gid: int


class CommitJournal:
    """The volatile-file commit WAL, backed by the system filesystem."""

    def __init__(
        self, fs: Filesystem, directory: str = JOURNAL_DIR, *, obs: Optional[Any] = None
    ) -> None:
        self._fs = fs
        self._dir = directory
        # The owning device's ObsContext (bare journals fall back to OBS):
        # fault hits stamp its device_id so a multi-device postmortem can
        # tell whose journal tore.
        self._obs = obs if obs is not None else _OBS
        if not fs.exists(directory, ROOT_CRED):
            # Parents keep the default (traversable) mode; only the journal
            # directory itself is root-only.
            parent = vpath.parent(directory)
            if not fs.exists(parent, ROOT_CRED):
                fs.mkdir(parent, ROOT_CRED, parents=True)
            fs.mkdir(directory, ROOT_CRED, mode=0o700)
        self._seq = self._highest_existing_seq()

    def _highest_existing_seq(self) -> int:
        highest = 0
        for name in self._fs.readdir(self._dir, ROOT_CRED):
            stem = name[: -len(INTENT_SUFFIX)] if name.endswith(INTENT_SUFFIX) else name
            if stem.isdigit():
                highest = max(highest, int(stem))
        return highest

    # ------------------------------------------------------------------

    def begin(
        self,
        *,
        package: str,
        source: str,
        destination: str,
        data: bytes,
        uid: int,
        gid: int,
    ) -> str:
        """Write one commit intent; returns the journal entry's path."""
        entry = {
            "package": package,
            "source": source,
            "destination": destination,
            "uid": uid,
            "gid": gid,
            "data": base64.b64encode(data).decode("ascii"),
        }
        self._seq += 1
        entry_path = vpath.join(self._dir, f"{self._seq:08d}{INTENT_SUFFIX}")
        text = json.dumps(entry).encode()
        # Inline, not @boundary: a fault here must first leave a torn entry.
        if self._obs.faults.enabled:
            try:
                self._obs.faults.hit(TORN_ENTRY, path=entry_path)
            except BaseException:
                # The crash interrupted the entry write itself: leave a
                # torn half-entry behind, which recovery must roll back.
                self._fs.write_file(
                    entry_path, text[: len(text) // 2], ROOT_CRED, mode=0o600
                )
                raise
        self._fs.write_file(entry_path, text, ROOT_CRED, mode=0o600)
        return entry_path

    def truncate(self, entry_path: str) -> None:
        """Drop a completed intent (the commit's final step)."""
        if self._fs.exists(entry_path, ROOT_CRED):
            self._fs.unlink(entry_path, ROOT_CRED)

    # ------------------------------------------------------------------

    def pending(self) -> List[Tuple[str, Optional[CommitIntent]]]:
        """All journal entries, oldest first.

        Returns ``(entry_path, intent)`` pairs; ``intent`` is ``None`` for
        a torn (unparseable) entry, which recovery rolls back.
        """
        found: List[Tuple[str, Optional[CommitIntent]]] = []
        for name in sorted(self._fs.readdir(self._dir, ROOT_CRED)):
            if not name.endswith(INTENT_SUFFIX):
                continue
            entry_path = vpath.join(self._dir, name)
            raw = self._fs.read_file(entry_path, ROOT_CRED)
            try:
                entry = json.loads(raw.decode("utf-8"))
                intent: Optional[CommitIntent] = CommitIntent(
                    entry_path=entry_path,
                    package=entry["package"],
                    source=entry["source"],
                    destination=entry["destination"],
                    data=base64.b64decode(entry["data"]),
                    uid=int(entry["uid"]),
                    gid=int(entry["gid"]),
                )
            except (ValueError, KeyError, UnicodeDecodeError):
                intent = None
            found.append((entry_path, intent))
        return found

    def __len__(self) -> int:
        return len(self.pending())
