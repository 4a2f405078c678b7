"""Persistent private state for delegates (paper section 3.2, Figure 2).

A Maxoid-aware delegate can keep state that survives across invocations on
behalf of the *same* initiator even when its normal private state gets
re-forked: ``pPriv(B^A)``. It appears at ``/data/data/ppriv/<pkg>`` in the
delegate's namespace; different initiators are backed by different
branches, so ``pPriv(B^A)`` and ``pPriv(B^C)`` are isolated without the
app doing anything.

This module is the delegate-facing convenience API: the mounts themselves
are set up by the branch manager.
"""

from __future__ import annotations

from repro.android.storage import PrivateDatabase, SharedPreferences, StorageLayout
from repro.kernel import path as vpath
from repro.kernel.proc import Process
from repro.kernel.syscall import Syscalls
from repro.naming import PPRIV_ROOT


class PersistentPrivateState:
    """Accessor for a delegate's ``pPriv`` directory.

    Usable only while running as a delegate — when an app runs normally,
    the ppriv mount is absent and operations raise ``FileNotFound``
    (matching the paper: an app stores to nPriv when run normally, to
    pPriv when run as a delegate, section 7.1 / EBookDroid).
    """

    def __init__(self, process: Process) -> None:
        self._process = process
        self._sys = Syscalls(process)
        self._package = process.context.app or ""

    @property
    def available(self) -> bool:
        """True when a pPriv view is mounted (i.e. running as a delegate)."""
        point, _ = self._process.namespace.mount_for(self.root)
        return point == self.root

    @property
    def root(self) -> str:
        return vpath.join(PPRIV_ROOT, self._package)

    def database(self, name: str) -> PrivateDatabase:
        layout = StorageLayout(self._package)
        return PrivateDatabase(self._sys, layout.ppriv_database_path(name))

    def preferences(self) -> SharedPreferences:
        return SharedPreferences(self._sys, vpath.join(self.root, "prefs.json"))
