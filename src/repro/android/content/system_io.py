"""File access for system providers: the "File-class wrapper".

Downloads and Media store *transparent* path names (what clients see, e.g.
``/storage/sdcard/Download/x.bin``) in their databases, but a record that
belongs to an initiator's volatile state has its actual bytes in that
initiator's volatile branch. The paper: "Maxoid makes all volatile tmp
directories visible to Downloads, but the path names of the files are
different from those stored in the database ... We wrote a wrapper of
Java's File class to automate locating files."

:class:`SystemStorageIO` is that wrapper: given a record's state (``None``
for public, or the owning initiator's package) and its transparent path,
it computes the real path in the system process's namespace — where the
volatile file forest is mounted at ``/maxoid/vol``.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import path as vpath
from repro.kernel.syscall import Syscalls
from repro.android.storage import EXTDIR
from repro.core.cow import initiator_key

#: Where the system namespace mounts the volatile file forest.
VOLATILE_MOUNT = "/maxoid/vol"


class SystemStorageIO:
    """Path mapping + file I/O for system services."""

    def __init__(self, sys: Syscalls, extdir: str = EXTDIR) -> None:
        self._sys = sys
        self._extdir = extdir

    def data_path(self, state: Optional[str], transparent_path: str) -> str:
        """The real path for a record's file.

        ``state`` is ``None`` for public records or the owning initiator's
        package for volatile records. Volatile paths under EXTDIR map into
        the initiator's ``ext`` volatile branch.
        """
        if state is None:
            return vpath.normalize(transparent_path)
        if not vpath.is_within(transparent_path, self._extdir):
            raise ValueError(
                f"volatile record path {transparent_path} is outside {self._extdir}"
            )
        relative = vpath.relative_to(transparent_path, self._extdir)
        return vpath.join(VOLATILE_MOUNT, initiator_key(state), "ext", relative)

    # -- I/O through the system namespace ---------------------------------

    def write(self, state: Optional[str], transparent_path: str, data: bytes) -> str:
        real = self.data_path(state, transparent_path)
        self._sys.makedirs(vpath.parent(real))
        self._sys.write_file(real, data)
        return real

    def read(self, state: Optional[str], transparent_path: str) -> bytes:
        """Read a record's file.

        For a volatile record the bytes usually live in the volatile
        branch, but a volatile record may also *reference* a still-public
        file (per-name COW: unmodified files are shared) — fall back to
        the public path, mirroring the union view the record's owner has.
        """
        if state is not None:
            volatile = self.data_path(state, transparent_path)
            if self._sys.exists(volatile):
                return self._sys.read_file(volatile)
        return self._sys.read_file(self.data_path(None, transparent_path))

    def exists(self, state: Optional[str], transparent_path: str) -> bool:
        return self._sys.exists(self.data_path(state, transparent_path))

    def delete(self, state: Optional[str], transparent_path: str) -> None:
        real = self.data_path(state, transparent_path)
        if self._sys.exists(real):
            self._sys.unlink(real)
