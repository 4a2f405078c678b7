"""The syscall layer: filesystem operations bound to a process.

Every simulated app performs file I/O through a :class:`Syscalls` object,
which resolves paths through the *process's own* mount namespace with the
process's credentials. This is the choke point that makes Maxoid's view
switching transparent: the same ``open("/storage/sdcard/doc.pdf")`` reaches
a different filesystem depending on which process issued it.

Open flags mirror POSIX names (``O_RDONLY`` etc.) so simulated app code
reads naturally.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, List

from repro.boundary import boundary
from repro.errors import CrossDeviceLink, NoSuchProcess
from repro.kernel import path as vpath
from repro.kernel.proc import Process
from repro.kernel.vfs import FileHandle, Stat
from repro.obs import DEFAULT_BYTE_BUCKETS

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400


def _read_done(self, span, data: bytes) -> None:
    span.set(bytes=len(data))
    self.obs.metrics.count("vfs.read")
    self.obs.metrics.observe("vfs.read.bytes", len(data), DEFAULT_BYTE_BUCKETS)


def _write_attrs(self, path: str, data: bytes, mode: int = 0o644) -> dict:
    return {"ctx": str(self.process.context), "path": path, "bytes": len(data)}


def _write_fault(self, path: str, data: bytes, mode: int = 0o644) -> dict:
    return {"ctx": str(self.process.context), "path": path}


def _writes(flags: int) -> bool:
    return bool(flags & 0o3 or flags & (O_CREAT | O_TRUNC | O_APPEND))


def _access(path: str, rw: str) -> dict:
    """The yield context of a whole-file access: the file the race
    detector tracks and the mode it is taken in."""
    return {"path": path, "resource": f"file:{path}", "rw": rw}


def _open_lock(self, path: str, flags: int = O_RDONLY, mode: int = 0o644):
    # A dead process fails before it takes a lock or yields.
    self._check_alive()
    return self._io_locks(path, write=_writes(flags))


class Syscalls:
    """File-related syscalls for one process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        # The owning device's observability context, resolved through the
        # process this syscall table acts for (one load + branch when off).
        self.obs = process.obs

    def _check_alive(self) -> None:
        if not self.process.alive:
            raise NoSuchProcess(f"pid {self.process.pid} has exited")

    # ------------------------------------------------------------------

    @boundary(
        "vfs.open",
        attrs=lambda self, path, flags=O_RDONLY, mode=0o644: {
            "ctx": str(self.process.context), "path": path, "flags": flags
        },
        count="vfs.open",
        sched=lambda self, path, flags=O_RDONLY, mode=0o644: _access(
            path, "w" if _writes(flags) else "r"
        ),
        lock=_open_lock,
    )
    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> FileHandle:
        """Open ``path`` with POSIX-style ``flags``; returns a file handle."""
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        accmode = flags & 0o3
        read = accmode in (O_RDONLY, O_RDWR)
        write = accmode in (O_WRONLY, O_RDWR)
        if self.obs.prov:
            # Copy-up may fire inside fs.open(); the actor stack tells the
            # ledger which process the copied data is flowing on behalf of.
            self.obs.provenance.push_actor(str(self.process.context), self.process.pid)
            try:
                return self._fs_open(fs, inner, read, write, flags, mode)
            finally:
                self.obs.provenance.pop_actor()
        return self._fs_open(fs, inner, read, write, flags, mode)

    @contextmanager
    def _io_locks(self, path: str, write: bool) -> Iterator[None]:
        """Scheduler-mode lock discipline for whole-file I/O: the mount
        namespace's read lock around resolution, then the resolved
        filesystem's rwlock in the I/O mode — the canonical ns -> fs
        acquisition order the lock-order checker validates."""
        namespace = self.process.namespace
        ns_lock = getattr(namespace, "rwlock", None)
        with ns_lock.read() if ns_lock is not None else nullcontext():
            fs, _inner = namespace.resolve(path)
            fs_lock = getattr(fs, "rwlock", None)
            if fs_lock is None:
                yield
            else:
                with fs_lock.write() if write else fs_lock.read():
                    yield

    def _fs_open(self, fs, inner: str, read: bool, write: bool, flags: int, mode: int) -> FileHandle:
        return fs.open(
            inner,
            self.process.cred,
            read=read,
            write=write,
            create=bool(flags & O_CREAT),
            truncate=bool(flags & O_TRUNC),
            append=bool(flags & O_APPEND),
            exclusive=bool(flags & O_EXCL),
            mode=mode,
        )

    def stat(self, path: str) -> Stat:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.stat(inner, self.process.cred)

    def exists(self, path: str) -> bool:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.exists(inner, self.process.cred)

    def mkdir(self, path: str, mode: int = 0o755, parents: bool = False) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.mkdir(inner, self.process.cred, mode=mode, parents=parents)

    def listdir(self, path: str) -> List[str]:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.readdir(inner, self.process.cred)

    def unlink(self, path: str) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.unlink(inner, self.process.cred)

    def rmdir(self, path: str) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.rmdir(inner, self.process.cred)

    def rename(self, old: str, new: str) -> None:
        """Rename; raises EXDEV when old and new live on different mounts."""
        self._check_alive()
        old_point, old_fs = self.process.namespace.mount_for(old)
        new_point, new_fs = self.process.namespace.mount_for(new)
        if old_fs is not new_fs:
            raise CrossDeviceLink(f"{old} and {new} are on different mounts")
        _, old_inner = self.process.namespace.resolve(old)
        _, new_inner = self.process.namespace.resolve(new)
        old_fs.rename(old_inner, new_inner, self.process.cred)

    # -- convenience wrappers -------------------------------------------

    @boundary(
        "vfs.read",
        attrs=lambda self, path: {"ctx": str(self.process.context), "path": path},
        sched=lambda self, path: _access(path, "r"),
        lock=lambda self, path: self._io_locks(path, write=False),
        done=_read_done,
    )
    def read_file(self, path: str) -> bytes:
        with self.open(path, O_RDONLY) as handle:
            data = handle.read()
            if self.obs.prov:
                self.obs.provenance.read(
                    self.process.pid, str(self.process.context), path, ino=handle.ino
                )
            return data

    @boundary(
        "vfs.write",
        attrs=_write_attrs,
        count="vfs.write",
        fault=_write_fault,
        sched=lambda self, path, data, mode=0o644: _access(path, "w"),
        lock=lambda self, path, data, mode=0o644: self._io_locks(path, write=True),
    )
    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> None:
        return self._write_locked(path, data, O_WRONLY | O_CREAT | O_TRUNC, mode)

    @boundary(
        "vfs.write",
        attrs=lambda self, path, data: {**_write_attrs(self, path, data), "append": True},
        count="vfs.write",
        fault=_write_fault,
        sched=lambda self, path, data: _access(path, "w"),
        lock=lambda self, path, data: self._io_locks(path, write=True),
    )
    def append_file(self, path: str, data: bytes) -> None:
        return self._write_locked(path, data, O_WRONLY | O_APPEND)

    def _write_locked(self, path: str, data: bytes, flags: int, mode: int = 0o644) -> None:
        """The body ``write_file`` and ``append_file`` share; it runs
        under their locks while the scheduler is enabled."""
        if self.obs.enabled:
            self.obs.metrics.observe("vfs.write.bytes", len(data), DEFAULT_BYTE_BUCKETS)
        with self.open(path, flags, mode=mode) as handle:
            handle.write(data)
            if self.obs.prov:
                self.obs.provenance.write(
                    self.process.pid, str(self.process.context), path, ino=handle.ino
                )

    def copy_file(self, src: str, dst: str, mode: int = 0o644) -> None:
        self.write_file(dst, self.read_file(src), mode=mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """mkdir -p: create ``path`` and any missing ancestors."""
        self.mkdir(path, mode=mode, parents=True)

    def walk_files(self, top: str) -> List[str]:
        """All file paths under ``top`` (depth-first, sorted)."""
        found: List[str] = []
        stack = [vpath.normalize(top)]
        while stack:
            current = stack.pop()
            for name in sorted(self.listdir(current), reverse=True):
                child = vpath.join(current, name)
                if self.stat(child).is_dir:
                    stack.append(child)
                else:
                    found.append(child)
        return sorted(found)
