"""An in-memory inode-based virtual filesystem.

This is the storage substrate for the simulated Android device. It models the
pieces of a POSIX filesystem that the Maxoid design depends on:

- hierarchical directories with per-inode owner UID and mode bits,
- regular files holding byte contents,
- the usual operations (open/read/write/append/truncate, mkdir, readdir,
  unlink, rmdir, rename, stat),
- a logical modification clock so callers can observe "which version of this
  file am I seeing" without real timestamps (keeps experiments deterministic).

Both :class:`Filesystem` and :class:`repro.kernel.aufs.AufsMount` implement
the same :class:`FilesystemAPI` interface, so a mount namespace can resolve a
path to either interchangeably.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    ReadOnlyFilesystem,
)
from repro.kernel import path as vpath
from repro.sched.locks import RWLock

# A single logical clock shared by every filesystem in the process keeps
# version numbers comparable across filesystems (e.g. a file copied-up by
# Aufs is "newer" than its origin).
_clock = itertools.count(1)


def _tick() -> int:
    return next(_clock)


class InodeKind(enum.Enum):
    """The kinds of filesystem object the simulation supports."""

    FILE = "file"
    DIR = "dir"


@dataclass
class Credentials:
    """The identity a filesystem operation runs with.

    Mirrors the fields Maxoid cares about: Android gives every app a
    dedicated UID, and root (Zygote, system services) bypasses permission
    checks.
    """

    uid: int
    gid: int = 0

    @property
    def is_root(self) -> bool:
        return self.uid == 0


ROOT_CRED = Credentials(uid=0)


def check_rename(old: str, new: str, kind: InodeKind, onto: Optional[InodeKind]) -> None:
    """The rename(2) rules every filesystem here shares: a directory may not
    move into its own subtree (EINVAL), a file may not replace a directory
    (EISDIR) nor a directory a file (ENOTDIR). ``onto`` is the kind of what
    ``new`` names, None when nothing."""
    if kind is InodeKind.DIR and vpath.is_within(new, old):
        raise InvalidArgument(f"cannot move {old} into its own subtree {new}")
    if onto is InodeKind.DIR and kind is not InodeKind.DIR:
        raise IsADirectory(new)
    if kind is InodeKind.DIR and onto is InodeKind.FILE:
        raise NotADirectory(new)


@dataclass
class Stat:
    """Snapshot of an inode's metadata, as returned by ``stat()``."""

    ino: int
    kind: InodeKind
    mode: int
    uid: int
    gid: int
    size: int
    mtime: int

    @property
    def is_dir(self) -> bool:
        return self.kind is InodeKind.DIR

    @property
    def is_file(self) -> bool:
        return self.kind is InodeKind.FILE


class Inode:
    """A filesystem object: a regular file or a directory.

    Directories map child names to child inodes. Regular files hold a
    ``bytearray``. ``mtime`` is a logical version stamp, bumped on every
    content change.
    """

    __slots__ = ("ino", "kind", "mode", "uid", "gid", "data", "children", "mtime")

    _ino_counter = itertools.count(1)

    def __init__(self, kind: InodeKind, mode: int, uid: int, gid: int = 0) -> None:
        self.ino: int = next(Inode._ino_counter)
        self.kind = kind
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.data: bytearray = bytearray()
        self.children: Dict[str, "Inode"] = {}
        self.mtime: int = _tick()

    def touch(self) -> None:
        self.mtime = _tick()

    def stat(self) -> Stat:
        size = len(self.children) if self.kind is InodeKind.DIR else len(self.data)
        return Stat(
            ino=self.ino,
            kind=self.kind,
            mode=self.mode,
            uid=self.uid,
            gid=self.gid,
            size=size,
            mtime=self.mtime,
        )

    # -- permission bits ---------------------------------------------------

    def permits(self, cred: Credentials, want: int) -> bool:
        """Check whether ``cred`` may perform an access of kind ``want``.

        ``want`` is a 3-bit rwx mask (4=read, 2=write, 1=execute/search).
        Owner bits apply when the UID matches; group bits when the GID
        matches; otherwise the "other" bits. Root always passes.
        """
        if cred.is_root:
            return True
        if cred.uid == self.uid:
            granted = (self.mode >> 6) & 0o7
        elif cred.gid == self.gid and self.gid != 0:
            granted = (self.mode >> 3) & 0o7
        else:
            granted = self.mode & 0o7
        return (granted & want) == want


class FileHandle:
    """An open file descriptor on a regular file.

    Tracks its own offset; ``readable``/``writable`` gate the operations,
    mirroring the open flags used at ``open()`` time.
    """

    def __init__(self, inode: Inode, readable: bool, writable: bool, append: bool) -> None:
        self._inode = inode
        self._readable = readable
        self._writable = writable
        self._append = append
        self._offset = 0
        self._closed = False

    @property
    def ino(self) -> int:
        """Inode number — globally unique across simulated filesystems."""
        return self._inode.ino

    def _check_open(self) -> None:
        if self._closed:
            raise BadFileDescriptor("file handle is closed")

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes from the current offset (all if -1)."""
        self._check_open()
        if not self._readable:
            raise BadFileDescriptor("handle not open for reading")
        data = bytes(self._inode.data)
        if size < 0:
            chunk = data[self._offset :]
        else:
            chunk = data[self._offset : self._offset + size]
        self._offset += len(chunk)
        return chunk

    def write(self, data: bytes) -> int:
        """Write ``data`` at the current offset (or the end, if appending)."""
        self._check_open()
        if not self._writable:
            raise BadFileDescriptor("handle not open for writing")
        if self._append:
            self._offset = len(self._inode.data)
        end = self._offset + len(data)
        buf = self._inode.data
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[self._offset : end] = data
        self._offset = end
        self._inode.touch()
        return len(data)

    def seek(self, offset: int) -> None:
        self._check_open()
        if offset < 0:
            raise ValueError("negative seek offset")
        self._offset = offset

    def tell(self) -> int:
        return self._offset

    def truncate(self, size: int = 0) -> None:
        self._check_open()
        if not self._writable:
            raise BadFileDescriptor("handle not open for writing")
        del self._inode.data[size:]
        self._inode.touch()

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FilesystemAPI:
    """The interface a mount namespace programs against.

    Implemented by the plain in-memory :class:`Filesystem` and by
    :class:`repro.kernel.aufs.AufsMount`. All paths are absolute within the
    filesystem (i.e. relative to its own root, not the namespace root).
    """

    def stat(self, path: str, cred: Credentials) -> Stat:
        """Metadata of the object at ``path``."""
        raise NotImplementedError

    def exists(self, path: str, cred: Credentials) -> bool:
        """True if ``path`` resolves to a file or directory."""
        try:
            self.stat(path, cred)
            return True
        except (FileNotFound, NotADirectory):
            # ENOTDIR on an intermediate component also means "not there".
            return False

    def open(
        self,
        path: str,
        cred: Credentials,
        *,
        read: bool = True,
        write: bool = False,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
        exclusive: bool = False,
        mode: int = 0o644,
    ) -> FileHandle:
        """Open ``path`` and return a handle (see keyword flags)."""
        raise NotImplementedError

    def mkdir(self, path: str, cred: Credentials, mode: int = 0o755, parents: bool = False) -> None:
        """Create a directory (and missing ancestors when ``parents``)."""
        raise NotImplementedError

    def readdir(self, path: str, cred: Credentials) -> List[str]:
        """Sorted names of the entries in directory ``path``."""
        raise NotImplementedError

    def unlink(self, path: str, cred: Credentials) -> None:
        """Remove the file at ``path``."""
        raise NotImplementedError

    def rmdir(self, path: str, cred: Credentials) -> None:
        """Remove the empty directory at ``path``."""
        raise NotImplementedError

    def rename(self, old: str, new: str, cred: Credentials) -> None:
        """Atomically move ``old`` to ``new`` within this filesystem."""
        raise NotImplementedError

    # -- convenience helpers (shared) --------------------------------------

    def read_file(self, path: str, cred: Credentials) -> bytes:
        """Read the whole file at ``path``."""
        with self.open(path, cred, read=True) as handle:
            return handle.read()

    def write_file(self, path: str, data: bytes, cred: Credentials, mode: int = 0o644) -> None:
        """Create/replace the file at ``path`` with ``data``."""
        with self.open(
            path, cred, read=False, write=True, create=True, truncate=True, mode=mode
        ) as handle:
            handle.write(data)

    def append_file(self, path: str, data: bytes, cred: Credentials) -> None:
        """Append ``data`` to the existing file at ``path``."""
        with self.open(path, cred, read=False, write=True, append=True) as handle:
            handle.write(data)

    def walk(self, top: str, cred: Credentials) -> Iterator[Tuple[str, List[str], List[str]]]:
        """Yield ``(dirpath, dirnames, filenames)`` like :func:`os.walk`."""
        dirnames: List[str] = []
        filenames: List[str] = []
        for name in sorted(self.readdir(top, cred)):
            child = vpath.join(top, name)
            if self.stat(child, cred).is_dir:
                dirnames.append(name)
            else:
                filenames.append(name)
        yield top, dirnames, filenames
        for name in dirnames:
            yield from self.walk(vpath.join(top, name), cred)


class Filesystem(FilesystemAPI):
    """A plain, single-tree in-memory filesystem.

    ``read_only`` marks the whole tree immutable (useful for sealed system
    images); per-inode mode bits handle everything else.
    """

    def __init__(self, *, read_only: bool = False, label: str = "") -> None:
        self.root = Inode(InodeKind.DIR, mode=0o755, uid=0)
        self.read_only = read_only
        self.label = label
        # Cooperative reader-writer lock for the deterministic scheduler;
        # a no-op whenever the reactor is off (see repro.sched.locks).
        self.rwlock = RWLock(f"fs:{label or 'anon'}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Filesystem {self.label or hex(id(self))}>"

    # -- resolution ---------------------------------------------------------

    def _lookup(self, path: str, cred: Credentials) -> Inode:
        """Resolve ``path`` to an inode, enforcing search permission."""
        node = self.root
        check_search = not cred.is_root
        for component in vpath.split(path):
            if node.kind is not InodeKind.DIR:
                raise NotADirectory(path)
            if check_search and not node.permits(cred, 0o1):
                raise PermissionDenied(f"search denied on the way to {path}")
            child = node.children.get(component)
            if child is None:
                raise FileNotFound(path)
            node = child
        return node

    def probe(self, path: str) -> Optional[Inode]:
        """Resolve ``path`` as root in one walk: the inode, or ``None`` where
        a component is missing or not a directory."""
        node = self.root
        for component in vpath.split(path):
            if node.kind is not InodeKind.DIR:
                return None
            node = node.children.get(component)
            if node is None:
                return None
        return node

    def _lookup_parent(self, path: str, cred: Credentials) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; return (parent, name)."""
        name = vpath.basename(path)
        if not name:
            raise FileExists("/")
        parent_node = self._lookup(vpath.parent(path), cred)
        if parent_node.kind is not InodeKind.DIR:
            raise NotADirectory(vpath.parent(path))
        return parent_node, name

    def _check_writable_fs(self) -> None:
        if self.read_only:
            raise ReadOnlyFilesystem(self.label or "filesystem is read-only")

    # -- FilesystemAPI ------------------------------------------------------

    def stat(self, path: str, cred: Credentials) -> Stat:
        return self._lookup(path, cred).stat()

    def exists(self, path: str, cred: Credentials) -> bool:
        # Root passes every search check, so one probe answers; other
        # credentials walk with the checks (PermissionDenied propagates).
        if cred.is_root:
            return self.probe(path) is not None
        return super().exists(path, cred)

    def open(
        self,
        path: str,
        cred: Credentials,
        *,
        read: bool = True,
        write: bool = False,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
        exclusive: bool = False,
        mode: int = 0o644,
    ) -> FileHandle:
        if write or truncate or append:
            self._check_writable_fs()
        try:
            node = self._lookup(path, cred)
            if exclusive and create:
                raise FileExists(path)
        except FileNotFound:
            if not create:
                raise
            self._check_writable_fs()
            parent_node, name = self._lookup_parent(path, cred)
            if not parent_node.permits(cred, 0o3):
                raise PermissionDenied(f"cannot create in {vpath.parent(path)}")
            node = Inode(InodeKind.FILE, mode=mode, uid=cred.uid, gid=cred.gid)
            parent_node.children[name] = node
            parent_node.touch()
        if node.kind is InodeKind.DIR:
            raise IsADirectory(path)
        if read and not node.permits(cred, 0o4):
            raise PermissionDenied(f"read denied: {path}")
        writable = write or append or truncate
        if writable and not node.permits(cred, 0o2):
            raise PermissionDenied(f"write denied: {path}")
        if truncate:
            node.data.clear()
            node.touch()
        return FileHandle(node, readable=read, writable=writable, append=append)

    def mkdir(self, path: str, cred: Credentials, mode: int = 0o755, parents: bool = False) -> None:
        self._check_writable_fs()
        if parents:
            self._mkdirs(path, cred, mode)
            return
        parent_node, name = self._lookup_parent(path, cred)
        if name in parent_node.children:
            raise FileExists(path)
        if not parent_node.permits(cred, 0o3):
            raise PermissionDenied(f"cannot create directory in {vpath.parent(path)}")
        parent_node.children[name] = Inode(InodeKind.DIR, mode=mode, uid=cred.uid, gid=cred.gid)
        parent_node.touch()

    def _mkdirs(self, path: str, cred: Credentials, mode: int) -> None:
        """``mkdir -p`` in one walk: each missing component is created in
        the directory the walk already holds, with the search and create
        checks a component-by-component ``mkdir`` would make."""
        components = vpath.split(path)
        node = self.root
        for depth, component in enumerate(components):
            if node.kind is not InodeKind.DIR:
                raise NotADirectory("/" + "/".join(components[:depth]))
            if not node.permits(cred, 0o1):
                raise PermissionDenied(
                    f"search denied on the way to /{'/'.join(components[: depth + 1])}"
                )
            child = node.children.get(component)
            if child is None:
                if not node.permits(cred, 0o3):
                    raise PermissionDenied(
                        f"cannot create directory in /{'/'.join(components[:depth])}"
                    )
                child = Inode(InodeKind.DIR, mode=mode, uid=cred.uid, gid=cred.gid)
                node.children[component] = child
                node.touch()
            node = child

    def readdir(self, path: str, cred: Credentials) -> List[str]:
        node = self._lookup(path, cred)
        if node.kind is not InodeKind.DIR:
            raise NotADirectory(path)
        if not node.permits(cred, 0o4):
            raise PermissionDenied(f"list denied: {path}")
        return sorted(node.children)

    def unlink(self, path: str, cred: Credentials) -> None:
        self._check_writable_fs()
        parent_node, name = self._lookup_parent(path, cred)
        node = parent_node.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.kind is InodeKind.DIR:
            raise IsADirectory(path)
        if not parent_node.permits(cred, 0o3):
            raise PermissionDenied(f"unlink denied: {path}")
        del parent_node.children[name]
        parent_node.touch()

    def rmdir(self, path: str, cred: Credentials) -> None:
        self._check_writable_fs()
        parent_node, name = self._lookup_parent(path, cred)
        node = parent_node.children.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.kind is not InodeKind.DIR:
            raise NotADirectory(path)
        if node.children:
            raise DirectoryNotEmpty(path)
        if not parent_node.permits(cred, 0o3):
            raise PermissionDenied(f"rmdir denied: {path}")
        del parent_node.children[name]
        parent_node.touch()

    def rename(self, old: str, new: str, cred: Credentials) -> None:
        self._check_writable_fs()
        old_parent, old_name = self._lookup_parent(old, cred)
        node = old_parent.children.get(old_name)
        if node is None:
            raise FileNotFound(old)
        new_parent, new_name = self._lookup_parent(new, cred)
        if not old_parent.permits(cred, 0o3) or not new_parent.permits(cred, 0o3):
            raise PermissionDenied(f"rename denied: {old} -> {new}")
        existing = new_parent.children.get(new_name)
        if existing is node:
            return
        check_rename(old, new, node.kind, existing.kind if existing else None)
        if existing is not None and existing.children:
            raise DirectoryNotEmpty(new)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node
        old_parent.touch()
        new_parent.touch()

    # -- administrative helpers (used by Zygote / branch manager) -----------

    def chown(self, path: str, uid: int, cred: Credentials = ROOT_CRED, gid: Optional[int] = None) -> None:
        """Change ownership; only root may call this (as in Linux)."""
        if not cred.is_root:
            raise PermissionDenied("chown requires root")
        node = self._lookup(path, cred)
        node.uid = uid
        if gid is not None:
            node.gid = gid

    def chmod(self, path: str, mode: int, cred: Credentials = ROOT_CRED) -> None:
        node = self._lookup(path, cred)
        if not cred.is_root and cred.uid != node.uid:
            raise PermissionDenied("chmod requires ownership")
        node.mode = mode

    def clear(self, path: str) -> int:
        """Empty the directory at ``path`` (as root) in one pass over its
        inodes; returns how many non-directory inodes went with it. The
        directory itself stays; a missing ``path`` clears nothing."""
        self._check_writable_fs()
        node = self.probe(path)
        if node is None:
            return 0
        if node.kind is not InodeKind.DIR:
            raise NotADirectory(path)
        if not node.children:
            return 0
        files = 0
        stack = [node]
        while stack:
            for child in stack.pop().children.values():
                if child.kind is InodeKind.DIR:
                    stack.append(child)
                else:
                    files += 1
        node.children.clear()
        node.touch()
        return files

    def tree_size(self, path: str = "/", cred: Credentials = ROOT_CRED) -> int:
        """Total number of inodes under ``path`` (for space accounting)."""
        node = self._lookup(path, cred)
        count = 1
        stack = [node]
        while stack:
            current = stack.pop()
            for child in current.children.values():
                count += 1
                if child.kind is InodeKind.DIR:
                    stack.append(child)
        return count
