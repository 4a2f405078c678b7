"""A from-scratch union filesystem modelled on Aufs.

The paper (section 4.2) builds Maxoid's custom views of files on Aufs: a
union mount presents several *branches* (directories in underlying
filesystems) as a single tree. The branch with the highest priority wins on
name collisions; if only one branch is writable, all writes are confined to
it, and modifying a file that lives in a read-only branch first *copies it
up* into the writable branch. Deleting a file that exists in a read-only
branch leaves a *whiteout* marker in the writable branch so the name
disappears from the merged view.

This module implements those semantics:

- ordered branches, each ``(filesystem, root-subdirectory, writable?)``;
- per-file copy-on-write via copy-up on the first write/append/truncate;
- whiteouts (``.wh.<name>``) and opaque directories (``.wh..wh..opq``) for
  deletions that must mask lower branches;
- the Maxoid modification: ``always_allow_read=True`` lets a mount bypass
  lower-branch permission checks, which is how a delegate (different UID)
  reads its initiator's private files. Maxoid only creates such mounts when
  policy allows the access, and apps cannot mount Aufs themselves once
  Zygote drops root (paper section 4.2). The same flag permits the copy-up
  that redirects a delegate's write into its own writable branch.

Branch-internal operations run as root: in the real system the branch
directories live in paths only root can reach, and apps can only touch them
through the mount point, where the union enforces the merged view's checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    ReadOnlyFilesystem,
)
from repro.boundary import boundary
from repro.kernel import path as vpath
from repro.obs import DEFAULT_BYTE_BUCKETS, OBS as _OBS
from repro.kernel.vfs import (
    Credentials,
    FileHandle,
    Filesystem,
    FilesystemAPI,
    InodeKind,
    ROOT_CRED,
    Stat,
)
from repro.sched.locks import RWLock

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"
#: Copy-up staging name. The ``.wh.`` prefix keeps in-flight temp files out
#: of the merged readdir view, so a crash mid-copy-up never exposes a torn
#: partial file through the union; recovery just purges leftovers.
COPYUP_TMP_PREFIX = ".wh..wh.cpup."


@dataclass
class Branch:
    """One layer of a union mount.

    ``fs`` is the backing filesystem, ``root`` the subdirectory within it
    that this branch exposes, and ``writable`` whether writes may land here.
    At most one branch of a mount may be writable (as in the paper's mounts,
    Table 2).
    """

    fs: Filesystem
    root: str = "/"
    writable: bool = False
    label: str = ""

    def path(self, union_path: str) -> str:
        """Translate a union-relative path into this branch's filesystem."""
        root = vpath.normalize(self.root)
        union_path = vpath.normalize(union_path)
        if root == "/":
            return union_path
        return root if union_path == "/" else root + union_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rw = "rw" if self.writable else "ro"
        return f"<Branch {self.label or self.root} ({rw})>"


def _whiteout_path(branch: Branch, union_path: str) -> str:
    parent = vpath.parent(union_path)
    name = vpath.basename(union_path)
    return vpath.join(branch.path(parent), WHITEOUT_PREFIX + name)


def _copy_up_ctx(self, union_path: str, source_index: int, cred: Credentials) -> dict:
    return {"mount": self.label, "path": union_path}


def _copy_up_done(self, span, copied: int) -> None:
    branch = self.writable_branch
    span.set(bytes=copied, branch=branch.label or branch.root)
    self.obs.metrics.count("aufs.copy_up")
    self.obs.metrics.count("aufs.copy_up.bytes", copied)
    self.obs.metrics.observe("aufs.copy_up.size", copied, DEFAULT_BYTE_BUCKETS)


def _open_attrs(self, path, cred, *, write=False, truncate=False, append=False, **_flags) -> dict:
    wb = self.writable_branch
    return {
        "mount": self.label,
        "path": path,
        "write": write or truncate or append,
        "writable_branch": (wb.label or wb.root) if wb is not None else None,
        "writable_root": wb.root if wb is not None else None,
    }


class _AufsFileHandle(FileHandle):
    """File handle that counts copy-up work for the performance model."""


class AufsMount(FilesystemAPI):
    """A union of branches presented as a single filesystem.

    Branches are ordered highest-priority first. Statistics counters
    (``copy_up_count``, ``copy_up_bytes``, ``lookup_branches_scanned``)
    feed the reproduction's latency model: the paper's Table 3 delegate
    overheads come precisely from multi-branch lookups and copy-up.
    """

    def __init__(
        self,
        branches: List[Branch],
        *,
        always_allow_read: bool = False,
        label: str = "",
        obs: Optional[Any] = None,
    ) -> None:
        if not branches:
            raise ValueError("an Aufs mount needs at least one branch")
        writable = [i for i, b in enumerate(branches) if b.writable]
        if len(writable) > 1:
            raise ValueError("at most one writable branch is supported")
        self.branches = list(branches)
        self._writable_index: Optional[int] = writable[0] if writable else None
        self.always_allow_read = always_allow_read
        self.label = label
        self.copy_up_count = 0
        self.copy_up_bytes = 0
        self.lookup_branches_scanned = 0
        # The owning device's observability context (the branch manager
        # passes its device's handle; bare mounts fall back to OBS).
        self.obs = obs if obs is not None else _OBS
        self.rwlock = RWLock(f"aufs:{label or 'union'}")
        for branch in self.branches:
            if not branch.fs.exists(branch.root, ROOT_CRED):
                branch.fs.mkdir(branch.root, ROOT_CRED, parents=True)
        # Single-branch mounts (every initiator mount, Table 2) take a
        # passthrough fast path: no whiteout/masking machinery can apply,
        # which is how the paper gets "no overhead for initiators".
        self._single = self.branches[0] if len(self.branches) == 1 else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AufsMount {self.label} branches={self.branches!r}>"

    @property
    def writable_branch(self) -> Optional[Branch]:
        if self._writable_index is None:
            return None
        return self.branches[self._writable_index]

    # ------------------------------------------------------------------
    # Visibility
    # ------------------------------------------------------------------

    def _hidden_by_upper(self, index: int, union_path: str) -> bool:
        """True if branch ``index``'s entry at ``union_path`` is masked by a
        whiteout, opaque directory, or shadowing file in a higher branch.

        Each upper branch is walked once, one directory's children at a time.
        """
        components = vpath.split(union_path)
        last = len(components) - 1
        for upper in self.branches[:index]:
            node = upper.fs.probe(upper.root)
            if node is None:
                continue
            for depth, component in enumerate(components):
                children = node.children
                if WHITEOUT_PREFIX + component in children:
                    return True
                node = children.get(component)
                if node is None or depth == last:
                    break
                if node.kind is InodeKind.FILE:
                    # A file in an upper branch shadows lower directories.
                    return True
                if OPAQUE_MARKER in node.children:
                    return True
        return False

    def _find(self, union_path: str) -> Tuple[int, Stat]:
        """Locate the topmost visible instance of ``union_path``.

        Returns ``(branch_index, stat)`` or raises :class:`FileNotFound`.
        """
        for index, branch in enumerate(self.branches):
            self.lookup_branches_scanned += 1
            node = branch.fs.probe(branch.path(union_path))
            if node is None:
                continue
            if self._hidden_by_upper(index, union_path):
                # Higher branches mask everything below; nothing further
                # down can be visible either.
                raise FileNotFound(union_path)
            return index, node.stat()
        raise FileNotFound(union_path)

    def _check_access(self, stat: Stat, cred: Credentials, want: int) -> None:
        """Enforce the merged view's permission bits.

        Reads (and the copy-up that precedes a redirected write) are exempt
        when ``always_allow_read`` is set — the Maxoid Aufs patch.
        """
        if self.always_allow_read or cred.is_root:
            return
        if cred.uid == stat.uid:
            granted = (stat.mode >> 6) & 0o7
        elif cred.gid == stat.gid and stat.gid != 0:
            granted = (stat.mode >> 3) & 0o7
        else:
            granted = stat.mode & 0o7
        if (granted & want) != want:
            raise PermissionDenied(f"access {want:o} denied (mode {stat.mode:o})")

    # ------------------------------------------------------------------
    # Write plumbing
    # ------------------------------------------------------------------

    def _require_writable(self) -> Branch:
        branch = self.writable_branch
        if branch is None:
            raise ReadOnlyFilesystem(self.label or "no writable branch")
        return branch

    def _ensure_parents(self, union_path: str) -> None:
        """Replicate the ancestor directory chain into the writable branch."""
        branch = self._require_writable()
        partial = "/"
        for component in vpath.split(vpath.parent(union_path)):
            partial = vpath.join(partial, component)
            target = branch.path(partial)
            if not branch.fs.exists(target, ROOT_CRED):
                # The directory must be visible in the union for the write
                # to be legal; copy its mode from the visible instance.
                index, stat = self._find(partial)
                if not stat.is_dir:
                    raise NotADirectory(partial)
                branch.fs.mkdir(target, ROOT_CRED, mode=stat.mode)
                branch.fs.chown(target, stat.uid, gid=stat.gid)

    def _drop_whiteout(self, union_path: str) -> None:
        branch = self._require_writable()
        whiteout = _whiteout_path(branch, union_path)
        if branch.fs.exists(whiteout, ROOT_CRED):
            branch.fs.unlink(whiteout, ROOT_CRED)

    @boundary(
        "aufs.copy_up",
        attrs=_copy_up_ctx,
        fault=_copy_up_ctx,
        sched=lambda self, union_path, source_index, cred: {
            "path": union_path, "resource": f"file:{union_path}", "rw": "w"
        },
        lock=lambda self, union_path, source_index, cred: self.rwlock.write(),
        done=_copy_up_done,
    )
    def _copy_up(self, union_path: str, source_index: int, cred: Credentials) -> int:
        """Copy a lower-branch file into the writable branch (copy-on-write).

        The copy is owned by the writer, matching Maxoid's redirect
        semantics: after copy-up the delegate owns its private copy.
        Returns the bytes copied.
        """
        branch = self._require_writable()
        source = self.branches[source_index]
        data = source.fs.read_file(source.path(union_path), ROOT_CRED)
        stat = source.fs.stat(source.path(union_path), ROOT_CRED)
        self._ensure_parents(union_path)
        self._drop_whiteout(union_path)
        target = branch.path(union_path)
        # Crash-atomic: stage the copy under a whiteout-prefixed temp name
        # (invisible through the union), then publish it with an atomic
        # rename — a crash at any intermediate point leaves either the old
        # view or the new one, never a torn file.
        staging = vpath.join(
            branch.path(vpath.parent(union_path)),
            COPYUP_TMP_PREFIX + vpath.basename(union_path),
        )
        branch.fs.write_file(staging, data, ROOT_CRED, mode=stat.mode | 0o600)
        branch.fs.chown(staging, cred.uid, gid=cred.gid)
        self._publish(branch, staging, target, union_path)
        if self.obs.prov:
            self.obs.provenance.copy_up(
                stat.ino,
                branch.fs.stat(target, ROOT_CRED).ino,
                union_path,
                mount=self.label,
            )
        self.copy_up_count += 1
        self.copy_up_bytes += len(data)
        return len(data)

    @boundary(
        "aufs.copy_up.publish",
        span=False,
        fault=lambda self, branch, staging, target, union_path: {
            "mount": self.label, "path": union_path
        },
        sched=lambda self, branch, staging, target, union_path: {"path": union_path},
    )
    def _publish(self, branch: Branch, staging: str, target: str, union_path: str) -> None:
        """Rename a staged copy-up over its target: the copy-up's one
        visible step."""
        branch.fs.rename(staging, target, ROOT_CRED)

    def _copy_up_tree(self, union_path: str, cred: Credentials) -> None:
        """Recursively materialize a visible subtree in the writable branch."""
        index, stat = self._find(union_path)
        if stat.is_file:
            if not self.branches[index].writable:
                self._copy_up(union_path, index, cred)
            return
        branch = self._require_writable()
        target = branch.path(union_path)
        if not branch.fs.exists(target, ROOT_CRED):
            self._ensure_parents(union_path)
            self._drop_whiteout(union_path)
            branch.fs.mkdir(target, ROOT_CRED, mode=stat.mode)
        for name in self.readdir(union_path, ROOT_CRED):
            self._copy_up_tree(vpath.join(union_path, name), cred)

    # ------------------------------------------------------------------
    # FilesystemAPI
    # ------------------------------------------------------------------

    def stat(self, path: str, cred: Credentials) -> Stat:
        """Stat the topmost visible instance of ``path``."""
        if self._single is not None:
            return self._single.fs.stat(self._single.path(path), ROOT_CRED)
        _, stat = self._find(path)
        return stat

    @boundary("aufs.open", attrs=_open_attrs, count="aufs.open")
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
        wants_write = write or truncate or append
        if self._single is not None and self._single.writable:
            target = self._single.path(path)
            fresh = create and not self._single.fs.exists(target, ROOT_CRED)
            handle = self._single.fs.open(
                target,
                ROOT_CRED,
                read=read,
                write=write,
                create=create,
                truncate=truncate,
                append=append,
                exclusive=exclusive,
                mode=mode,
            )
            if fresh:
                self._single.fs.chown(target, cred.uid, gid=cred.gid)
            return handle
        try:
            index, stat = self._find(path)
            exists = True
        except FileNotFound:
            exists = False
            index, stat = -1, None
        if exists and exclusive and create:
            raise FileExists(path)
        if not exists:
            if not create:
                raise FileNotFound(path)
            branch = self._require_writable()
            self._ensure_parents(path)
            self._drop_whiteout(path)
            target = branch.path(path)
            handle = branch.fs.open(
                target,
                ROOT_CRED,
                read=read,
                write=True,
                create=True,
                truncate=truncate,
                append=append,
                mode=mode,
            )
            branch.fs.chown(target, cred.uid, gid=cred.gid)
            return handle
        assert stat is not None
        if stat.is_dir:
            raise IsADirectory(path)
        if read:
            self._check_access(stat, cred, 0o4)
        if wants_write:
            self._check_access(stat, cred, 0o2)
            if not self.branches[index].writable:
                self._copy_up(path, index, cred)
                index = self._writable_index  # type: ignore[assignment]
        branch = self.branches[index]
        return branch.fs.open(
            branch.path(path),
            ROOT_CRED,
            read=read,
            write=wants_write and not append,
            truncate=truncate,
            append=append,
        )

    def mkdir(self, path: str, cred: Credentials, mode: int = 0o755, parents: bool = False) -> None:
        if self._single is not None and self._single.writable:
            self._single.fs.mkdir(self._single.path(path), ROOT_CRED, mode=mode, parents=parents)
            return
        branch = self._require_writable()
        if parents:
            partial = "/"
            for component in vpath.split(path):
                partial = vpath.join(partial, component)
                if not self.exists(partial, cred):
                    self.mkdir(partial, cred, mode=mode, parents=False)
            return
        if self.exists(path, cred):
            raise FileExists(path)
        had_whiteout = branch.fs.exists(_whiteout_path(branch, path), ROOT_CRED)
        self._ensure_parents(path)
        self._drop_whiteout(path)
        target = branch.path(path)
        branch.fs.mkdir(target, ROOT_CRED, mode=mode)
        branch.fs.chown(target, cred.uid, gid=cred.gid)
        if had_whiteout:
            # The name was deleted earlier; the fresh directory must not let
            # stale lower-branch entries show through.
            branch.fs.write_file(vpath.join(target, OPAQUE_MARKER), b"", ROOT_CRED)

    def readdir(self, path: str, cred: Credentials) -> List[str]:
        if self._single is not None:
            return self._single.fs.readdir(self._single.path(path), ROOT_CRED)
        index, stat = self._find(path)
        if not stat.is_dir:
            raise NotADirectory(path)
        self._check_access(stat, cred, 0o4)
        names: List[str] = []
        seen = set()
        hidden = set()
        for i in range(index, len(self.branches)):
            branch = self.branches[i]
            branch_dir = branch.path(path)
            node = branch.fs.probe(branch_dir)
            if node is None:
                continue
            if node.kind is not InodeKind.DIR:
                break
            if i > index and self._hidden_by_upper(i, path):
                break
            opaque = False
            for name in branch.fs.readdir(branch_dir, ROOT_CRED):
                if name == OPAQUE_MARKER:
                    opaque = True
                    continue
                if name.startswith(WHITEOUT_PREFIX):
                    hidden.add(name[len(WHITEOUT_PREFIX) :])
                    continue
                if name not in seen and name not in hidden:
                    seen.add(name)
                    names.append(name)
            if opaque:
                break
        return sorted(names)

    def unlink(self, path: str, cred: Credentials) -> None:
        if self._single is not None and self._single.writable:
            self._single.fs.unlink(self._single.path(path), ROOT_CRED)
            return
        index, stat = self._find(path)
        if stat.is_dir:
            raise IsADirectory(path)
        self._check_access(stat, cred, 0o2)
        branch = self._require_writable()
        if self.branches[index].writable:
            branch.fs.unlink(branch.path(path), ROOT_CRED)
            index += 1
        # If the name still exists in any lower branch, mask it.
        still_visible = any(
            self.branches[i].fs.exists(self.branches[i].path(path), ROOT_CRED)
            for i in range(index, len(self.branches))
        )
        if still_visible:
            self._ensure_parents(path)
            branch.fs.write_file(_whiteout_path(branch, path), b"", ROOT_CRED)

    def rmdir(self, path: str, cred: Credentials) -> None:
        index, stat = self._find(path)
        if not stat.is_dir:
            raise NotADirectory(path)
        if self.readdir(path, ROOT_CRED):
            raise DirectoryNotEmpty(path)
        self._check_access(stat, cred, 0o2)
        branch = self._require_writable()
        if self.branches[index].writable:
            target = branch.path(path)
            opaque = vpath.join(target, OPAQUE_MARKER)
            if branch.fs.exists(opaque, ROOT_CRED):
                branch.fs.unlink(opaque, ROOT_CRED)
            for name in list(branch.fs.readdir(target, ROOT_CRED)):
                branch.fs.unlink(vpath.join(target, name), ROOT_CRED)
            branch.fs.rmdir(target, ROOT_CRED)
            index += 1
        still_visible = any(
            self.branches[i].fs.exists(self.branches[i].path(path), ROOT_CRED)
            for i in range(index, len(self.branches))
        )
        if still_visible:
            self._ensure_parents(path)
            branch.fs.write_file(_whiteout_path(branch, path), b"", ROOT_CRED)

    def rename(self, old: str, new: str, cred: Credentials) -> None:
        """Rename within the union.

        Implemented as copy-up of the source into the writable branch at the
        new name, then deletion of the old name — the strategy real union
        filesystems use when the source lives in a read-only branch.
        """
        index, stat = self._find(old)
        self._check_access(stat, cred, 0o2)
        branch = self._require_writable()
        if stat.is_file:
            data = self.read_file(old, ROOT_CRED)
            self._ensure_parents(new)
            self._drop_whiteout(new)
            target = branch.path(new)
            branch.fs.write_file(target, data, ROOT_CRED, mode=stat.mode)
            branch.fs.chown(target, cred.uid, gid=cred.gid)
            self.unlink(old, cred)
            return
        # Directory rename: materialize the subtree under the new name.
        self._copy_up_tree(old, cred)
        source_root = branch.path(old)
        self._ensure_parents(new)
        self._drop_whiteout(new)
        branch.fs.rename(source_root, branch.path(new), ROOT_CRED)
        still_visible = any(
            b.fs.exists(b.path(old), ROOT_CRED) for b in self.branches if not b.writable
        )
        if still_visible:
            branch.fs.write_file(_whiteout_path(branch, old), b"", ROOT_CRED)

    # ------------------------------------------------------------------
    # Introspection (used by the branch manager and the benchmarks)
    # ------------------------------------------------------------------

    def describe(self) -> List[str]:
        """Human-readable branch list, highest priority first."""
        out = []
        for branch in self.branches:
            rw = "rw" if branch.writable else "ro"
            out.append(f"{branch.label or branch.root}({rw})")
        return out

    def reset_counters(self) -> None:
        """Zero the copy-up/lookup statistics counters."""
        self.copy_up_count = 0
        self.copy_up_bytes = 0
        self.lookup_branches_scanned = 0


def purge_copyup_temps(fs: Filesystem) -> List[str]:
    """Remove orphaned copy-up staging files from a branch filesystem.

    A crash between the staging write and the publishing rename leaves a
    ``.wh..wh.cpup.*`` file behind; it is invisible through the union but
    still occupies space. ``Device.recover()`` calls this on every branch
    store. Returns the paths removed.
    """
    removed: List[str] = []
    stack = ["/"]
    while stack:
        current = stack.pop()
        for name in list(fs.readdir(current, ROOT_CRED)):
            child = vpath.join(current, name)
            if fs.stat(child, ROOT_CRED).is_dir:
                stack.append(child)
            elif name.startswith(COPYUP_TMP_PREFIX):
                fs.unlink(child, ROOT_CRED)
                removed.append(child)
    return removed
