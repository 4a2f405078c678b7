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
    Inode,
    InodeKind,
    ROOT_CRED,
    Stat,
    check_rename,
)
from repro.sched.locks import RWLock

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"
#: Copy-up staging name. The ``.wh.`` prefix keeps in-flight temp files out
#: of the merged readdir view, so a crash mid-copy-up never exposes a torn
#: partial file through the union; recovery just purges leftovers.
COPYUP_TMP_PREFIX = ".wh..wh.cpup."


@dataclass(frozen=True)
class Branch:
    """One layer of a union mount.

    ``fs`` is the backing filesystem, ``root`` the subdirectory within it
    that this branch exposes, and ``writable`` whether writes may land here.
    At most one branch of a mount may be writable (as in the paper's mounts,
    Table 2). Frozen, so mounts of many processes can share one; ``root``
    is made canonical once, at construction.
    """

    fs: Filesystem
    root: str = "/"
    writable: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", vpath.normalize(self.root))

    def path(self, union_path: str) -> str:
        """Translate a union-relative path into this branch's filesystem."""
        union_path = vpath.normalize(union_path)
        if self.root == "/":
            return union_path
        return self.root if union_path == "/" else self.root + union_path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rw = "rw" if self.writable else "ro"
        return f"<Branch {self.label or self.root} ({rw})>"


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


class AufsMount(FilesystemAPI):
    """A union of branches presented as a single filesystem.

    Branches are ordered highest-priority first; only the top one may be
    writable (as in every mount of the paper's Table 2), so an entry the
    writable branch holds is always the visible one. Statistics counters
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
        if any(branch.writable for branch in branches[1:]):
            raise ValueError("only the top branch may be writable")
        self.branches = list(branches)
        self.writable_branch: Optional[Branch] = branches[0] if branches[0].writable else None
        self.always_allow_read = always_allow_read
        self.label = label
        self.copy_up_count = 0
        self.copy_up_bytes = 0
        self.lookup_branches_scanned = 0
        # The owning device's observability context (the branch manager
        # passes its device's handle; bare mounts fall back to OBS).
        self.obs = obs if obs is not None else _OBS
        self.rwlock = RWLock(f"aufs:{label or 'union'}")
        # The one check of each root per mount: a root that a clear removed
        # since the branch was resolved is made again here.
        for branch in self.branches:
            if branch.fs.probe(branch.root) is None:
                branch.fs.mkdir(branch.root, ROOT_CRED, parents=True)
        # Single-branch mounts (every initiator mount, Table 2) take a
        # passthrough fast path: no whiteout/masking machinery can apply,
        # which is how the paper gets "no overhead for initiators".
        self._single = self.branches[0] if len(self.branches) == 1 else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AufsMount {self.label} branches={self.branches!r}>"

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

    def _writable_dir(
        self, union_path: str, cred: Optional[Credentials] = None, mode: int = 0o755
    ) -> Tuple[Inode, str]:
        """The one parent-chain walk of a union mutation: the writable
        branch's directory at ``union_path`` as ``(inode, branch path)``.

        It descends the writable branch's inodes as far as they hold the
        chain; only the components beyond consult :meth:`_find`, and each
        visible one is copied in with its mode and owner. A file on the way
        raises :class:`NotADirectory`, a missing component
        :class:`FileNotFound`, unless ``cred`` is given (``mkdir -p``): then
        it and everything below it are made by :meth:`_new_dir`.
        """
        branch = self._require_writable()
        node = branch.fs.probe(branch.root)
        if node is None:  # Clear-Priv dropped the root under a live mount
            raise FileNotFound(branch.root)
        target, partial = branch.root, "/"
        components = vpath.split(union_path)
        for depth, name in enumerate(components):
            partial = vpath.join(partial, name)
            child = node.children.get(name)
            if child is None:
                try:
                    _, stat = self._find(partial)
                except FileNotFound:
                    if cred is None:
                        raise
                    break
                if not stat.is_dir:
                    raise NotADirectory(partial)
                node, target = self._new_dir(node, target, name, stat, stat.mode)
            elif child.kind is InodeKind.DIR:
                node, target = child, vpath.join(target, name)
            else:
                raise NotADirectory(partial)
        else:
            return node, target
        # Nothing below a name missing from the union is visible either.
        for name in components[depth:]:
            node, target = self._new_dir(node, target, name, cred, mode)
        return node, target

    def _place(self, union_path: str) -> Tuple[str, bool]:
        """Ready the writable branch for an entry at ``union_path``: its
        branch path, and whether a whiteout of the name was dropped."""
        node, parent = self._writable_dir(vpath.parent(union_path))
        name = vpath.basename(union_path)
        return vpath.join(parent, name), self._unmask(node, parent, name)

    def _unmask(self, node: Inode, target: str, name: str) -> bool:
        """Drop ``name``'s whiteout from the writable directory ``node``
        (branch path ``target``); True if there was one."""
        whiteout = WHITEOUT_PREFIX + name
        if whiteout not in node.children:
            return False
        self.writable_branch.fs.unlink(vpath.join(target, whiteout), ROOT_CRED)
        return True

    def _new_dir(self, node: Inode, target: str, name: str, owner, mode: int) -> Tuple[Inode, str]:
        """Create directory ``name`` in the writable directory ``node`` with
        ``owner``'s uid and gid (a writer's credentials, or the stat of the
        visible directory it copies). Where it replaces a whiteout it is
        made opaque, so the deleted name's stale lower entries stay hidden."""
        fs = self.writable_branch.fs
        masked = self._unmask(node, target, name)
        target = vpath.join(target, name)
        fs.mkdir(target, ROOT_CRED, mode=mode)
        fs.chown(target, owner.uid, gid=owner.gid)
        if masked:
            fs.write_file(vpath.join(target, OPAQUE_MARKER), b"", ROOT_CRED)
        return node.children[name], target

    def _held(self, union_path: str, start: int) -> bool:
        """True if a branch from ``start`` down holds ``union_path``, masked
        or not."""
        return any(b.fs.probe(b.path(union_path)) is not None for b in self.branches[start:])

    def _mask(self, union_path: str, start: int) -> None:
        """Whiteout ``union_path`` if a branch from ``start`` down still
        holds it."""
        if self._held(union_path, start):
            _, parent = self._writable_dir(vpath.parent(union_path))
            whiteout = vpath.join(parent, WHITEOUT_PREFIX + vpath.basename(union_path))
            self.writable_branch.fs.write_file(whiteout, b"", ROOT_CRED)

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
        target, _ = self._place(union_path)
        # Crash-atomic: stage the copy under a whiteout-prefixed temp name
        # (invisible through the union), then publish it with an atomic
        # rename — a crash at any intermediate point leaves either the old
        # view or the new one, never a torn file.
        staging = vpath.join(vpath.parent(target), COPYUP_TMP_PREFIX + vpath.basename(target))
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

    def _copy_up_tree(self, union_path: str, index: int, stat: Stat, cred: Credentials) -> None:
        """Recursively materialize the visible subtree that :meth:`_find`
        put at branch ``index`` in the writable branch."""
        if stat.is_file:
            if not self.branches[index].writable:
                self._copy_up(union_path, index, cred)
            return
        self._writable_dir(union_path)
        for name in self._merged_names(index, union_path):
            child = vpath.join(union_path, name)
            self._copy_up_tree(child, *self._find(child), cred)

    def _merged_names(self, index: int, union_path: str) -> List[str]:
        """The sorted names visible in the directory ``union_path``, whose
        topmost instance :meth:`_find` put at branch ``index``."""
        names = set()
        hidden = set()
        for i in range(index, len(self.branches)):
            branch = self.branches[i]
            branch_dir = branch.path(union_path)
            node = branch.fs.probe(branch_dir)
            if node is None:
                continue
            if node.kind is not InodeKind.DIR:
                break
            if i > index and self._hidden_by_upper(i, union_path):
                break
            for name in branch.fs.readdir(branch_dir, ROOT_CRED):
                if name.startswith(WHITEOUT_PREFIX):  # the opaque marker too
                    hidden.add(name[len(WHITEOUT_PREFIX) :])
                elif name not in hidden:
                    names.add(name)
            if OPAQUE_MARKER in node.children:
                break
        return sorted(names)

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
        except FileNotFound:
            if not create:
                raise
            target, _ = self._place(path)
            branch = self.writable_branch
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
        if exclusive and create:
            raise FileExists(path)
        if stat.is_dir:
            raise IsADirectory(path)
        if read:
            self._check_access(stat, cred, 0o4)
        if wants_write:
            self._check_access(stat, cred, 0o2)
            if not self.branches[index].writable:
                self._copy_up(path, index, cred)
                index = 0
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
        self._require_writable()
        if self.exists(path, cred):
            if not parents:
                raise FileExists(path)
        elif parents:
            self._writable_dir(path, cred, mode)
        else:
            self._new_dir(*self._writable_dir(vpath.parent(path)), vpath.basename(path), cred, mode)

    def readdir(self, path: str, cred: Credentials) -> List[str]:
        if self._single is not None:
            return self._single.fs.readdir(self._single.path(path), ROOT_CRED)
        index, stat = self._find(path)
        if not stat.is_dir:
            raise NotADirectory(path)
        self._check_access(stat, cred, 0o4)
        return self._merged_names(index, path)

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
        self._mask(path, index)

    def rmdir(self, path: str, cred: Credentials) -> None:
        index, stat = self._find(path)
        if not stat.is_dir:
            raise NotADirectory(path)
        if self._merged_names(index, path):
            raise DirectoryNotEmpty(path)
        self._check_access(stat, cred, 0o2)
        branch = self._require_writable()
        if self.branches[index].writable:
            self._drop_dir(branch, path)
            index += 1
        self._mask(path, index)

    @staticmethod
    def _drop_dir(branch: Branch, union_path: str) -> None:
        """Remove the writable branch's copy of a directory the union shows
        empty: what it still holds are whiteouts and the opaque marker."""
        target = branch.path(union_path)
        for name in branch.fs.readdir(target, ROOT_CRED):
            branch.fs.unlink(vpath.join(target, name), ROOT_CRED)
        branch.fs.rmdir(target, ROOT_CRED)

    def rename(self, old: str, new: str, cred: Credentials) -> None:
        """Rename within the union.

        Implemented as copy-up of the source into the writable branch at the
        new name, then deletion of the old name — the strategy real union
        filesystems use when the source lives in a read-only branch. As
        for :meth:`Filesystem.rename`, :func:`check_rename`'s rules hold
        and the new name may not be a directory the union shows entries
        in, whichever branches hold them. An empty one is replaced, even
        where the writable branch's copy still holds the whiteouts that
        emptied it.
        """
        index, stat = self._find(old)
        self._check_access(stat, cred, 0o2)
        branch = self._require_writable()
        if vpath.normalize(old) == vpath.normalize(new):
            return
        masked = False
        try:
            existing_index, existing = self._find(new)
        except FileNotFound:
            existing_index, existing = -1, None
        check_rename(old, new, stat.kind, existing.kind if existing else None)
        if existing is not None and existing.is_dir:
            if self._merged_names(existing_index, new):
                raise DirectoryNotEmpty(new)
            if existing_index == 0:  # held by the writable branch
                self._drop_dir(branch, new)
                masked = self._held(new, 1)
        if stat.is_file:
            data = self.read_file(old, ROOT_CRED)
            target, _ = self._place(new)
            branch.fs.write_file(target, data, ROOT_CRED, mode=stat.mode)
            branch.fs.chown(target, cred.uid, gid=cred.gid)
            self.unlink(old, cred)
            return
        # Directory rename: materialize the subtree, then move it.
        self._copy_up_tree(old, index, stat, cred)
        target, unmasked = self._place(new)
        branch.fs.rename(branch.path(old), target, ROOT_CRED)
        if masked or unmasked:
            # As for mkdir: a deleted name's lower entries stay hidden.
            branch.fs.write_file(vpath.join(target, OPAQUE_MARKER), b"", ROOT_CRED)
        self._mask(old, 1)

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
