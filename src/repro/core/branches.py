"""The Aufs branch manager (paper section 4.2, Figure 3).

Lives in Zygote in the real system: when a new app process is forked, the
branch manager selects the relevant branches and mounts Aufs in the
process's private mount namespace. Here it owns the backing filesystems
for every branch kind and materializes the symbolic plans computed by
:mod:`repro.core.views`.

It also implements the state-lifecycle rules:

- ``nPriv(B^A)`` is discarded and re-forked when ``Priv(B)`` diverged since
  the fork (section 3.2) — divergence is detected with a version stamp of
  ``Priv(B)``'s tree;
- ``Vol(A)`` and ``Priv(x^A)`` can be cleared (the Launcher drop targets,
  section 6.3);
- volatile file state can be enumerated and committed by the initiator
  (section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.android.storage import DATA_ROOT
from repro.core.context import delegate_key
from repro.core.cow import initiator_key
from repro.core.views import BranchSpec, MountPlan
from repro.kernel import path as vpath
from repro.kernel.aufs import AufsMount, Branch, purge_copyup_temps
from repro.kernel.mounts import MountNamespace
from repro.kernel.vfs import Filesystem, ROOT_CRED


class BranchManager:
    """Owns branch backing stores and builds app mount namespaces."""

    def __init__(self, system_fs: Filesystem, obs: Optional[object] = None) -> None:
        self.system_fs = system_fs
        # Mounts built by this manager report into the owning device's
        # observability context (None keeps the process-global default).
        self.obs = obs
        self.pub_fs = Filesystem(label="ext-public")
        # External storage is world-accessible in Android (FAT semantics);
        # the fuse layer makes everything rwx for every app.
        self.pub_fs.root.mode = 0o777
        self.extpriv_fs = Filesystem(label="ext-private")
        self.vol_fs = Filesystem(label="volatile")
        self.deleg_fs = Filesystem(label="delegate-private")
        self.ppriv_fs = Filesystem(label="persistent-private")
        # (delegate package, initiator package) -> Priv(B) version at fork.
        self._fork_stamps: Dict[Tuple[str, str], int] = {}
        # Mounts built this session, for statistics.
        self.mounts_built = 0

    # ------------------------------------------------------------------
    # Backing-store helpers
    # ------------------------------------------------------------------

    def _fs_for_kind(self, kind: str) -> Filesystem:
        return {
            "pub": self.pub_fs,
            "extpriv": self.extpriv_fs,
            "vol_ext": self.vol_fs,
            "vol_int": self.vol_fs,
            "deleg_int": self.deleg_fs,
            "deleg_extpriv": self.deleg_fs,
            "ppriv": self.ppriv_fs,
            "system_priv": self.system_fs,
        }[kind]

    @staticmethod
    def _dirkey(segment: str) -> str:
        """Sanitize a package or ``B@A`` pair for use as a directory name.

        Uses the same sanitization as the COW proxy's delta-table names so
        a record's ``_state`` tag and its volatile file branch agree."""
        if "@" in segment:
            app, _, initiator = segment.partition("@")
            return f"{initiator_key(app)}@{initiator_key(initiator)}"
        return initiator_key(segment)

    def _branch(self, spec: BranchSpec) -> Branch:
        fs = self._fs_for_kind(spec.kind)
        if spec.kind in ("vol_ext", "vol_int"):
            # The subpath is "<initiator>[/relative/dir]": the branch root is
            # the initiator's ext/int volatile tree plus the relative part,
            # so a write to EXTDIR/data/A lands at /<A>/ext/data/A.
            area = "ext" if spec.kind == "vol_ext" else "int"
            initiator, _, rest = spec.subpath.strip("/").partition("/")
            root = vpath.join("/", self._dirkey(initiator), area, rest)
        elif spec.kind == "system_priv":
            root = vpath.join(DATA_ROOT, spec.subpath)
        elif spec.kind == "pub":
            root = vpath.normalize(spec.subpath)
        elif spec.kind == "deleg_int":
            # The subpath is the "B@A" pair; its nPriv overlay lives in the
            # pair's "int" area (sibling of its external-private area).
            root = vpath.join("/", self._dirkey(spec.subpath), "int")
        elif spec.kind == "deleg_extpriv":
            pair, _, rest = spec.subpath.strip("/").partition("/")
            root = vpath.join("/", self._dirkey(pair), "extpriv", rest)
        elif spec.kind == "extpriv":
            # "<package>/<private-dir...>": one branch per app private dir.
            package, _, rest = spec.subpath.strip("/").partition("/")
            root = vpath.join("/", self._dirkey(package), rest)
        else:  # ppriv: one directory per (delegate, initiator) pair
            root = vpath.join("/", self._dirkey(spec.subpath))
        if not fs.exists(root, ROOT_CRED):
            fs.mkdir(root, ROOT_CRED, parents=True)
        return Branch(fs=fs, root=root, writable=spec.writable, label=spec.label)

    # ------------------------------------------------------------------
    # Namespace assembly
    # ------------------------------------------------------------------

    def materialize(self, base: MountNamespace, plans: List[MountPlan]) -> MountNamespace:
        """Clone ``base`` (the simulated ``unshare()``) and apply ``plans``."""
        namespace = base.unshare()
        for plan in plans:
            mount = AufsMount(
                [self._branch(spec) for spec in plan.branches],
                always_allow_read=plan.always_allow_read,
                label=plan.mountpoint,
                obs=self.obs,
            )
            namespace.mount(plan.mountpoint, mount)
            self.mounts_built += 1
        return namespace

    # ------------------------------------------------------------------
    # nPriv lifecycle (paper 3.2)
    # ------------------------------------------------------------------

    def priv_version(self, package: str) -> int:
        """A version stamp for ``Priv(B)``: the max mtime in its tree."""
        root = vpath.join(DATA_ROOT, package)
        if not self.system_fs.exists(root, ROOT_CRED):
            return 0
        newest = self.system_fs.stat(root, ROOT_CRED).mtime
        stack = [root]
        while stack:
            current = stack.pop()
            for name in self.system_fs.readdir(current, ROOT_CRED):
                child = vpath.join(current, name)
                stat = self.system_fs.stat(child, ROOT_CRED)
                newest = max(newest, stat.mtime)
                if stat.is_dir:
                    stack.append(child)
        return newest

    def prepare_delegate_priv(self, package: str, initiator: str) -> bool:
        """Apply the re-fork rule before ``B^A`` starts.

        If ``Priv(B)`` changed since ``nPriv(B^A)`` was forked, the old
        writable branch is discarded (option 1 of section 3.2). Returns
        True when a discard happened.
        """
        key = (package, initiator)
        current = self.priv_version(package)
        stamp = self._fork_stamps.get(key)
        discarded = False
        pair_root = vpath.join("/", self._dirkey(delegate_key(package, initiator)))
        branch_root = vpath.join(pair_root, "int")
        if stamp is not None and stamp != current:
            # nPriv(B^A) covers both the internal overlay and the
            # delegate's external-private overlay; pPriv survives.
            self._clear_tree(self.deleg_fs, branch_root)
            self._clear_tree(self.deleg_fs, vpath.join(pair_root, "extpriv"))
            discarded = True
        self._fork_stamps[key] = current
        if not self.deleg_fs.exists(branch_root, ROOT_CRED):
            self.deleg_fs.mkdir(branch_root, ROOT_CRED, parents=True)
        return discarded

    # ------------------------------------------------------------------
    # Volatile state (paper 3.3, 6.3)
    # ------------------------------------------------------------------

    def volatile_ext_root(self, initiator: str) -> str:
        """Root of Vol(initiator)'s external-storage area in vol_fs."""
        return vpath.join("/", self._dirkey(initiator), "ext")

    def volatile_int_root(self, initiator: str) -> str:
        """Root of Vol(initiator)'s internal-storage area in vol_fs."""
        return vpath.join("/", self._dirkey(initiator), "int")

    def list_volatile_files(self, initiator: str) -> List[str]:
        """All file paths currently in ``Vol(initiator)`` (ext + int),
        returned relative to their volatile root."""
        found: List[str] = []
        for root, prefix in (
            (self.volatile_ext_root(initiator), "ext"),
            (self.volatile_int_root(initiator), "int"),
        ):
            if not self.vol_fs.exists(root, ROOT_CRED):
                continue
            stack = [root]
            while stack:
                current = stack.pop()
                for name in self.vol_fs.readdir(current, ROOT_CRED):
                    child = vpath.join(current, name)
                    if self.vol_fs.stat(child, ROOT_CRED).is_dir:
                        stack.append(child)
                    else:
                        found.append(
                            vpath.join("/", prefix, vpath.relative_to(child, root))
                        )
        return sorted(found)

    def clear_volatile(self, initiator: str) -> int:
        """Discard ``Vol(initiator)`` entirely; returns files removed.
        (The Launcher's Clear-Vol drop target and the initiator API.)"""
        removed = len(self.list_volatile_files(initiator))
        for root in (self.volatile_ext_root(initiator), self.volatile_int_root(initiator)):
            self._clear_tree(self.vol_fs, root)
        return removed

    def clear_delegate_priv(self, initiator: str) -> int:
        """Discard ``Priv(x^initiator)`` for every app x — both the nPriv
        overlay branches and the pPriv branches (Clear-Priv drop target)."""
        suffix = "@" + initiator_key(initiator)
        cleared = 0
        for fs in (self.deleg_fs, self.ppriv_fs):
            for name in list(fs.readdir("/", ROOT_CRED)):
                if name.endswith(suffix):
                    self._clear_tree(fs, vpath.join("/", name))
                    fs.rmdir(vpath.join("/", name), ROOT_CRED)
                    cleared += 1
        keys = [k for k in self._fork_stamps if k[1] == initiator]
        for key in keys:
            del self._fork_stamps[key]
        return cleared

    def purge_copyup_temps(self) -> List[str]:
        """Remove crash-orphaned copy-up staging files from every branch
        backing store (``Device.recover()`` step). Returns removed paths."""
        removed: List[str] = []
        for fs in (
            self.pub_fs,
            self.extpriv_fs,
            self.vol_fs,
            self.deleg_fs,
            self.ppriv_fs,
            self.system_fs,
        ):
            removed.extend(purge_copyup_temps(fs))
        return removed

    @staticmethod
    def _clear_tree(fs: Filesystem, root: str) -> None:
        if not fs.exists(root, ROOT_CRED):
            return
        for name in list(fs.readdir(root, ROOT_CRED)):
            child = vpath.join(root, name)
            if fs.stat(child, ROOT_CRED).is_dir:
                BranchManager._clear_tree(fs, child)
                fs.rmdir(child, ROOT_CRED)
            else:
                fs.unlink(child, ROOT_CRED)
