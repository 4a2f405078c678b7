"""Per-process mount namespaces.

Maxoid gives every app process a private mount namespace (``unshare()`` in
Zygote, paper section 4.2) and mounts different Aufs trees at the same
mount points for different app instances — that is how two processes can
open the *same path* and see *different state*.

A :class:`MountNamespace` is an ordered table of mount points. Path
resolution picks the mount with the longest matching prefix, so a mount at
``/storage/sdcard/data/A`` correctly shadows the mount at
``/storage/sdcard`` (exactly the nesting Table 2 of the paper relies on).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.boundary import boundary
from repro.errors import FileNotFound
from repro.kernel import path as vpath
from repro.kernel.vfs import Filesystem, FilesystemAPI
from repro.obs import OBS as _OBS
from repro.sched import SCHED as _SCHED
from repro.sched.locks import RWLock


class MountNamespace:
    """A table mapping mount points to filesystems.

    The namespace always has a root filesystem mounted at ``/``.
    """

    def __init__(
        self, root_fs: Optional[FilesystemAPI] = None, obs: Optional[Any] = None
    ) -> None:
        self._mounts: Dict[str, FilesystemAPI] = {}
        self._mounts["/"] = root_fs if root_fs is not None else Filesystem(label="rootfs")
        # One mount-infrastructure lock shared with every unshare() clone:
        # the kernel serializes mount-table surgery globally, and sharing
        # the object keeps the lock-order graph to one "ns" node.
        self.rwlock = RWLock("ns")
        # The owning device's observability context; unshare() clones
        # inherit it, so every namespace in a device shares one registry.
        self.obs = obs if obs is not None else _OBS

    # ------------------------------------------------------------------

    def mount(self, point: str, fs: FilesystemAPI) -> None:
        """Mount ``fs`` at ``point``, shadowing any prior mount there."""
        if _SCHED.enabled:
            with self.rwlock.write():
                _SCHED.yield_point(
                    "mounts.mount", mount_point=point, resource="mount-table", rw="w"
                )
                self._mounts[vpath.normalize(point)] = fs
            return
        self._mounts[vpath.normalize(point)] = fs

    def umount(self, point: str) -> None:
        point = vpath.normalize(point)
        if point == "/":
            raise ValueError("cannot unmount the root filesystem")
        if _SCHED.enabled:
            with self.rwlock.write():
                _SCHED.yield_point(
                    "mounts.umount", mount_point=point, resource="mount-table", rw="w"
                )
                if point not in self._mounts:
                    raise FileNotFound(f"not a mount point: {point}")
                del self._mounts[point]
            return
        if point not in self._mounts:
            raise FileNotFound(f"not a mount point: {point}")
        del self._mounts[point]

    def unshare(self) -> "MountNamespace":
        """Clone this namespace (the simulated ``unshare(CLONE_NEWNS)``).

        The clone shares the underlying filesystems but has its own mount
        table, so later mounts in the clone are invisible to the parent.
        """
        clone = MountNamespace.__new__(MountNamespace)
        clone._mounts = dict(self._mounts)
        clone.rwlock = self.rwlock
        clone.obs = self.obs
        return clone

    # ------------------------------------------------------------------

    @boundary(
        "mounts.resolve",
        span=False,
        count="mounts.resolve",
        fault=lambda self, path: {"path": path},
    )
    def resolve(self, path: str) -> Tuple[FilesystemAPI, str]:
        """Resolve ``path`` to ``(filesystem, path-within-filesystem)``.

        Chooses the mount point with the longest prefix match.
        """
        if _SCHED.enabled:
            with self.rwlock.read():
                return self._resolve_locked(path)
        return self._resolve_locked(path)

    def _resolve_locked(self, path: str) -> Tuple[FilesystemAPI, str]:
        path = vpath.normalize(path)
        point = self._mount_point(path)
        inner = path if point == "/" else path[len(point) :] or "/"
        return self._mounts[point], inner

    def _mount_point(self, path: str) -> str:
        """The longest mount point that is ``path`` or one of its ancestors.

        ``path`` must be canonical; walking its ancestors up to ``/`` (always
        mounted) finds the match in one dict probe per component.
        """
        point = path
        while point not in self._mounts:
            point = point.rpartition("/")[0] or "/"
        return point

    def mount_for(self, path: str) -> Tuple[str, FilesystemAPI]:
        """Return ``(mount_point, filesystem)`` covering ``path``."""
        point = self._mount_point(vpath.normalize(path))
        return point, self._mounts[point]

    def mount_points(self) -> List[str]:
        """All mount points, sorted (``/`` first)."""
        return sorted(self._mounts)

    def mount_table(self) -> Dict[str, FilesystemAPI]:
        """A copy of the mount table for inspection (Table 2 benchmarks)."""
        return dict(self._mounts)
