"""Package management: app manifests, install-time UIDs, intent resolution.

Each installed app gets a dedicated Unix UID (Android's sandboxing basis,
paper section 2.1) and a private directory ``/data/data/<pkg>`` owned by
that UID with mode 0700. Apps declare the intents they handle with intent
filters; implicit intents resolve against those.

The optional ``maxoid`` field carries the app's Maxoid manifest (private
external directories, private-intent filters, section 6.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from repro.errors import PackageNotFound
from repro.android.intents import Intent, IntentFilter
from repro.android.permissions import Permission
from repro.android.storage import StorageLayout
from repro.kernel.vfs import Filesystem, ROOT_CRED
from repro.naming import DATA_ROOT, PPRIV_ROOT

if TYPE_CHECKING:  # avoid a circular import with repro.core.manifest
    from repro.core.manifest import MaxoidManifest


@dataclass
class AndroidManifest:
    """What an APK declares: identity, permissions, handled intents."""

    package: str
    label: str = ""
    permissions: FrozenSet[Permission] = frozenset()
    handles: List[IntentFilter] = field(default_factory=list)
    maxoid: Optional["MaxoidManifest"] = None

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.package.rsplit(".", 1)[-1]
        self.permissions = frozenset(self.permissions)


@dataclass
class InstalledPackage:
    """An installed app: manifest plus its assigned UID and storage layout."""

    manifest: AndroidManifest
    uid: int

    @property
    def package(self) -> str:
        return self.manifest.package

    @property
    def storage(self) -> StorageLayout:
        return StorageLayout(self.manifest.package)

    def has_permission(self, permission: Permission) -> bool:
        return permission in self.manifest.permissions


class PackageManager:
    """Installs packages, allocates UIDs, resolves intents."""

    _FIRST_APP_UID = 10001

    def __init__(self, system_fs: Filesystem) -> None:
        self._system_fs = system_fs
        self._packages: Dict[str, InstalledPackage] = {}
        self._uid_counter = itertools.count(self._FIRST_APP_UID)
        self._system_fs.mkdir(DATA_ROOT, ROOT_CRED, parents=True)
        self._system_fs.mkdir(PPRIV_ROOT, ROOT_CRED, parents=True)

    def install(self, manifest: AndroidManifest) -> InstalledPackage:
        """Install an app: allocate a UID and create its private data dir."""
        if manifest.package in self._packages:
            raise ValueError(f"{manifest.package} is already installed")
        uid = next(self._uid_counter)
        installed = InstalledPackage(manifest=manifest, uid=uid)
        data_dir = installed.storage.internal_dir
        # Android 4.3 creates app data dirs 0751: world-searchable but not
        # listable — the basis of Google Drive's world-readable cache files
        # behind unguessable names (paper section 2.2.II). Files inside are
        # 0600 by default, so private state stays private.
        self._system_fs.mkdir(data_dir, ROOT_CRED, mode=0o751)
        self._system_fs.chown(data_dir, uid)
        self._packages[manifest.package] = installed
        return installed

    def uninstall(self, package: str) -> None:
        self.get(package)  # raises if unknown
        del self._packages[package]

    def get(self, package: str) -> InstalledPackage:
        installed = self._packages.get(package)
        if installed is None:
            raise PackageNotFound(package)
        return installed

    def is_installed(self, package: str) -> bool:
        return package in self._packages

    def all_packages(self) -> List[InstalledPackage]:
        return list(self._packages.values())

    def has_permission(self, package: str, permission: Permission) -> bool:
        return self.get(package).has_permission(permission)

    def resolve_intent(self, intent: Intent, exclude: Optional[str] = None) -> List[str]:
        """Packages whose declared intent filters match ``intent``.

        An explicit component resolves to exactly that package. ``exclude``
        omits the sender (apps do not usually resolve to themselves).
        """
        if intent.component is not None:
            self.get(intent.component)
            return [intent.component]
        matches = []
        for package, installed in self._packages.items():
            if package == exclude:
                continue
            matched = [f for f in installed.manifest.handles if f.matches(intent)]
            if matched:
                matches.append((-max(f.priority for f in matched), package))
        return [package for _, package in sorted(matches)]
