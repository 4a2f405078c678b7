"""Google Drive (paper section 2.2.II).

Unlike Dropbox, Drive caches downloads in *private internal storage*, and
makes the cached files world-readable under unguessable random names so an
invoked app can open the one file it was handed, but cannot list the
cache directory. The residual leak the paper points out: the invoked app
can still copy that one file anywhere (Table 1) — which is exactly what
running the viewer as a delegate fixes.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.android.app_api import AppApi
from repro.android.intents import Intent, IntentFilter
from repro.apps.base import AppBuild, SimApp
from repro.core.manifest import MaxoidManifest
from repro.kernel import path as vpath

PACKAGE = "com.google.android.apps.docs"
HOST = "drive.google.com"


class GoogleDriveApp(SimApp):
    """The Drive client."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Google Drive",
        maxoid=MaxoidManifest(
            private_filters=[IntentFilter(actions=[Intent.ACTION_VIEW])],
        ),
    )

    CACHE_DIR = "cache/filecache"

    def __init__(self) -> None:
        super().__init__()
        self._cache_paths: Dict[str, str] = {}

    def _random_name(self, name: str) -> str:
        # Deterministic stand-in for the random cache-file names.
        return hashlib.sha1(name.encode()).hexdigest()[:24]

    def fetch(self, api: AppApi, name: str) -> str:
        """Download a file into the private cache: world-readable file in a
        non-listable directory (mode 0711)."""
        data = api.fetch(HOST, name)
        cache_dir = vpath.join(api.internal_dir, self.CACHE_DIR)
        api.sys.makedirs(cache_dir, mode=0o711)
        path = vpath.join(cache_dir, self._random_name(name))
        api.sys.write_file(path, data, mode=0o644)
        self._cache_paths[name] = path
        return path

    def open_file(self, api: AppApi, name: str):
        """Invoke a viewer on a cached file, disclosing only its path."""
        path = self._cache_paths[name]
        return api.start_activity(Intent(Intent.ACTION_VIEW, extras={"path": path}))
