"""Dropbox (paper sections 2.2.I and 7.1 "Securing Dropbox").

The real client stores synced files in a directory on *public* external
storage so other apps can open them — giving up privacy — and auto-syncs
any change back to the server, even unintended ones — giving up integrity.

The Maxoid manifest (declared without changing "app code"):

- the sync directory is a **private directory on external storage**;
- any ``VIEW`` intent (the user clicking a file) is **private**, so the
  opened app becomes Dropbox's delegate.

The app code here reproduces the stock behaviours the case study needs:
fetch-from-server, click-to-open, and the auto-sync loop that uploads any
changed file.
"""

from __future__ import annotations

from typing import Dict, List

from repro.android.app_api import AppApi
from repro.android.intents import Intent, IntentFilter
from repro.apps.base import AppBuild, SimApp
from repro.core.manifest import MaxoidManifest
from repro.kernel import path as vpath

PACKAGE = "com.dropbox.android"
HOST = "dropbox.com"
SYNC_DIR = "Dropbox"  # EXTDIR-relative


class DropboxApp(SimApp):
    """The Dropbox client."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Dropbox",
        maxoid=MaxoidManifest(
            private_ext_dirs=[SYNC_DIR],
            private_filters=[IntentFilter(actions=[Intent.ACTION_VIEW])],
        ),
    )

    def __init__(self) -> None:
        super().__init__()
        # name -> content hash at last sync, for change detection.
        self._synced: Dict[str, bytes] = {}
        self.uploads: List[str] = []

    # ------------------------------------------------------------------

    def sync_down(self, api: AppApi, names: List[str]) -> List[str]:
        """Fetch files from the server into the sync directory."""
        fetched = []
        for name in names:
            data = api.fetch(HOST, name)
            path = api.write_external(f"{SYNC_DIR}/{name}", data)
            self._synced[name] = data
            fetched.append(path)
        return fetched

    def open_file(self, api: AppApi, name: str):
        """The user clicks a file: a VIEW intent, which the Maxoid manifest
        marks private — the viewer starts as Dropbox's delegate."""
        path = vpath.join(api.extdir, SYNC_DIR, name)
        return api.start_activity(Intent(Intent.ACTION_VIEW, extras={"path": path}))

    def auto_sync(self, api: AppApi) -> List[str]:
        """The integrity hazard: upload every changed file, intended or not."""
        uploaded = []
        sync_root = vpath.join(api.extdir, SYNC_DIR)
        if not api.sys.exists(sync_root):
            return uploaded
        for path in api.sys.walk_files(sync_root):
            name = vpath.relative_to(path, sync_root)
            data = api.sys.read_file(path)
            if self._synced.get(name) != data:
                socket = api.connect(HOST)
                socket.send(data)
                socket.close()
                self._synced[name] = data
                uploaded.append(name)
                self.uploads.append(name)
        return uploaded

    def upload_from_tmp(self, api: AppApi, name: str) -> str:
        """The Maxoid commit path (7.1): the user picks the delegate's
        edited version out of EXTDIR/tmp and uploads/commits it."""
        tmp_path = vpath.join(api.extdir, "tmp", SYNC_DIR, name)
        data = api.volatile.read(tmp_path)
        socket = api.connect(HOST)
        socket.send(data)
        socket.close()
        committed = api.volatile.commit(tmp_path)
        self._synced[name] = data
        self.uploads.append(name)
        return committed
