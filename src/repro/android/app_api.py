"""The API surface an app's code programs against.

Bundles, for one app process, everything a simulated app touches: file
syscalls (through its own mount namespace — this is where Maxoid's view
switching is transparent), shared preferences, private databases, content
resolver operations, the network, intents, the clipboard, and the Maxoid
delegate/initiator APIs (section 6.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.android.intents import Intent
from repro.android.storage import (
    EXTDIR,
    PrivateDatabase,
    SharedPreferences,
    StorageLayout,
)
from repro.android.uri import Uri
from repro.core.context import MaxoidContextApi
from repro.core.ppriv import PersistentPrivateState
from repro.core.volatile import MAXOID_SERVICE, VolatileFiles
from repro.kernel import path as vpath
from repro.kernel.proc import Process
from repro.kernel.syscall import Syscalls


class AppApi:
    """Everything one app process can do, bound to its identity."""

    def __init__(self, device: Any, process: Process) -> None:
        self.device = device
        self.process = process
        self.sys = Syscalls(process)
        self.package: str = process.context.app or ""
        self.storage = StorageLayout(self.package)
        self.maxoid = MaxoidContextApi(process)
        self.ppriv = PersistentPrivateState(process)

    # -- identity ----------------------------------------------------------

    @property
    def is_delegate(self) -> bool:
        return self.process.context.is_delegate

    @property
    def extdir(self) -> str:
        return EXTDIR

    @property
    def internal_dir(self) -> str:
        return self.storage.internal_dir

    # -- private state -------------------------------------------------------

    @property
    def prefs(self) -> SharedPreferences:
        return SharedPreferences(self.sys, self.storage.shared_prefs_path)

    def db(self, name: str) -> PrivateDatabase:
        """Open (or create) an app-private database in internal storage."""
        return PrivateDatabase(self.sys, self.storage.database_path(name))

    # -- volatile state (initiator API 3, section 6.1) -----------------------

    @property
    def volatile(self) -> VolatileFiles:
        return VolatileFiles(self.process, self.device.commit_journal)

    def clear_my_volatile(self) -> int:
        """Discard Vol(self) via the Maxoid system service."""
        return self.device.binder.transact(
            self.process, MAXOID_SERVICE, "clear_volatile", {}
        )

    def clear_my_delegate_priv(self) -> int:
        return self.device.binder.transact(
            self.process, MAXOID_SERVICE, "clear_delegate_priv", {}
        )

    # -- content providers -----------------------------------------------------

    def insert(self, uri: Uri, values) -> Uri:
        return self.device.resolver.insert(self.process, uri, values)

    def update(self, uri: Uri, values, where: Optional[str] = None, params: Sequence[object] = ()) -> int:
        return self.device.resolver.update(self.process, uri, values, where, params)

    def delete(self, uri: Uri, where: Optional[str] = None, params: Sequence[object] = ()) -> int:
        return self.device.resolver.delete(self.process, uri, where, params)

    def query(self, uri: Uri, **kwargs):
        return self.device.resolver.query(self.process, uri, **kwargs)

    def open_input(self, uri: Uri) -> bytes:
        return self.device.resolver.open_input(self.process, uri)

    def grant_uri_permission(self, grantee: str, uri: Uri, one_time: bool = True) -> None:
        self.device.resolver.grants.grant(grantee, uri, one_time=one_time)

    # -- network ------------------------------------------------------------

    def connect(self, host: str, port: int = 443):
        """Open a socket; ENETUNREACH when running as a delegate."""
        return self.device.network.connect(self.process, host, port)

    def fetch(self, host: str, resource: str) -> bytes:
        socket = self.connect(host)
        try:
            return socket.fetch(resource)
        finally:
            socket.close()

    # -- intents ------------------------------------------------------------

    def start_activity(self, intent: Intent):
        """Invoke another app; returns its result (the Invocation record)."""
        return self.device.am.start_activity(self.process, intent)

    def send_broadcast(self, intent: Intent) -> int:
        return self.device.am.send_broadcast(self.process, intent)

    # -- services -----------------------------------------------------------

    def clipboard_set(self, text: str) -> None:
        self.device.clipboard.set_text(self.process, text)

    def clipboard_get(self) -> Optional[str]:
        return self.device.clipboard.get_text(self.process)

    def enqueue_download(
        self,
        url: str,
        title: str,
        destination: Optional[str] = None,
        volatile: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> int:
        return self.device.download_manager.enqueue(
            self.process, url, title, destination=destination, volatile=volatile, headers=headers
        )

    def scan_media(self, path: str, volatile: bool = False) -> Uri:
        return self.device.media_scanner.scan_file(self.process, path, volatile=volatile)

    def send_sms(self, number: str, body: str) -> None:
        self.device.telephony.send_sms(self.process, number, body)

    def bluetooth_send(self, device_name: str, payload: bytes) -> None:
        self.device.bluetooth.send(self.process, device_name, payload)

    # -- file helpers (external storage is world-accessible) -----------------

    def write_external(self, relative_path: str, data: bytes) -> str:
        """Write a file on external storage (mode 0666, like the FAT/fuse
        semantics of a real SD card)."""
        path = vpath.join(EXTDIR, relative_path)
        self.sys.makedirs(vpath.parent(path), mode=0o777)
        self.sys.write_file(path, data, mode=0o666)
        return path

    def read_external(self, relative_path: str) -> bytes:
        return self.sys.read_file(vpath.join(EXTDIR, relative_path))

    def write_internal(self, relative_path: str, data: bytes, mode: int = 0o600) -> str:
        path = vpath.join(self.internal_dir, relative_path)
        self.sys.makedirs(vpath.parent(path))
        self.sys.write_file(path, data, mode=mode)
        return path

    def read_internal(self, relative_path: str) -> bytes:
        return self.sys.read_file(vpath.join(self.internal_dir, relative_path))
