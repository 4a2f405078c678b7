"""The Downloads provider (paper sections 5.3 and 6.2).

Beyond passive storage, Downloads has background work: it fetches files
from the network and posts completion notifications. The Maxoid port:

- two tables (``downloads`` and ``request_headers``) go through the COW
  proxy; for a delegate's operation the proxy selects the COW views of
  *both* tables;
- the background worker uses the **administrative view** to see public and
  volatile records alike, tracking which state each belongs to;
- an initiator may request a **volatile download** (the ``isVolatile``
  flag): the record lands in its delta table and the fetched file in its
  volatile branch — this is what incognito download is built on (7.1);
- download *requests* from delegates get an emulated network error
  (section 6.2), because a fetch of a delegate-chosen URL could leak the
  initiator's secrets in the URL itself; delegates may still insert or
  update entries that describe existing files. A request's headers land
  in the same state as its record, so a delegate reads back its own.

Routing, row URIs, volatile URIs and the file open come from
:class:`~repro.android.content.provider.CowProvider`; this module holds
the schema, the fetch-request and header shaping of an insert, and the
background worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FileNotFound
from repro.android.content.provider import CowProvider
from repro.android.content.system_io import SystemStorageIO
from repro.android.storage import EXTDIR
from repro.android.uri import Uri
from repro.core.cow import CowProxy
from repro.kernel import path as vpath
from repro.kernel.network import NetworkStack
from repro.kernel.proc import Process, TaskContext

AUTHORITY = "downloads"
DOWNLOADS_URI = Uri.content(AUTHORITY, "all_downloads")

# Android DownloadManager status codes.
STATUS_PENDING = 190
STATUS_RUNNING = 192
STATUS_SUCCESS = 200
STATUS_ERROR_NETWORK = 495


@dataclass
class DownloadNotification:
    """A completion notification: what the status bar would show."""

    download_id: int
    title: str
    transparent_path: str
    state: Optional[str]  # None = public; package = that initiator's Vol

    @property
    def is_volatile(self) -> bool:
        return self.state is not None


class DownloadsProvider(CowProvider):
    """Downloads store + background fetcher."""

    authority = AUTHORITY
    routes = {
        "all_downloads": "downloads",
        "my_downloads": "downloads",
        "downloads": "downloads",
        "headers": "request_headers",
    }

    DEFAULT_DIR = vpath.join(EXTDIR, "Download")

    def __init__(self, network: NetworkStack, io: SystemStorageIO, system_process: Process):
        self.proxy = CowProxy()
        self.proxy.create_table(
            "CREATE TABLE downloads ("
            "_id INTEGER PRIMARY KEY, "
            "uri TEXT, "
            "_data TEXT, "
            "title TEXT, "
            "status INTEGER DEFAULT 190, "
            "total_bytes INTEGER DEFAULT 0)"
        )
        self.proxy.create_table(
            "CREATE TABLE request_headers ("
            "_id INTEGER PRIMARY KEY, "
            "download_id INTEGER, "
            "header TEXT, "
            "value TEXT)"
        )
        self._network = network
        self._io = io
        self._system_process = system_process
        self.notifications: List[DownloadNotification] = []

    def _insert_row(
        self, source: str, record: Dict[str, object], context: TaskContext, volatile: bool
    ) -> int:
        """Shape a fetch request, store the row, then store its request
        headers in the same state."""
        headers = record.pop("headers", None)
        if source == "downloads" and record.get("uri"):
            if "_data" not in record:
                count = len(self.proxy.db.table("downloads"))
                name = str(record.get("title") or f"download-{count + 1}")
                record["_data"] = vpath.join(self.DEFAULT_DIR, name)
            if context.is_delegate:
                # Emulated network failure for a delegate's fetch request;
                # pure metadata rows (no remote URI) are allowed.
                record["status"] = STATUS_ERROR_NETWORK
            else:
                record.setdefault("status", STATUS_PENDING)
        row_id = super()._insert_row(source, record, context, volatile)
        for header, value in dict(headers or {}).items():
            header_row = {"download_id": row_id, "header": header, "value": value}
            super()._insert_row("request_headers", header_row, context, volatile)
        return row_id

    # ------------------------------------------------------------------
    # Background worker
    # ------------------------------------------------------------------

    def run_pending(self) -> int:
        """Fetch every pending download (public and volatile). Returns the
        number of downloads processed. The worker runs in the system
        process, which is never a delegate, so the network is reachable."""
        processed = 0
        for row in self.proxy.admin_rows("downloads"):
            if row["_whiteout"] or row["status"] != STATUS_PENDING:
                continue
            state = CowProxy.state_initiator(str(row["_state"]))
            processed += 1
            self._fetch_one(int(row["_id"]), str(row["uri"]), str(row["_data"]), state)
        return processed

    def _fetch_one(self, row_id: int, url: str, transparent_path: str, state: Optional[str]) -> None:
        self._set_status(row_id, state, STATUS_RUNNING)
        try:
            host, resource = self._split_url(url)
            socket = self._network.connect(self._system_process, host)
            data = socket.fetch(resource)
        except FileNotFound:
            self._set_status(row_id, state, STATUS_ERROR_NETWORK)
            return
        self._io.write(state, transparent_path, data)
        self._set_status(row_id, state, STATUS_SUCCESS, total_bytes=len(data))
        title_result = self._row_value(row_id, state, "title")
        self.notifications.append(
            DownloadNotification(
                download_id=row_id,
                title=str(title_result or ""),
                transparent_path=transparent_path,
                state=state,
            )
        )

    def _set_status(self, row_id: int, state: Optional[str], status: int, total_bytes: Optional[int] = None) -> None:
        assignments: Dict[str, object] = {"status": status}
        if total_bytes is not None:
            assignments["total_bytes"] = total_bytes
        table = "downloads" if state is None else self.proxy.delta_name("downloads", state)
        sets = ", ".join(f"{c} = ?" for c in assignments)
        self.proxy.db.execute(
            f"UPDATE {table} SET {sets} WHERE _id = ?",
            list(assignments.values()) + [row_id],
        )

    def _row_value(self, row_id: int, state: Optional[str], column: str) -> object:
        table = "downloads" if state is None else self.proxy.delta_name("downloads", state)
        return self.proxy.db.execute(
            f"SELECT {column} FROM {table} WHERE _id = ?", [row_id]
        ).scalar()

    # ------------------------------------------------------------------

    @staticmethod
    def _split_url(url: str) -> "tuple[str, str]":
        stripped = url.split("://", 1)[-1]
        host, _, resource = stripped.partition("/")
        return host, resource
