"""The DownloadManager client API (paper section 7.1).

A thin wrapper over the Downloads provider, like Android's. Maxoid extends
it with one parameter: a requested download may be stored in the caller's
**volatile state** instead of public state — the one-line change that gives
Browser incognito downloads.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.android.content.downloads import DOWNLOADS_URI, STATUS_SUCCESS
from repro.android.content.provider import ContentResolver, ContentValues
from repro.android.uri import Uri
from repro.boundary import boundary
from repro.kernel.proc import Process
from repro.obs import OBS as _OBS


def _enqueue_attrs(self, process, url, title, destination=None, volatile=False, headers=None):
    return {"pid": process.pid, "volatile": volatile}


class DownloadManager:
    """Enqueue and query downloads on behalf of an app process."""

    def __init__(self, resolver: ContentResolver, obs: Optional[Any] = None) -> None:
        self._resolver = resolver
        # The owning device's observability context.
        self.obs = obs if obs is not None else _OBS

    @boundary(
        "dm.enqueue",
        attrs=_enqueue_attrs,
        count="dm.enqueues",
        fault=lambda self, process, url, *_, **__: {
            "context": str(process.context), "url": url
        },
        sched=lambda self, process, url, *_, **__: {
            "url": url, "resource": "downloads-table", "rw": "w"
        },
    )
    def enqueue(
        self,
        process: Process,
        url: str,
        title: str,
        destination: Optional[str] = None,
        volatile: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> int:
        """Request a download; returns the download id.

        ``volatile=True`` is the Maxoid extension: the download record and
        file land in the caller's volatile state (incognito mode).
        """
        values = ContentValues(
            {"uri": url, "title": title},
            is_volatile=volatile,
        )
        if destination is not None:
            values.put("_data", destination)
        if headers:
            values.put("headers", dict(headers))
        row_uri = self._resolver.insert(process, DOWNLOADS_URI, values)
        return int(row_uri.to_normal().row_id or 0)

    def status(self, process: Process, download_id: int, volatile: bool = False) -> Optional[int]:
        uri = DOWNLOADS_URI.with_appended_id(download_id)
        if volatile:
            uri = uri.to_volatile()
        result = self._resolver.query(process, uri, projection=["status"])
        if not result.rows:
            return None
        index = [c.lower() for c in result.columns].index("status")
        return int(result.rows[0][index])

    def succeeded(self, process: Process, download_id: int, volatile: bool = False) -> bool:
        return self.status(process, download_id, volatile=volatile) == STATUS_SUCCESS

    def open_downloaded_file(self, process: Process, download_id: int) -> bytes:
        return self._resolver.open_input(
            process, DOWNLOADS_URI.with_appended_id(download_id)
        )
