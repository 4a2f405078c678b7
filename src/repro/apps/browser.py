"""The Browser with Maxoid-enhanced incognito mode (paper sections
2.2.IV and 7.1).

Stock incognito keeps no *browsing history*, but a download from an
incognito tab still lands on public external storage and in the public
Downloads provider. The Maxoid enhancement is the paper's one-line change:
downloads from an incognito tab are requested with the volatile flag, so
the file and its Downloads entry live in ``Vol(Browser)`` until cleared.

When the user taps a download-complete notification for an incognito
download, the viewer is started as the Browser's delegate, so the
viewer's traces are volatile too.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.android.app_api import AppApi
from repro.android.content.downloads import DownloadNotification
from repro.android.intents import Intent
from repro.apps.base import AppBuild, SimApp
from repro.core.manifest import MaxoidManifest

PACKAGE = "com.android.browser"


class BrowserApp(SimApp):
    """The built-in Browser."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Browser",
        maxoid=MaxoidManifest(),
    )

    def __init__(self) -> None:
        super().__init__()
        self.history: List[str] = []
        self.incognito_history: List[str] = []  # in-memory only, as in stock

    # ------------------------------------------------------------------

    def browse(self, api: AppApi, host: str, page: str, incognito: bool = False) -> bytes:
        content = api.fetch(host, page)
        if incognito:
            self.incognito_history.append(f"{host}/{page}")
        else:
            self.history.append(f"{host}/{page}")
            api.prefs.append_to_list("history", f"{host}/{page}")
        return content

    def download(
        self, api: AppApi, url: str, title: str, incognito: bool = False
    ) -> int:
        """Request a download. The paper's one-line change: incognito-tab
        downloads go to volatile state."""
        return api.enqueue_download(url, title, volatile=incognito)

    def open_download(self, api: AppApi, notification: DownloadNotification):
        """The user taps the completion notification. For an incognito
        download the opened app becomes the Browser's delegate."""
        intent = Intent(
            Intent.ACTION_VIEW,
            extras={"path": notification.transparent_path},
        )
        if notification.is_volatile:
            intent.add_flag(Intent.FLAG_MAXOID_DELEGATE)
        return api.start_activity(intent)

    def open_url_from_qr(self, api: AppApi, qr_result: Dict[str, Any], incognito: bool = True) -> bytes:
        """Section 2.2.IV's flow: a URL read from a QR scanner, opened in an
        incognito tab."""
        text = str(qr_result.get("text", ""))
        host, _, page = text.partition("/")
        return self.browse(api, host, page, incognito=incognito)
