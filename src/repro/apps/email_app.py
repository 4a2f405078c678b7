"""The Email app and its attachment content provider (paper section
2.2.III and 7.1 "Securing Email attachments").

Stock behaviour: attachments live in Email's private internal storage; to
let a viewer open one, Email defines a content provider mapping a content
URI to the attachment file and grants the viewer a one-time per-URI read
permission (``FLAG_GRANT_READ_URI_PERMISSION``). The attack the paper
highlights: the viewer can still *copy* the attachment anywhere.

The Maxoid manifest marks ``VIEW`` intents private, so the viewer runs as
Email's delegate; its copies land in ``Vol(Email)``.

The user may also explicitly SAVE an attachment to external storage plus
a Downloads-provider entry (that path is intentionally public).
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.errors import FileNotFound
from repro.android.app_api import AppApi
from repro.android.content.provider import ContentProvider, ContentValues
from repro.android.intents import Intent, IntentFilter
from repro.android.uri import Uri
from repro.apps.base import AppBuild, SimApp
from repro.core.manifest import MaxoidManifest
from repro.kernel.proc import TaskContext
from repro.minisql.engine import ResultSet

PACKAGE = "com.android.email"
ATTACHMENT_AUTHORITY = "com.android.email.attachmentprovider"


class EmailAttachmentProvider(ContentProvider):
    """App-defined provider: content URI -> attachment bytes.

    The actual file is opened by Email's process and the descriptor is
    passed over Binder; here the provider reads from Email's private files
    directly (it *is* Email's process)."""

    authority = ATTACHMENT_AUTHORITY
    owner = PACKAGE

    def __init__(self, app: "EmailApp") -> None:
        self._app = app

    def open_file(self, uri: Uri, context: TaskContext) -> bytes:
        attachment_id = uri.row_id
        if attachment_id is None or attachment_id not in self._app.attachments:
            raise FileNotFound(str(uri))
        return self._app.attachments[attachment_id][1]

    def query(self, uri, projection, where, params, order_by, context) -> ResultSet:
        rows = [
            (attachment_id, name)
            for attachment_id, (name, _) in sorted(self._app.attachments.items())
        ]
        return ResultSet(columns=["_id", "name"], rows=rows)


class EmailApp(SimApp):
    """The built-in Email client."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Email",
        maxoid=MaxoidManifest(
            private_filters=[
                # VIEW intents are private whether they carry a content/file
                # URI (attachments) or a plain path extra.
                IntentFilter(actions=[Intent.ACTION_VIEW], schemes=["content", "file"]),
                IntentFilter(actions=[Intent.ACTION_VIEW]),
            ],
        ),
    )

    def __init__(self) -> None:
        super().__init__()
        # attachment id -> (name, bytes); the bytes mirror the private file.
        self.attachments: Dict[int, tuple] = {}
        self.provider = EmailAttachmentProvider(self)
        self._id_counter = itertools.count(1)

    def on_install(self, device, installed) -> None:
        """Register the attachment provider when the app is installed."""
        device.register_app_provider(self.provider)

    # ------------------------------------------------------------------

    def receive_attachment(self, api: AppApi, name: str, data: bytes) -> int:
        """An email arrives: store its attachment in private storage."""
        attachment_id = next(self._id_counter)
        api.write_internal(f"attachments/{attachment_id}/{name}", data)
        self.attachments[attachment_id] = (name, data)
        return attachment_id

    def attachment_uri(self, attachment_id: int) -> Uri:
        return Uri.content(ATTACHMENT_AUTHORITY, "attachment").with_appended_id(attachment_id)

    def view_attachment(self, api: AppApi, attachment_id: int):
        """The VIEW button: per-URI grant + private invocation."""
        uri = self.attachment_uri(attachment_id)
        intent = Intent(
            Intent.ACTION_VIEW,
            data=uri,
            flags=Intent.FLAG_GRANT_READ_URI_PERMISSION,
        )
        target = api.device.am.resolve(intent, caller=PACKAGE)
        api.grant_uri_permission(target, uri, one_time=True)
        return api.start_activity(intent)

    def save_attachment(self, api: AppApi, attachment_id: int) -> str:
        """The SAVE button: explicitly public (external storage + a
        Downloads-provider metadata entry)."""
        name, data = self.attachments[attachment_id]
        path = api.write_external(f"Download/{name}", data)
        values = ContentValues({"title": name, "_data": path, "status": 200})
        api.insert(Uri.content("downloads", "all_downloads"), values)
        return path
