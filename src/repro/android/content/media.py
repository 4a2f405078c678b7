"""The Media provider (paper sections 5.3 and 7.2).

Media demonstrates the COW proxy's *view hierarchy*: a single base table
``files`` stores every media record; ``images``, ``audio_meta`` and
``video`` are SQL views selecting over it; ``audio`` is a view over three
tables/views (``audio_meta`` joined with ``artists`` and ``albums``). The
proxy rewrites each view's bases to COW views per initiator, on demand.

Media also has active work beyond storage: scanning a file creates a
thumbnail. Like Downloads, the modified provider tracks which state each
record belongs to, and puts side artifacts (thumbnails) in the same state
— a *public* scan leaves a public thumbnail on the SD card (one of the
Table 1 traces), a *delegate's* scan leaves it in the initiator's
volatile branch.

Routing, row URIs, volatile URIs and the file open come from
:class:`~repro.android.content.provider.CowProvider`; this module holds
the schema and the thumbnail step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FileNotFound
from repro.android.content.provider import CowProvider
from repro.android.content.system_io import SystemStorageIO
from repro.android.storage import EXTDIR
from repro.android.uri import Uri
from repro.core.cow import CowProxy
from repro.kernel import path as vpath
from repro.kernel.proc import TaskContext

AUTHORITY = "media"
FILES_URI = Uri.content(AUTHORITY, "files")

MEDIA_TYPE_NONE = 0
MEDIA_TYPE_IMAGE = 1
MEDIA_TYPE_AUDIO = 2
MEDIA_TYPE_VIDEO = 3

THUMBNAIL_DIR = vpath.join(EXTDIR, "DCIM", ".thumbnails")


class MediaProvider(CowProvider):
    """Media store with the paper's exact view hierarchy."""

    authority = AUTHORITY
    routes = {
        "files": "files",
        "images": "images",
        "audio_meta": "audio_meta",
        "video": "video",
        "audio": "audio",
        "artists": "artists",
        "albums": "albums",
    }

    def __init__(self, io: SystemStorageIO):
        self.proxy = CowProxy()
        self.proxy.create_table(
            "CREATE TABLE files ("
            "_id INTEGER PRIMARY KEY, "
            "_data TEXT, "
            "media_type INTEGER DEFAULT 0, "
            "title TEXT, "
            "size INTEGER DEFAULT 0, "
            "date_added INTEGER DEFAULT 0, "
            "artist_id INTEGER, "
            "album_id INTEGER)"
        )
        self.proxy.create_table(
            "CREATE TABLE artists (artist_id INTEGER PRIMARY KEY, artist TEXT)"
        )
        self.proxy.create_table(
            "CREATE TABLE albums (album_id INTEGER PRIMARY KEY, album TEXT)"
        )
        self.proxy.create_user_view(
            "images",
            "SELECT _id, _data, title, size, date_added FROM files WHERE media_type = 1",
        )
        self.proxy.create_user_view(
            "audio_meta",
            "SELECT _id, _data, title, size, artist_id, album_id FROM files "
            "WHERE media_type = 2",
        )
        self.proxy.create_user_view(
            "video",
            "SELECT _id, _data, title, size, date_added FROM files WHERE media_type = 3",
        )
        # "audio is a view defined on three tables/views, including
        # audio_meta" (paper 5.3).
        self.proxy.create_user_view(
            "audio",
            "SELECT am._id, am._data, am.title, ar.artist, al.album "
            "FROM audio_meta am, artists ar, albums al "
            "WHERE am.artist_id = ar.artist_id AND am.album_id = al.album_id",
        )
        self._io = io
        self.thumbnails_created: List[str] = []

    def _insert_row(
        self, source: str, record: Dict[str, object], context: TaskContext, volatile: bool
    ) -> int:
        """Store the row, then thumbnail a scanned file when asked to."""
        generate_thumbnail = bool(record.pop("generate_thumbnail", False))
        row_id = super()._insert_row(source, record, context, volatile)
        if source == "files" and generate_thumbnail and record.get("_data"):
            state = context.app if volatile else self.initiator_of(context)
            self._create_thumbnail(state, str(record["_data"]))
        return row_id

    def _create_thumbnail(self, state: Optional[str], data_path: str) -> None:
        """Write the thumbnail in the same state as its record."""
        name = vpath.basename(data_path) + ".thumb"
        thumb_path = vpath.join(THUMBNAIL_DIR, name)
        try:
            content = self._io.read(state, data_path)
        except FileNotFound:
            # The media file may live in the caller's private view (e.g. a
            # delegate scanning an initiator-private file); thumbnail the
            # name only.
            content = b""
        thumbnail = b"THUMB:" + content[:16]
        self._io.write(state, thumb_path, thumbnail)
        self.thumbnails_created.append(thumb_path)
