"""The media scanner.

Scans files into the Media provider: extracts metadata (size, title, type
guessed from the extension) and asks the provider to create the record and
its thumbnail. Because the insert travels with the calling process's task
context, a delegate's scan lands in its initiator's volatile state — and
the thumbnail side-artifact follows the record's state (paper section 5.3).
"""

from __future__ import annotations

from repro.android.content.media import (
    FILES_URI,
    MEDIA_TYPE_AUDIO,
    MEDIA_TYPE_IMAGE,
    MEDIA_TYPE_NONE,
    MEDIA_TYPE_VIDEO,
)
from repro.android.content.provider import ContentResolver, ContentValues
from repro.android.uri import Uri
from repro.kernel import path as vpath
from repro.kernel.proc import Process
from repro.kernel.syscall import Syscalls

_EXTENSION_TYPES = {
    "jpg": MEDIA_TYPE_IMAGE,
    "jpeg": MEDIA_TYPE_IMAGE,
    "png": MEDIA_TYPE_IMAGE,
    "gif": MEDIA_TYPE_IMAGE,
    "mp3": MEDIA_TYPE_AUDIO,
    "ogg": MEDIA_TYPE_AUDIO,
    "wav": MEDIA_TYPE_AUDIO,
    "mp4": MEDIA_TYPE_VIDEO,
    "mkv": MEDIA_TYPE_VIDEO,
    "avi": MEDIA_TYPE_VIDEO,
}


def media_type_for(path: str) -> int:
    extension = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    return _EXTENSION_TYPES.get(extension, MEDIA_TYPE_NONE)


class MediaScanner:
    """Scan files into the Media provider on behalf of a process."""

    def __init__(self, resolver: ContentResolver) -> None:
        self._resolver = resolver

    def scan_file(
        self,
        process: Process,
        path: str,
        volatile: bool = False,
        generate_thumbnail: bool = True,
    ) -> Uri:
        """Scan one file; returns the created media URI.

        ``volatile=True`` lets an *initiator* store the metadata in its own
        volatile state (a delegate's scans are volatile automatically).
        """
        sys = Syscalls(process)
        size = sys.stat(path).size if sys.exists(path) else 0
        values = ContentValues(
            {
                "_data": path,
                "media_type": media_type_for(path),
                "title": vpath.basename(path),
                "size": size,
                "generate_thumbnail": generate_thumbnail,
            },
            is_volatile=volatile,
        )
        return self._resolver.insert(process, FILES_URI, values)
