"""The User Dictionary provider (paper section 5.1, 5.3).

"User Dictionary is purely a passive storage service ... porting is
trivial, though we add new URIs for volatile state." Here the port is its
schema alone: :class:`~repro.android.content.provider.CowProvider` routes
every operation, volatile URIs included, through the COW proxy.

URIs:

- ``content://user_dictionary/words`` — all words
- ``content://user_dictionary/words/<n>`` — the word with ``_id = n``
- ``content://user_dictionary/tmp/words[/<n>]`` — the caller's volatile
  records (initiators only)
"""

from __future__ import annotations

from repro.android.content.provider import CowProvider
from repro.android.uri import Uri
from repro.core.cow import CowProxy

AUTHORITY = "user_dictionary"
WORDS_URI = Uri.content(AUTHORITY, "words")


class UserDictionaryProvider(CowProvider):
    """Word store backed by the COW proxy."""

    authority = AUTHORITY
    routes = {"words": "words"}

    def __init__(self) -> None:
        self.proxy = CowProxy()
        self.proxy.create_table(
            "CREATE TABLE words ("
            "_id INTEGER PRIMARY KEY, "
            "word TEXT NOT NULL, "
            "frequency INTEGER DEFAULT 1, "
            "locale TEXT, "
            "appid INTEGER DEFAULT 0)"
        )
