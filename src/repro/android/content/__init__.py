"""Content providers: the framework, the COW-backed provider base, the
three system providers the paper ports to the COW proxy (User Dictionary,
Downloads, Media) and Contacts, ported the same way."""

from repro.android.content.provider import (
    ContentProvider,
    ContentResolver,
    ContentValues,
    CowProvider,
    UriPermissionGrants,
)
from repro.android.content.user_dictionary import UserDictionaryProvider
from repro.android.content.downloads import DownloadsProvider
from repro.android.content.media import MediaProvider
from repro.android.content.contacts import ContactsProvider

__all__ = [
    "ContentProvider",
    "ContentResolver",
    "ContentValues",
    "CowProvider",
    "UriPermissionGrants",
    "UserDictionaryProvider",
    "DownloadsProvider",
    "MediaProvider",
    "ContactsProvider",
]
