"""The Contacts provider — a fourth COW-proxy port (extension).

The paper ports three system content providers (User Dictionary,
Downloads, Media) and lists Contacts among the shared resources that are
"potentially sources of serious data leaks" (section 5.1). This module
ports Contacts the same way: its schema on
:class:`~repro.android.content.provider.CowProvider`, with no code of its
own beyond a convenience insert. It shows the proxy's generality on a
provider with a two-table schema plus a provider-defined join view:

- ``contacts`` — one row per person;
- ``phones`` — phone numbers, many per contact;
- ``contact_details`` — a provider-defined SQL view joining the two
  (so the COW hierarchy machinery is exercised, like Media's ``audio``).

Semantics under Maxoid confinement come for free from the proxy: a
delegate that "adds a contact" (say, a messaging app invoked on a shared
photo) writes a volatile record the initiator can commit or discard; a
delegate that scrapes the contact list sees only Pub(all) plus its own
volatile rows and cannot exfiltrate them (no network).
"""

from __future__ import annotations

from repro.android.content.provider import ContentValues, CowProvider
from repro.android.uri import Uri
from repro.core.cow import CowProxy

AUTHORITY = "com.android.contacts"
CONTACTS_URI = Uri.content(AUTHORITY, "contacts")
PHONES_URI = Uri.content(AUTHORITY, "phones")
DETAILS_URI = Uri.content(AUTHORITY, "contact_details")


class ContactsProvider(CowProvider):
    """Contacts store backed by the COW proxy."""

    authority = AUTHORITY
    routes = {
        "contacts": "contacts",
        "phones": "phones",
        "contact_details": "contact_details",
    }

    def __init__(self) -> None:
        self.proxy = CowProxy()
        self.proxy.create_table(
            "CREATE TABLE contacts ("
            "_id INTEGER PRIMARY KEY, "
            "display_name TEXT NOT NULL, "
            "starred INTEGER DEFAULT 0, "
            "times_contacted INTEGER DEFAULT 0)"
        )
        self.proxy.create_table(
            "CREATE TABLE phones ("
            "_id INTEGER PRIMARY KEY, "
            "contact_id INTEGER, "
            "number TEXT, "
            "label TEXT DEFAULT 'mobile')"
        )
        self.proxy.create_user_view(
            "contact_details",
            "SELECT c._id, c.display_name, p.number, p.label "
            "FROM contacts c, phones p WHERE p.contact_id = c._id",
        )

    # -- convenience for apps ------------------------------------------------

    def add_contact(self, resolver, process, name: str, number: str) -> int:
        """Insert a contact plus one phone number; returns the contact id."""
        contact_uri = resolver.insert(process, CONTACTS_URI, ContentValues({"display_name": name}))
        contact_id = int(contact_uri.to_normal().row_id or 0)
        resolver.insert(
            process, PHONES_URI, ContentValues({"contact_id": contact_id, "number": number})
        )
        return contact_id
