"""The shared COW-backed provider base: one volatile-URI rule for every
system provider (paper 5.1), row URIs keyed on each table's primary key,
and the Downloads insert hook's headers."""

import pytest

from repro import AndroidManifest
from repro.android.content.contacts import CONTACTS_URI
from repro.android.content.downloads import DOWNLOADS_URI
from repro.android.content.media import FILES_URI
from repro.android.content.provider import ContentValues
from repro.android.content.user_dictionary import WORDS_URI
from repro.android.uri import Uri
from repro.errors import SecurityException

A = "com.app.initiator"
B = "com.app.helper"

#: (collection URI, a row the initiator publishes, a row its delegate writes)
PROVIDERS = {
    "user_dictionary": (WORDS_URI, {"word": "public"}, {"word": "volatile"}),
    "contacts": (CONTACTS_URI, {"display_name": "public"}, {"display_name": "volatile"}),
    "media": (
        FILES_URI,
        {"_data": "/storage/sdcard/p.jpg", "media_type": 1, "title": "public"},
        {"_data": "/storage/sdcard/v.jpg", "media_type": 1, "title": "volatile"},
    ),
    "downloads": (
        DOWNLOADS_URI,
        {"title": "public", "_data": "/storage/sdcard/p", "status": 200},
        {"title": "volatile", "_data": "/storage/sdcard/v", "status": 200},
    ),
}


@pytest.fixture
def env(device):
    class Nop:
        def main(self, api, intent):
            return None

    device.install(AndroidManifest(package=A), Nop())
    device.install(AndroidManifest(package=B), Nop())
    return device


@pytest.mark.parametrize("name", sorted(PROVIDERS))
def test_volatile_uri_rule(env, name):
    """A delegate may not use a volatile URI for any operation; an
    initiator's update or delete through one edits only its delta table."""
    uri, public_row, delegate_row = PROVIDERS[name]
    initiator = env.spawn(A)
    delegate = env.spawn(B, initiator=A)
    public_uri = initiator.insert(uri, ContentValues(public_row))
    delegate.insert(uri, ContentValues(delegate_row))
    tmp = uri.to_volatile()

    column = next(iter(public_row))
    changed = ContentValues({column: "changed"})

    for attempt in (
        lambda: delegate.insert(tmp, ContentValues(delegate_row)),
        lambda: delegate.update(tmp, changed),
        lambda: delegate.delete(tmp),
        lambda: delegate.query(tmp),
    ):
        with pytest.raises(SecurityException):
            attempt()

    # The public row's id names no delta row: nothing changes.
    volatile_row_uri = tmp.with_appended_id(public_uri.row_id)
    assert initiator.update(volatile_row_uri, changed) == 0
    assert initiator.delete(volatile_row_uri) == 0
    assert initiator.query(public_uri, projection=[column]).rows == [(public_row[column],)]

    assert initiator.delete(tmp) == 1
    assert len(env.spawn(B).query(uri).rows) == 1
    assert initiator.query(tmp).rows == []
    assert len(delegate.query(uri).rows) == 1


def test_initiator_insert_through_tmp_uri_is_volatile(env):
    initiator = env.spawn(A)
    row_uri = initiator.insert(WORDS_URI.to_volatile(), ContentValues({"word": "w"}))
    assert row_uri.is_volatile
    assert env.spawn(B).query(WORDS_URI).rows == []
    assert len(initiator.query(row_uri).rows) == 1


def test_initiator_volatile_query_honours_projection_where_and_order(env):
    initiator = env.spawn(A)
    delegate = env.spawn(B, initiator=A)
    for word in ("alpha", "skip", "beta"):
        delegate.insert(WORDS_URI, ContentValues({"word": word}))
    result = initiator.query(
        WORDS_URI.to_volatile(),
        projection=["word"],
        where="word <> ?",
        params=["skip"],
        order_by="word DESC",
    )
    assert result.rows == [("beta",), ("alpha",)]


class TestMediaRowUris:
    """Row URIs select on the primary key of the table they name."""

    @pytest.mark.parametrize(
        "segment, column, value",
        [("artists", "artist", "The Kernels"), ("albums", "album", "Mount Points")],
    )
    def test_row_uri_round_trip(self, env, segment, column, value):
        api = env.spawn(A)
        uri = api.insert(Uri.content("media", segment), ContentValues({column: value}))
        assert api.query(uri, projection=[column]).rows == [(value,)]
        assert api.update(uri, ContentValues({column: value + "!"})) == 1
        assert api.query(uri, projection=[column]).rows == [(value + "!",)]
        assert api.delete(uri) == 1
        assert api.query(uri).rows == []

    def test_volatile_row_uri_filters_on_primary_key(self, env):
        initiator = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        artists = Uri.content("media", "artists")
        first = delegate.insert(artists, ContentValues({"artist": "one"}))
        delegate.insert(artists, ContentValues({"artist": "two"}))
        rows = initiator.query(artists.to_volatile().with_appended_id(first.row_id)).rows
        assert [row[1] for row in rows] == ["one"]

    def test_views_refuse_volatile_uris(self, env):
        with pytest.raises(SecurityException):
            env.spawn(A).query(Uri.content("media", "images").to_volatile())


class TestDownloadsHeaders:
    HEADERS = Uri.content("downloads", "headers")

    def test_delegate_request_headers_stay_in_its_volatile_state(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.enqueue_download(
            "https://files.example.com/doc.bin", "doc.bin", headers={"X-K": "v"}
        )
        rows = delegate.query(self.HEADERS, projection=["header", "value"]).rows
        assert rows == [("X-K", "v")]
        assert env.spawn(B).query(self.HEADERS).rows == []

    def test_headers_insert_returns_the_written_row(self, env):
        api = env.spawn(A)
        uri = api.insert(
            self.HEADERS, ContentValues({"download_id": 1, "header": "X-K", "value": "v"})
        )
        assert uri == self.HEADERS.with_appended_id(uri.row_id)
        assert api.query(uri, projection=["header"]).rows == [("X-K",)]

    def test_delegate_may_not_use_isvolatile(self, env):
        delegate = env.spawn(B, initiator=A)
        with pytest.raises(SecurityException):
            delegate.insert(DOWNLOADS_URI, ContentValues({"title": "x"}, is_volatile=True))


def test_device_lists_cow_providers_in_recovery_order(env):
    assert [p.authority for p in env.cow_providers] == [
        "user_dictionary",
        "media",
        "downloads",
        "com.android.contacts",
    ]
