"""User Dictionary provider tests (paper section 5.1)."""

import pytest

from repro.errors import SecurityException
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro import AndroidManifest

WORDS = Uri.content("user_dictionary", "words")
A = "com.app.alpha"
B = "com.app.beta"


@pytest.fixture
def env(device):
    class Nop:
        def main(self, api, intent):
            return None

    device.install(AndroidManifest(package=A), Nop())
    device.install(AndroidManifest(package=B), Nop())
    return device


def words_of(api, uri=WORDS):
    result = api.query(uri, projection=["word"], order_by="_id")
    return [row[0] for row in result.rows]


class TestPublicOperations:
    def test_insert_returns_row_uri(self, env):
        api = env.spawn(A)
        uri = api.insert(WORDS, ContentValues({"word": "hello"}))
        assert uri.authority == "user_dictionary"
        assert uri.row_id == 1

    def test_public_words_visible_to_everyone(self, env):
        a = env.spawn(A)
        a.insert(WORDS, ContentValues({"word": "shared"}))
        b = env.spawn(B)
        assert words_of(b) == ["shared"]

    def test_update_by_row_uri(self, env):
        a = env.spawn(A)
        uri = a.insert(WORDS, ContentValues({"word": "old"}))
        a.update(uri, ContentValues({"word": "new"}))
        assert words_of(a) == ["new"]

    def test_delete(self, env):
        a = env.spawn(A)
        uri = a.insert(WORDS, ContentValues({"word": "bye"}))
        assert a.delete(uri) == 1
        assert words_of(a) == []

    def test_query_single_row_uri(self, env):
        a = env.spawn(A)
        a.insert(WORDS, ContentValues({"word": "one"}))
        uri = a.insert(WORDS, ContentValues({"word": "two"}))
        assert words_of(a, uri) == ["two"]


class TestDelegateConfinement:
    def test_delegate_reads_public_words(self, env):
        env.spawn(A).insert(WORDS, ContentValues({"word": "public"}))
        delegate = env.spawn(B, initiator=A)
        assert words_of(delegate) == ["public"]

    def test_delegate_insert_is_volatile(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "volatile"}))
        # The delegate reads its write...
        assert words_of(delegate) == ["volatile"]
        # ...but the public view is untouched.
        assert words_of(env.spawn(B)) == []

    def test_delegate_update_copies_on_write(self, env):
        a = env.spawn(A)
        uri = a.insert(WORDS, ContentValues({"word": "original"}))
        delegate = env.spawn(B, initiator=A)
        delegate.update(uri, ContentValues({"word": "changed"}))
        assert words_of(delegate) == ["changed"]
        assert words_of(a) == ["original"]

    def test_delegate_delete_is_whiteout(self, env):
        a = env.spawn(A)
        uri = a.insert(WORDS, ContentValues({"word": "keepme"}))
        delegate = env.spawn(B, initiator=A)
        delegate.delete(uri)
        assert words_of(delegate) == []
        assert words_of(a) == ["keepme"]

    def test_delegates_of_same_initiator_share_vol(self, env):
        first = env.spawn(B, initiator=A)
        first.insert(WORDS, ContentValues({"word": "shared-vol"}))
        second = env.spawn(B, initiator=A)
        assert words_of(second) == ["shared-vol"]

    def test_delegates_of_different_initiators_isolated(self, env):
        delegate_for_a = env.spawn(B, initiator=A)
        delegate_for_a.insert(WORDS, ContentValues({"word": "for-a"}))
        delegate_for_b = env.spawn(A, initiator=B)
        assert words_of(delegate_for_b) == []

    def test_delegate_sees_later_initiator_updates_until_cow(self, env):
        """Update visibility (U2): the shared copy tracks public inserts
        until the delegate writes that row."""
        a = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        a.insert(WORDS, ContentValues({"word": "late"}))
        assert words_of(delegate) == ["late"]

    def test_delegate_cannot_use_volatile_uris(self, env):
        delegate = env.spawn(B, initiator=A)
        with pytest.raises(SecurityException):
            delegate.query(WORDS.to_volatile())


class TestVolatileUris:
    def test_initiator_reads_delegate_writes_via_tmp_uri(self, env):
        a = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "from-delegate"}))
        rows = a.query(WORDS.to_volatile()).rows
        assert any("from-delegate" in row for row in rows)

    def test_volatile_uri_by_id(self, env):
        a = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "v1"}))
        volatile_id = 10_000_001
        rows = a.query(WORDS.to_volatile().with_appended_id(volatile_id)).rows
        assert len(rows) == 1

    def test_initiator_creates_volatile_record_with_isvolatile(self, env):
        a = env.spawn(A)
        uri = a.insert(WORDS, ContentValues({"word": "incognito"}, is_volatile=True))
        assert uri.is_volatile
        # Public view does not include it...
        assert words_of(env.spawn(B)) == []
        # ...but A's delegates do.
        delegate = env.spawn(B, initiator=A)
        assert words_of(delegate) == ["incognito"]

    def test_delegate_may_not_use_isvolatile(self, env):
        delegate = env.spawn(B, initiator=A)
        with pytest.raises(SecurityException):
            delegate.insert(WORDS, ContentValues({"word": "x"}, is_volatile=True))

    def test_initiator_edits_volatile_record(self, env):
        a = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "draft"}))
        a.update(WORDS.to_volatile(), ContentValues({"word": "final"}))
        assert words_of(delegate) == ["final"]

    def test_initiator_deletes_volatile_records(self, env):
        a = env.spawn(A)
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "junk"}))
        a.delete(WORDS.to_volatile())
        assert words_of(delegate) == []


class TestClearVolatile:
    def test_device_clear_volatile_discards_dictionary_vol(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.insert(WORDS, ContentValues({"word": "temp"}))
        env.clear_volatile(A)
        fresh = env.spawn(B, initiator=A)
        assert words_of(fresh) == []
