"""Content-resolver framework tests: routing, per-URI grants, app-defined
providers behind the Binder policy."""

import pytest

from repro.errors import IpcDenied, ProviderNotFound, SecurityException
from repro.android.content.provider import ContentProvider, UriPermissionGrants
from repro.android.uri import Uri
from repro import AndroidManifest
from repro.minisql.engine import ResultSet

A = "com.app.owner"
B = "com.app.other"


class MiniProvider(ContentProvider):
    """A tiny app-defined provider for framework tests."""

    authority = "mini.provider"
    owner = A

    def __init__(self):
        self.data = {1: b"attachment-bytes"}

    def open_file(self, uri, context):
        return self.data[uri.row_id]

    def query(self, uri, projection, where, params, order_by, context):
        return ResultSet(columns=["_id"], rows=[(k,) for k in self.data])


@pytest.fixture
def env(device):
    class Nop:
        def main(self, api, intent):
            return None

    device.install(AndroidManifest(package=A), Nop())
    device.install(AndroidManifest(package=B), Nop())
    device.register_app_provider(MiniProvider())
    return device


class TestGrantsTable:
    def test_one_time_grant_consumed(self):
        grants = UriPermissionGrants()
        uri = Uri.content("x", "y", "1")
        grants.grant("com.b", uri, one_time=True)
        assert grants.consume("com.b", uri)
        assert not grants.consume("com.b", uri)

    def test_persistent_grant_survives(self):
        grants = UriPermissionGrants()
        uri = Uri.content("x", "y", "1")
        grants.grant("com.b", uri, one_time=False)
        assert grants.consume("com.b", uri)
        assert grants.consume("com.b", uri)

    def test_grant_is_per_grantee(self):
        grants = UriPermissionGrants()
        uri = Uri.content("x", "y", "1")
        grants.grant("com.b", uri)
        assert not grants.consume("com.c", uri)

    def test_grant_is_per_uri(self):
        grants = UriPermissionGrants()
        grants.grant("com.b", Uri.content("x", "y", "1"))
        assert not grants.consume("com.b", Uri.content("x", "y", "2"))


class TestAppDefinedProviders:
    def test_owner_opens_without_grant(self, env):
        owner = env.spawn(A)
        uri = Uri.content("mini.provider", "attachment", "1")
        assert owner.open_input(uri) == b"attachment-bytes"

    def test_other_app_needs_grant(self, env):
        other = env.spawn(B)
        uri = Uri.content("mini.provider", "attachment", "1")
        with pytest.raises(SecurityException):
            other.open_input(uri)

    def test_grant_allows_one_open(self, env):
        owner = env.spawn(A)
        other = env.spawn(B)
        uri = Uri.content("mini.provider", "attachment", "1")
        owner.grant_uri_permission(B, uri)
        assert other.open_input(uri) == b"attachment-bytes"
        with pytest.raises(SecurityException):
            other.open_input(uri)

    def test_owners_delegate_reaches_provider(self, env):
        """A delegate of the owner is in the owner's confinement domain, so
        the Binder policy admits it (with a grant)."""
        env.spawn(A).grant_uri_permission(B, Uri.content("mini.provider", "attachment", "1"))
        delegate = env.spawn(B, initiator=A)
        uri = Uri.content("mini.provider", "attachment", "1")
        assert delegate.open_input(uri) == b"attachment-bytes"

    def test_foreign_delegate_blocked_by_binder_policy(self, env):
        """B's delegate running for some *other* initiator may not reach
        A's provider at all, grant or no grant."""
        class Nop:
            def main(self, api, intent):
                return None

        env.install(AndroidManifest(package="com.app.third"), Nop())
        env.spawn(A).grant_uri_permission(B, Uri.content("mini.provider", "attachment", "1"))
        foreign = env.spawn(B, initiator="com.app.third")
        with pytest.raises(IpcDenied):
            foreign.open_input(Uri.content("mini.provider", "attachment", "1"))

    def test_unknown_authority_raises(self, env):
        with pytest.raises(ProviderNotFound):
            env.spawn(A).query(Uri.content("no.such.authority", "x"))

    def test_system_providers_always_reachable_by_delegates(self, env):
        delegate = env.spawn(B, initiator=A)
        result = delegate.query(Uri.content("user_dictionary", "words"))
        assert result.rows == []
