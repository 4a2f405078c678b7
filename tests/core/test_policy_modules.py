"""Manifest, IPC guard, netguard, volatile files, pPriv, context tests."""

import pytest

from repro.errors import DelegateNetworkDenied, IpcDenied, NestedDelegationError
from repro.android.intents import Intent, IntentFilter
from repro.core.context import MaxoidContextApi, delegate_key, same_confinement_domain
from repro.core.ipc_guard import IpcGuard
from repro.core.manifest import MaxoidManifest
from repro.core.netguard import assert_not_delegate, network_allowed
from repro.core.volatile import VolatileFiles
from repro.kernel.binder import BinderDriver, BinderEndpoint
from repro.kernel.proc import TaskContext
from repro import AndroidManifest


class TestMaxoidManifest:
    def test_private_ext_path_matching(self):
        manifest = MaxoidManifest(private_ext_dirs=["Dropbox", "data/sync"])
        assert manifest.is_private_ext_path("Dropbox/file.pdf")
        assert manifest.is_private_ext_path("data/sync/deep/x")
        assert not manifest.is_private_ext_path("DropboxOther/file")
        assert not manifest.is_private_ext_path("Download/x")

    def test_whitelist_mode(self):
        manifest = MaxoidManifest(
            private_filters=[IntentFilter(actions=[Intent.ACTION_VIEW])]
        )
        assert manifest.intent_is_private(Intent(Intent.ACTION_VIEW))
        assert not manifest.intent_is_private(Intent(Intent.ACTION_SEND))

    def test_blacklist_mode(self):
        manifest = MaxoidManifest(
            private_filters=[IntentFilter(actions=[Intent.ACTION_SEND])],
            filter_mode="blacklist",
        )
        assert manifest.intent_is_private(Intent(Intent.ACTION_VIEW))
        assert not manifest.intent_is_private(Intent(Intent.ACTION_SEND))

    def test_blacklist_of_nothing_makes_everything_private(self):
        manifest = MaxoidManifest(filter_mode="blacklist")
        assert manifest.intent_is_private(Intent("anything"))

    def test_bad_filter_mode_rejected(self):
        with pytest.raises(ValueError):
            MaxoidManifest(filter_mode="greylist")

    def test_dirs_normalized(self):
        manifest = MaxoidManifest(private_ext_dirs=["/Dropbox/"])
        assert manifest.private_ext_dirs == ["Dropbox"]


class TestContextHelpers:
    def test_delegate_key(self):
        assert delegate_key("B", "A") == "B@A"

    def test_same_confinement_domain(self):
        a = TaskContext(app="A")
        b_for_a = TaskContext(app="B", initiator="A")
        c_for_a = TaskContext(app="C", initiator="A")
        b_for_x = TaskContext(app="B", initiator="X")
        assert same_confinement_domain(a, b_for_a)
        assert same_confinement_domain(b_for_a, c_for_a)
        assert not same_confinement_domain(b_for_a, b_for_x)
        assert not same_confinement_domain(a, TaskContext(app="B"))


class TestIpcGuardDecisions:
    def test_initiator_plain_intent_is_normal(self):
        context = TaskContext(app="A")
        assert IpcGuard.decide_initiator(context, Intent("x"), None) is None

    def test_initiator_flag_makes_delegate(self):
        context = TaskContext(app="A")
        intent = Intent("x", flags=Intent.FLAG_MAXOID_DELEGATE)
        assert IpcGuard.decide_initiator(context, intent, None) == "A"

    def test_manifest_filters_consulted(self):
        context = TaskContext(app="A")
        manifest = MaxoidManifest(private_filters=[IntentFilter(actions=["x"])])
        assert IpcGuard.decide_initiator(context, Intent("x"), manifest) == "A"
        assert IpcGuard.decide_initiator(context, Intent("y"), manifest) is None

    def test_transitivity(self):
        delegate = TaskContext(app="B", initiator="A")
        assert IpcGuard.decide_initiator(delegate, Intent("x"), None) == "A"

    def test_nested_delegation_raises(self):
        delegate = TaskContext(app="B", initiator="A")
        intent = Intent("x", flags=Intent.FLAG_MAXOID_DELEGATE)
        with pytest.raises(NestedDelegationError):
            IpcGuard.decide_initiator(delegate, intent, None)


class TestBinderPolicy:
    @pytest.fixture
    def guard(self):
        return IpcGuard(BinderDriver())

    def endpoint(self, name, owner=None, is_system=False):
        return BinderEndpoint(name=name, owner=owner, handler=lambda t: None, is_system=is_system)

    def test_system_endpoints_always_allowed(self, guard):
        delegate = TaskContext(app="B", initiator="A")
        assert guard.binder_policy(delegate, self.endpoint("svc", is_system=True))

    def test_non_delegates_unrestricted(self, guard):
        normal = TaskContext(app="B")
        assert guard.binder_policy(normal, self.endpoint("app:1", owner="C"))

    def test_delegate_to_initiator_instance_allowed(self, guard):
        guard.register_instance("app:1", TaskContext(app="A"))
        delegate = TaskContext(app="B", initiator="A")
        assert guard.binder_policy(delegate, self.endpoint("app:1", owner="A"))

    def test_delegate_to_sibling_delegate_allowed(self, guard):
        guard.register_instance("app:2", TaskContext(app="C", initiator="A"))
        delegate = TaskContext(app="B", initiator="A")
        assert guard.binder_policy(delegate, self.endpoint("app:2", owner="C"))

    def test_delegate_to_outsider_denied(self, guard):
        guard.register_instance("app:3", TaskContext(app="C"))
        delegate = TaskContext(app="B", initiator="A")
        assert not guard.binder_policy(delegate, self.endpoint("app:3", owner="C"))

    def test_delegate_to_unknown_endpoint_denied(self, guard):
        delegate = TaskContext(app="B", initiator="A")
        assert not guard.binder_policy(delegate, self.endpoint("app:ghost", owner="C"))

    def test_unregister_closes_access(self, guard):
        guard.register_instance("app:1", TaskContext(app="A"))
        guard.unregister_instance("app:1")
        delegate = TaskContext(app="B", initiator="A")
        assert not guard.binder_policy(delegate, self.endpoint("app:1", owner="A"))

    def test_broadcast_scoping(self, guard):
        delegate = TaskContext(app="B", initiator="A")
        assert guard.broadcast_visible(delegate, TaskContext(app="A"))
        assert guard.broadcast_visible(delegate, TaskContext(app="C", initiator="A"))
        assert not guard.broadcast_visible(delegate, TaskContext(app="C"))
        assert guard.broadcast_visible(TaskContext(app="A"), TaskContext(app="C"))


class TestNetguard:
    def test_network_allowed_rule(self):
        assert network_allowed(TaskContext(app="A"))
        assert not network_allowed(TaskContext(app="B", initiator="A"))

    def test_assert_not_delegate(self):
        assert_not_delegate(TaskContext(app="A"), "sms")
        with pytest.raises(DelegateNetworkDenied):
            assert_not_delegate(TaskContext(app="B", initiator="A"), "sms")


class TestVolatileFilesApi:
    def test_delegates_have_no_volatile_window(self, device):
        class Nop:
            def main(self, api, intent):
                return None

        device.install(AndroidManifest(package="com.a"), Nop())
        device.install(AndroidManifest(package="com.b"), Nop())
        delegate = device.spawn("com.b", initiator="com.a")
        with pytest.raises(IpcDenied):
            VolatileFiles(delegate.process, device.commit_journal)

    def test_commit_external(self, device):
        class Nop:
            def main(self, api, intent):
                return None

        device.install(AndroidManifest(package="com.a"), Nop())
        device.install(AndroidManifest(package="com.b"), Nop())
        delegate = device.spawn("com.b", initiator="com.a")
        delegate.write_external("out/result.txt", b"edited")
        a = device.spawn("com.a")
        committed = a.volatile.commit("/storage/sdcard/tmp/out/result.txt")
        assert committed == "/storage/sdcard/out/result.txt"
        assert device.spawn("com.b").sys.read_file(committed) == b"edited"

    def test_commit_internal(self, device):
        class Nop:
            def main(self, api, intent):
                return None

        device.install(AndroidManifest(package="com.a"), Nop())
        device.install(AndroidManifest(package="com.b"), Nop())
        delegate = device.spawn("com.b", initiator="com.a")
        delegate.sys.makedirs("/data/data/com.a/results")
        delegate.sys.write_file("/data/data/com.a/results/r.txt", b"output")
        a = device.spawn("com.a")
        committed = a.volatile.commit("/data/data/com.a/tmp/results/r.txt")
        assert committed == "/data/data/com.a/results/r.txt"
        assert a.sys.read_file(committed) == b"output"

    def test_commit_non_tmp_path_raises(self, device):
        class Nop:
            def main(self, api, intent):
                return None

        device.install(AndroidManifest(package="com.a"), Nop())
        a = device.spawn("com.a")
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            a.volatile.commit("/storage/sdcard/other/file")

    def test_maxoid_context_api(self, device):
        class Nop:
            def main(self, api, intent):
                return None

        device.install(AndroidManifest(package="com.a"), Nop())
        device.install(AndroidManifest(package="com.b"), Nop())
        normal = device.spawn("com.b")
        assert not MaxoidContextApi(normal.process).is_delegate()
        assert MaxoidContextApi(normal.process).initiator() is None
        delegate = device.spawn("com.b", initiator="com.a")
        assert MaxoidContextApi(delegate.process).is_delegate()
        assert MaxoidContextApi(delegate.process).initiator() == "com.a"
