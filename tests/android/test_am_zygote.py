"""Activity Manager + Zygote tests: context decisions, kill-on-conflict,
broadcast scoping, launcher gestures (paper sections 3.4, 6.2, 6.3)."""

import pytest

from repro.errors import ActivityNotFound, NestedDelegationError
from repro.android.intents import Intent, IntentFilter
from repro import AndroidManifest, MaxoidManifest

A = "com.app.a"
B = "com.app.b"
C = "com.app.c"


class Recorder:
    """App stub that records each invocation's context."""

    def __init__(self):
        self.runs = []

    def main(self, api, intent):
        self.runs.append(str(api.process.context))
        return intent.extras.get("reply")


@pytest.fixture
def env(device):
    apps = {}
    for package in (A, B, C):
        apps[package] = Recorder()
        device.install(
            AndroidManifest(
                package=package,
                handles=[IntentFilter(actions=[Intent.ACTION_VIEW, Intent.ACTION_SEND])],
            ),
            apps[package],
        )
    device.apps = apps
    return device


class TestZygote:
    def test_fork_sets_uid_and_context(self, env):
        process = env.zygote.fork_app(B, initiator=A)
        assert process.context.app == B
        assert process.context.initiator == A
        assert process.cred.uid == env.packages.get(B).uid

    def test_fork_self_initiator_normalizes(self, env):
        process = env.zygote.fork_app(B, initiator=B)
        assert not process.context.is_delegate

    def test_sysfs_stamped(self, env):
        process = env.zygote.fork_app(B, initiator=A)
        assert env.sysfs.read_context(process.pid).initiator == A

    def test_namespaces_are_private(self, env):
        first = env.zygote.fork_app(B)
        second = env.zygote.fork_app(B, initiator=A)
        assert first.namespace is not second.namespace


class TestInvocationDecisions:
    def test_plain_invocation_runs_normally(self, env):
        a = env.spawn(A)
        invocation = env.am.start_activity(a.process, Intent(Intent.ACTION_VIEW))
        assert not invocation.process.context.is_delegate

    def test_delegate_flag_creates_delegate(self, env):
        a = env.spawn(A)
        intent = Intent(Intent.ACTION_VIEW, flags=Intent.FLAG_MAXOID_DELEGATE)
        invocation = env.am.start_activity(a.process, intent)
        assert invocation.process.context.initiator == A

    def test_manifest_filter_creates_delegate(self, device):
        recorder = Recorder()
        device.install(
            AndroidManifest(
                package=A,
                maxoid=MaxoidManifest(
                    private_filters=[IntentFilter(actions=[Intent.ACTION_SEND])]
                ),
            ),
            recorder,
        )
        device.install(
            AndroidManifest(package=B, handles=[IntentFilter()]), Recorder()
        )
        a = device.spawn(A)
        delegated = device.am.start_activity(a.process, Intent(Intent.ACTION_SEND))
        assert delegated.process.context.initiator == A
        normal = device.am.start_activity(a.process, Intent(Intent.ACTION_VIEW))
        assert not normal.process.context.is_delegate

    def test_blacklist_mode_inverts(self, device):
        device.install(
            AndroidManifest(
                package=A,
                maxoid=MaxoidManifest(
                    private_filters=[IntentFilter(actions=[Intent.ACTION_SEND])],
                    filter_mode="blacklist",
                ),
            ),
            Recorder(),
        )
        device.install(AndroidManifest(package=B, handles=[IntentFilter()]), Recorder())
        a = device.spawn(A)
        assert not device.am.start_activity(
            a.process, Intent(Intent.ACTION_SEND)
        ).process.context.is_delegate
        assert device.am.start_activity(
            a.process, Intent(Intent.ACTION_VIEW)
        ).process.context.initiator == A

    def test_invocation_transitivity(self, env):
        delegate = env.spawn(B, initiator=A)
        invocation = env.am.start_activity(
            delegate.process, Intent(Intent.ACTION_VIEW, component=C)
        )
        # B^A invoking C yields C^A, not C^B.
        assert invocation.target == C
        assert invocation.process.context.initiator == A

    def test_delegate_invoking_its_initiator_runs_it_normally(self, env):
        delegate = env.spawn(B, initiator=A)
        invocation = env.am.start_activity(
            delegate.process, Intent(Intent.ACTION_VIEW, component=A)
        )
        # A on behalf of A is just A.
        assert not invocation.process.context.is_delegate

    def test_nested_delegation_rejected(self, env):
        delegate = env.spawn(B, initiator=A)
        intent = Intent(Intent.ACTION_VIEW, flags=Intent.FLAG_MAXOID_DELEGATE)
        with pytest.raises(NestedDelegationError):
            env.am.start_activity(delegate.process, intent)

    def test_invoking_self_as_delegate_runs_normally(self, env):
        a = env.spawn(A)
        intent = Intent(
            Intent.ACTION_VIEW, component=A, flags=Intent.FLAG_MAXOID_DELEGATE
        )
        invocation = env.am.start_activity(a.process, intent)
        assert not invocation.process.context.is_delegate

    def test_unresolvable_intent_raises(self, env):
        a = env.spawn(A)
        with pytest.raises(ActivityNotFound):
            env.am.start_activity(a.process, Intent("no.such.ACTION", component=None, mime_type="x/y"))

    def test_result_returned_to_invoker(self, env):
        a = env.spawn(A)
        invocation = env.am.start_activity(
            a.process, Intent(Intent.ACTION_VIEW, extras={"reply": 42})
        )
        assert invocation.result == 42

    def test_stock_device_never_creates_delegates(self, stock_device):
        stock_device.install(
            AndroidManifest(package=A), Recorder()
        )
        stock_device.install(
            AndroidManifest(package=B, handles=[IntentFilter()]), Recorder()
        )
        a = stock_device.spawn(A)
        intent = Intent(Intent.ACTION_VIEW, flags=Intent.FLAG_MAXOID_DELEGATE)
        invocation = stock_device.am.start_activity(a.process, intent)
        assert not invocation.process.context.is_delegate


class TestKillOnConflict:
    def test_running_normal_instance_killed_when_delegate_starts(self, env):
        a = env.spawn(A)
        normal_b = env.spawn(B)
        intent = Intent(Intent.ACTION_VIEW, component=B, flags=Intent.FLAG_MAXOID_DELEGATE)
        env.am.start_activity(a.process, intent)
        assert not normal_b.process.alive

    def test_delegate_killed_when_other_context_starts(self, env):
        a = env.spawn(A)
        intent = Intent(Intent.ACTION_VIEW, component=B, flags=Intent.FLAG_MAXOID_DELEGATE)
        delegate = env.am.start_activity(a.process, intent).process
        c = env.spawn(C)
        env.am.start_activity(c.process, Intent(Intent.ACTION_VIEW, component=B))
        assert not delegate.alive

    def test_same_context_instance_not_killed(self, env):
        a = env.spawn(A)
        intent = Intent(Intent.ACTION_VIEW, component=B, flags=Intent.FLAG_MAXOID_DELEGATE)
        first = env.am.start_activity(a.process, intent).process
        env.am.start_activity(a.process, intent)
        assert first.alive


class TestBroadcasts:
    def test_initiator_broadcast_reaches_everyone(self, env):
        received = []
        b = env.spawn(B)
        env.am.register_receiver(
            b.process, IntentFilter(actions=["evt"]), lambda p, i: received.append("b")
        )
        a = env.spawn(A)
        assert env.am.send_broadcast(a.process, Intent("evt")) == 1
        assert received == ["b"]

    def test_delegate_broadcast_confined_to_domain(self, env):
        received = []
        outsider = env.spawn(C)
        env.am.register_receiver(
            outsider.process, IntentFilter(actions=["evt"]), lambda p, i: received.append("outsider")
        )
        sibling = env.spawn(C, initiator=A)
        env.am.register_receiver(
            sibling.process, IntentFilter(actions=["evt"]), lambda p, i: received.append("sibling")
        )
        initiator = env.spawn(A)
        env.am.register_receiver(
            initiator.process, IntentFilter(actions=["evt"]), lambda p, i: received.append("initiator")
        )
        delegate = env.spawn(B, initiator=A)
        delivered = env.am.send_broadcast(delegate.process, Intent("evt"))
        assert delivered == 2
        assert sorted(received) == ["initiator", "sibling"]

    def test_dead_receiver_skipped(self, env):
        received = []
        b = env.spawn(B)
        env.am.register_receiver(
            b.process, IntentFilter(actions=["evt"]), lambda p, i: received.append("b")
        )
        b.process.kill()
        a = env.spawn(A)
        assert env.am.send_broadcast(a.process, Intent("evt")) == 0


class TestLauncher:
    def test_tap_starts_normally(self, env):
        invocation = env.launch(B)
        assert not invocation.process.context.is_delegate

    def test_drag_to_initiator_starts_delegate(self, env):
        invocation = env.launch_as_delegate(B, A)
        assert invocation.process.context.initiator == A
        assert env.apps[B].runs[-1] == f"{B}^{A}"

    def test_clear_vol_gesture(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_external("junk.txt", b"side effect")
        assert env.launcher.clear_vol(A) >= 1

    def test_clear_priv_gesture_kills_delegates(self, env):
        delegate = env.spawn(B, initiator=A)
        delegate.write_internal("state.bin", b"x")
        env.launcher.clear_priv(A)
        assert not delegate.process.alive
