"""Process table, task context, and syscall-layer tests."""

import gc
import weakref

import pytest

from repro.errors import CrossDeviceLink, NoSuchProcess, PermissionDenied
from repro.kernel.mounts import MountNamespace
from repro.kernel.proc import Process, ProcessTable, TaskContext
from repro.kernel.syscall import O_APPEND, O_CREAT, O_WRONLY, Syscalls
from repro.kernel.sysfs import Sysfs
from repro.kernel.vfs import Credentials, Filesystem, ROOT_CRED


def make_process(uid=1001, app="com.example.app", initiator=None):
    namespace = MountNamespace(Filesystem(label="root"))
    return Process(
        cred=Credentials(uid=uid),
        namespace=namespace,
        context=TaskContext(app=app, initiator=initiator),
    )


class TestTaskContext:
    def test_normal_app_is_not_delegate(self):
        assert not TaskContext(app="B").is_delegate

    def test_delegate(self):
        context = TaskContext(app="B", initiator="A")
        assert context.is_delegate
        assert context.effective_initiator == "A"

    def test_self_initiator_is_not_delegate(self):
        assert not TaskContext(app="B", initiator="B").is_delegate

    def test_effective_initiator_of_normal_app_is_self(self):
        assert TaskContext(app="B").effective_initiator == "B"

    def test_str_notation(self):
        assert str(TaskContext(app="B", initiator="A")) == "B^A"
        assert str(TaskContext(app="B")) == "B"


class TestProcessTable:
    def test_register_and_get(self):
        table = ProcessTable()
        process = table.register(make_process())
        assert table.get(process.pid) is process

    def test_get_dead_raises(self):
        table = ProcessTable()
        process = table.register(make_process())
        process.kill()
        with pytest.raises(NoSuchProcess):
            table.get(process.pid)

    def test_kill_runs_exit_hooks(self):
        table = ProcessTable()
        process = table.register(make_process())
        seen = []
        process.exit_hooks.append(lambda p: seen.append(p.pid))
        table.kill(process.pid)
        assert seen == [process.pid]

    def test_double_kill_is_idempotent(self):
        process = make_process()
        calls = []
        process.exit_hooks.append(lambda p: calls.append(1))
        process.kill()
        process.kill()
        assert calls == [1]

    def test_instances_of_filters_by_context(self):
        table = ProcessTable()
        normal = table.register(make_process(app="B"))
        delegate = table.register(make_process(app="B", initiator="A"))
        table.register(make_process(app="C"))
        assert set(p.pid for p in table.instances_of("B")) == {normal.pid, delegate.pid}
        assert [p.pid for p in table.instances_of("B", initiator=None)] == [normal.pid]
        assert [p.pid for p in table.instances_of("B", initiator="A")] == [delegate.pid]

    def test_instances_of_initiator(self):
        table = ProcessTable()
        table.register(make_process(app="B"))
        delegate = table.register(make_process(app="B", initiator="A"))
        assert [p.pid for p in table.instances_of_initiator("A")] == [delegate.pid]

    def test_killed_process_leaves_the_table(self):
        table = ProcessTable()
        survivor = table.register(make_process(app="B"))
        victim = table.register(make_process(app="B", initiator="A"))
        assert len(table) == 2
        victim.kill()
        assert len(table) == 1
        assert list(table) == [survivor]
        assert table.instances_of("B") == [survivor]
        assert table.instances_of_initiator("A") == []
        with pytest.raises(NoSuchProcess):
            table.get(victim.pid)
        # The table holds no reference to the dead process any more.
        victim_ref = weakref.ref(victim)
        del victim
        gc.collect()
        assert victim_ref() is None


class TestSyscalls:
    def test_open_flags_roundtrip(self):
        process = make_process(uid=0)
        sys = Syscalls(process)
        with sys.open("/f", O_WRONLY | O_CREAT) as handle:
            handle.write(b"abc")
        with sys.open("/f", O_WRONLY | O_APPEND) as handle:
            handle.write(b"d")
        assert sys.read_file("/f") == b"abcd"

    def test_dead_process_cannot_syscall(self):
        process = make_process()
        sys = Syscalls(process)
        process.kill()
        with pytest.raises(NoSuchProcess):
            sys.exists("/")

    def test_rename_across_mounts_is_exdev(self):
        process = make_process(uid=0)
        process.namespace.mount("/other", Filesystem(label="other"))
        sys = Syscalls(process)
        sys.write_file("/f", b"x")
        with pytest.raises(CrossDeviceLink):
            sys.rename("/f", "/other/f")

    def test_rename_within_mount(self):
        process = make_process(uid=0)
        sys = Syscalls(process)
        sys.write_file("/f", b"x")
        sys.rename("/f", "/g")
        assert sys.read_file("/g") == b"x"

    def test_walk_files(self):
        process = make_process(uid=0)
        sys = Syscalls(process)
        sys.makedirs("/a/b")
        sys.write_file("/a/f1", b"1")
        sys.write_file("/a/b/f2", b"2")
        assert sys.walk_files("/a") == ["/a/b/f2", "/a/f1"]

    def test_copy_file(self):
        process = make_process(uid=0)
        sys = Syscalls(process)
        sys.write_file("/src", b"payload")
        sys.copy_file("/src", "/dst")
        assert sys.read_file("/dst") == b"payload"


class TestSysfs:
    def test_root_stamps_context(self):
        table = ProcessTable()
        process = table.register(make_process(app="old"))
        sysfs = Sysfs(table)
        sysfs.write_context(process.pid, "com.new.app", "com.init.app", ROOT_CRED)
        context = sysfs.read_context(process.pid)
        assert context.app == "com.new.app"
        assert context.initiator == "com.init.app"
        assert context.is_delegate

    def test_non_root_denied(self):
        table = ProcessTable()
        process = table.register(make_process())
        sysfs = Sysfs(table)
        with pytest.raises(PermissionDenied):
            sysfs.write_context(process.pid, "x", None, Credentials(uid=1001))
