"""A fork's view is built from cached parts and must match a fresh build.

``Device`` keeps each (package, initiator) mount plan and the branch
manager keeps each resolved branch, so a fork only unshares, builds its
own mounts and probes their roots. The oracle replays random sequences of
launches, writes, Clear-Vol, Clear-Priv, Priv(B) writes (which force an
nPriv discard), recovery and manifest re-installs, and after every step
compares each context's forked view with one planned and rooted from
scratch.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.android.packages import AndroidManifest  # noqa: E402
from repro.core.branches import BranchManager  # noqa: E402
from repro.core.device import Device  # noqa: E402
from repro.core.manifest import MaxoidManifest  # noqa: E402
from repro.core.views import plan_delegate_mounts, plan_initiator_mounts  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.kernel import path as vpath  # noqa: E402
from repro.kernel.aufs import AufsMount, Branch  # noqa: E402
from repro.kernel.vfs import Filesystem, ROOT_CRED  # noqa: E402
from repro.naming import DATA_ROOT, EXTDIR, PPRIV_ROOT  # noqa: E402

PACKAGES = ("com.example.a", "com.example.b", "com.example.c")
CONTEXTS = [(p, None) for p in PACKAGES] + [
    (p, i) for p in PACKAGES for i in PACKAGES if i != p
]


def _short(package):
    return package.rsplit(".", 1)[-1]


def _manifest(package, extra):
    dirs = [f"data/{_short(package)}"] + ([f"extra/{_short(package)}"] if extra else [])
    return MaxoidManifest(private_ext_dirs=dirs)


FILES = [f"{EXTDIR}/f", f"{EXTDIR}/tmp/f", f"{EXTDIR}/n/m/f"]
for _p in PACKAGES:
    FILES += [
        f"{EXTDIR}/data/{_short(_p)}/f",
        f"{EXTDIR}/extra/{_short(_p)}/f",
        f"{DATA_ROOT}/{_p}/f",
        f"{DATA_ROOT}/{_p}/tmp/f",
        f"{PPRIV_ROOT}/{_p}/f",
    ]
PATHS = sorted({p for f in FILES for p in (f, vpath.parent(f))} | {EXTDIR, f"{EXTDIR}/n"})


def _new_device():
    device = Device(maxoid_enabled=True)
    for package in PACKAGES:
        device.install(AndroidManifest(package=package, maxoid=_manifest(package, False)))
    return device


def _fresh_namespace(device, package, initiator):
    """The view planned from the current manifests with every branch
    resolved and its root checked anew, as on a device with no cache."""
    manifests = device.maxoid_manifests
    if initiator is None:
        plans = plan_initiator_mounts(package, manifests.get(package))
    else:
        plans = plan_delegate_mounts(
            package, initiator, manifests.get(package), manifests.get(initiator)
        )
    namespace = device.base_namespace.unshare()
    for plan in plans:
        branches = []
        for spec in plan.branches:
            fs = device.branches._fs_for_kind(spec.kind)
            root = device.branches._root(spec)
            if not fs.exists(root, ROOT_CRED):
                fs.mkdir(root, ROOT_CRED, parents=True)
            branches.append(Branch(fs=fs, root=root, writable=spec.writable, label=spec.label))
        namespace.mount(
            plan.mountpoint,
            AufsMount(branches, always_allow_read=plan.always_allow_read, label=plan.mountpoint),
        )
    return namespace


def _fs_key(fs):
    if isinstance(fs, AufsMount):
        return (
            fs.label,
            fs.always_allow_read,
            tuple((id(b.fs), b.root, b.writable, b.label) for b in fs.branches),
        )
    return id(fs)


def _view(namespace, cred):
    """What ``cred`` sees at every path through ``namespace``."""
    seen = []
    for path in PATHS:
        fs, inner = namespace.resolve(path)
        seen.append((path, _fs_key(fs), inner))
        for call in (fs.stat, fs.exists, fs.readdir):
            try:
                seen.append((path, call.__name__, call(inner, cred)))
            except ReproError as error:
                seen.append((path, call.__name__, type(error).__name__))
    return seen


def _assert_fork_matches_fresh(device, package, initiator):
    api = device.spawn(package, initiator=initiator)
    # The fork's view is read before the fresh build, which would make any
    # root the fork failed to make.
    forked = _view(api.process.namespace, api.process.cred)
    api.process.kill()
    fresh = _view(_fresh_namespace(device, package, initiator), api.process.cred)
    assert forked == fresh, (package, initiator)


STEPS = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from(CONTEXTS)),
    st.tuples(st.just("write"), st.sampled_from(CONTEXTS), st.sampled_from(FILES)),
    st.tuples(st.just("clear_vol"), st.sampled_from(PACKAGES)),
    st.tuples(st.just("clear_priv"), st.sampled_from(PACKAGES)),
    st.tuples(st.just("priv_write"), st.sampled_from(PACKAGES)),
    st.tuples(st.just("recover")),
    st.tuples(st.just("reinstall"), st.sampled_from(PACKAGES)),
)


def _apply(device, step, live, extra):
    kind = step[0]
    if kind == "spawn":
        package, initiator = step[1]
        live.append(device.spawn(package, initiator=initiator))
    elif kind == "write":
        (package, initiator), path = step[1], step[2]
        api = device.spawn(package, initiator=initiator)
        try:
            api.sys.makedirs(vpath.parent(path))
            api.sys.write_file(path, f"{package}^{initiator}".encode())
        except ReproError:
            pass  # a refused write leaves the state as it was
        api.process.kill()
    elif kind == "clear_vol":
        device.clear_volatile(step[1])
    elif kind == "clear_priv":
        device.clear_delegate_priv(step[1])
    elif kind == "priv_write":
        api = device.spawn(step[1])
        api.sys.write_file(f"{DATA_ROOT}/{step[1]}/f", b"update")
        api.process.kill()
    elif kind == "recover":
        device.recover(validate=False)
        for api in live:
            if api.process.alive:
                context = api.process.context
                forked = _view(api.process.namespace, api.process.cred)
                fresh = _view(
                    _fresh_namespace(device, context.app, context.initiator),
                    api.process.cred,
                )
                assert forked == fresh, context
    else:  # reinstall: an update that adds or drops a private dir
        package = step[1]
        extra[package] = not extra[package]
        device.packages.uninstall(package)
        # Set the old data dir aside under a fresh name: install makes it anew.
        aside = f"/data/old-{len(device.system_fs.readdir('/data', ROOT_CRED))}"
        device.system_fs.rename(f"{DATA_ROOT}/{package}", aside, ROOT_CRED)
        device.install(AndroidManifest(package=package, maxoid=_manifest(package, extra[package])))


@given(st.lists(STEPS, min_size=1, max_size=10))
def test_forked_view_matches_a_fresh_build(steps):
    device = _new_device()
    live, extra = [], {package: False for package in PACKAGES}
    for context in CONTEXTS:
        _assert_fork_matches_fresh(device, *context)
    for step in steps:
        _apply(device, step, live, extra)
        for context in CONTEXTS:
            _assert_fork_matches_fresh(device, *context)


def test_forks_share_branches_but_not_mounts():
    device = _new_device()
    first = device.spawn(PACKAGES[1], initiator=PACKAGES[0]).process.namespace
    second = device.spawn(PACKAGES[1], initiator=PACKAGES[0]).process.namespace
    assert first is not second
    for point, mount in first.mount_table().items():
        other = second.mount_table()[point]
        if isinstance(mount, AufsMount):
            assert mount is not other and mount.rwlock is not other.rwlock
            assert all(a is b for a, b in zip(mount.branches, other.branches))


# ---------------------------------------------------------------------------
# The one-pass drop
# ---------------------------------------------------------------------------

NAMES = st.sampled_from(["a", "b", ".wh.c", "d"])
TREE = st.lists(
    st.tuples(st.sampled_from(["ext", "int"]), st.lists(NAMES, min_size=1, max_size=4), st.booleans()),
    max_size=12,
)


@given(TREE)
def test_clear_volatile_returns_the_file_count_it_drops(entries):
    """Nested and empty directories count nothing; every other inode
    counts once; the Vol roots themselves stay."""
    manager = BranchManager(Filesystem(label="system"))
    initiator = "com.example.a"
    roots = {
        "ext": manager.volatile_ext_root(initiator),
        "int": manager.volatile_int_root(initiator),
    }
    fs = manager.vol_fs
    for area, parts, is_file in entries:
        path = vpath.join(roots[area], *parts)
        try:
            if is_file:
                fs.mkdir(vpath.parent(path), ROOT_CRED, parents=True)
                fs.write_file(path, b"x", ROOT_CRED)
            else:
                fs.mkdir(path, ROOT_CRED, parents=True)
        except ReproError:
            pass  # a name already taken by the other kind
    expected = len(manager.list_volatile_files(initiator))
    assert manager.clear_volatile(initiator) == expected
    assert manager.list_volatile_files(initiator) == []
    for area, root in roots.items():
        if any(entry[0] == area for entry in entries):
            assert fs.readdir(root, ROOT_CRED) == []
