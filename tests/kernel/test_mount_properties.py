"""Property-based tests for path handling and mount resolution."""

from __future__ import annotations

import posixpath

from hypothesis import example, given, settings, strategies as st

from repro.kernel import path as vpath
from repro.kernel.mounts import MountNamespace
from repro.kernel.vfs import Filesystem

component = st.text(alphabet="abcdwxyz0", min_size=1, max_size=5)
abs_path = st.lists(component, min_size=0, max_size=5).map(
    lambda parts: "/" + "/".join(parts)
)

# Any string a caller may hand in: empty components ("//"), "." and "..",
# dot-led names that are ordinary components, an optional leading and an
# optional trailing slash.
raw_component = st.one_of(
    component,
    st.sampled_from(["", ".", "..", ".wh.x", "..x", "...", ".a", "a."]),
)
raw_path = st.builds(
    lambda lead, parts, trail: lead + "/".join(parts) + trail,
    st.sampled_from(["/", "", "//"]),
    st.lists(raw_component, min_size=0, max_size=6),
    st.sampled_from(["", "/"]),
)


def reference_normalize(path: str) -> str:
    """``posixpath.normpath`` of the path made absolute, with POSIX's
    implementation-defined leading ``//`` folded to one slash."""
    expected = posixpath.normpath("/" + path)
    if expected.startswith("//"):
        expected = "/" + expected.lstrip("/")
    return expected


class _Unsplittable(str):
    """A path that fails the test if normalize splits it."""

    def split(self, *args, **kwargs):
        raise AssertionError(f"canonical path {str(self)!r} was split")


class TestPathProperties:
    @given(path=raw_path)
    @settings(max_examples=300, deadline=None)
    def test_normalize_idempotent(self, path):
        once = vpath.normalize(path)
        assert vpath.normalize(once) == once
        # A canonical path takes the fast path: returned as is, never split.
        unsplittable = _Unsplittable(once)
        assert vpath.normalize(unsplittable) is unsplittable

    @given(path=raw_path)
    @settings(max_examples=300, deadline=None)
    def test_normalize_matches_posixpath(self, path):
        assert vpath.normalize(path) == reference_normalize(path)

    @given(path=raw_path)
    @settings(max_examples=150, deadline=None)
    def test_helpers_match_posixpath(self, path):
        expected = reference_normalize(path)
        assert vpath.parent(path) == posixpath.dirname(expected)
        assert vpath.basename(path) == posixpath.basename(expected)
        assert "/" + "/".join(vpath.split(path)) == expected

    @given(fragments=st.lists(raw_path, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_join_matches_normalized_concatenation(self, fragments):
        expected = vpath.normalize("/".join(p for p in fragments if p))
        assert vpath.join(*fragments) == expected

    @given(parent=raw_path, name=component)
    @settings(max_examples=80, deadline=None)
    def test_join_then_split_roundtrip(self, parent, name):
        joined = vpath.join(parent, name)
        assert vpath.basename(joined) == name
        assert vpath.parent(joined) == vpath.normalize(parent)

    @given(path=raw_path, ancestor=raw_path)
    @settings(max_examples=80, deadline=None)
    def test_relative_to_inverts_join(self, path, ancestor):
        if vpath.is_within(path, ancestor):
            relative = vpath.relative_to(path, ancestor)
            assert vpath.join(ancestor, relative) == vpath.normalize(path)

    @given(path=raw_path)
    @settings(max_examples=50, deadline=None)
    def test_every_path_within_root(self, path):
        assert vpath.is_within(path, "/")


# Few, short names so that drawn mount points nest (/a and /a/b/c), share a
# prefix without nesting (/a/b and /a/bc), and coincide with the probe.
mount_name = st.sampled_from(["a", "b", "bc", "c"])
mount_point = st.lists(mount_name, min_size=1, max_size=3).map(lambda p: "/" + "/".join(p))


def brute_force_mount(mounts, path):
    """The longest mount point equal to ``path`` or a proper ancestor of it."""
    best = "/"
    for point in mounts:
        if (path == point or path.startswith(point + "/")) and len(point) > len(best):
            best = point
    return best


class TestMountResolutionProperties:
    @given(
        mounts=st.lists(mount_point, min_size=0, max_size=6, unique=True),
        extra=st.lists(mount_name, max_size=2),
        trailing=st.sampled_from(["", "/", "/."]),
        pick=st.integers(min_value=0, max_value=6),
    )
    @example(mounts=["/a/b"], extra=["a", "bc"], trailing="", pick=1)
    @settings(max_examples=200, deadline=None)
    def test_longest_prefix_always_wins(self, mounts, extra, trailing, pick):
        namespace = MountNamespace(Filesystem(label="/"))
        for point in mounts:
            namespace.mount(point, Filesystem(label=point))
        # Probe at, below or beside a mount point (or the root), and
        # non-canonical at times.
        bases = mounts + ["/"]
        probe = vpath.join(bases[pick % len(bases)], *extra) + trailing
        canonical = vpath.normalize(probe)
        best = brute_force_mount(mounts, canonical)
        fs, inner = namespace.resolve(probe)
        assert fs.label == best
        assert inner.startswith("/") and vpath.normalize(inner) == inner
        assert vpath.join(best, inner) == canonical
        point, covering = namespace.mount_for(probe)
        assert (point, covering) == (best, fs)

    @given(
        mounts=st.lists(abs_path.filter(lambda p: p != "/"), min_size=1, max_size=4, unique=True),
        probe=abs_path,
    )
    @settings(max_examples=50, deadline=None)
    def test_unshare_resolves_identically(self, mounts, probe):
        namespace = MountNamespace(Filesystem(label="root"))
        for point in mounts:
            namespace.mount(point, Filesystem(label=point))
        clone = namespace.unshare()
        original_fs, original_inner = namespace.resolve(probe)
        clone_fs, clone_inner = clone.resolve(probe)
        assert original_fs is clone_fs
        assert original_inner == clone_inner
