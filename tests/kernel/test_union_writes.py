"""Property tests: Aufs mutations through a 3-branch union.

The random branch trees are ``test_union_properties``'s (files,
directories, whiteouts, opaque directories, upper files that shadow lower
directories). The writable branch is on top; the two lower branches live
in a read-only filesystem, so a mutation that writes below fails loudly.
Lower inodes get assorted modes and owners, so a directory the union copies
into the writable branch shows whose mode and owner it took.

- ``mkdir(parents=True)`` must equal a component-by-component reference
  (repeated ``mkdir(parents=False)``): the same error, the same tree in
  every branch (whiteouts, opaque markers, modes and owners included) and
  the same number of ``Inode.touch`` calls.
- Every other mutation must change the union view exactly as the
  operation says, and nothing else, and must leave the lower branches
  untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    ReadOnlyFilesystem,
)
from repro.kernel import path as vpath
from repro.kernel.aufs import AufsMount, Branch
from repro.kernel.vfs import Credentials, Filesystem, Inode, InodeKind, ROOT_CRED

from tests.kernel.test_union_properties import NAMES, branch_tree, build

APP = Credentials(uid=1001, gid=1001)
ERRORS = (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    ReadOnlyFilesystem,
)
trees3 = st.lists(branch_tree, min_size=3, max_size=3)
paths = st.lists(st.sampled_from(NAMES), min_size=1, max_size=4).map(
    lambda names: "/" + "/".join(names)
)


def _vary(node: Inode, salt: int, path: str = "/") -> None:
    """Give every inode below ``node`` a mode and owner drawn from its path."""
    spread = (sum(map(ord, path)) + salt) % 4
    node.uid = node.gid = 2000 + spread
    if node.kind is InodeKind.DIR:
        node.mode = (0o700, 0o750, 0o755, 0o711)[spread]
    else:
        node.mode = (0o600, 0o640, 0o644, 0o604)[spread]
    for name, child in node.children.items():
        _vary(child, salt, vpath.join(path, name))


def make_union(trees, salt: int) -> Tuple[AufsMount, Filesystem, Filesystem]:
    top = Filesystem(label="top")
    low = Filesystem(label="low")
    branches = [
        Branch(top, "/", writable=True, label="b0"),
        Branch(low, "/l1", label="b1"),
        Branch(low, "/l2/deep", label="b2"),
    ]
    union = AufsMount(branches, always_allow_read=True, label="union")
    for branch, tree in zip(branches, trees):
        build(branch.fs, branch.root, tree)
    _vary(top.root, salt + 1)
    _vary(low.root, salt)
    low.read_only = True
    return union, top, low


def tree(node: Inode):
    return (
        node.kind,
        node.mode,
        node.uid,
        node.gid,
        bytes(node.data),
        {name: tree(child) for name, child in sorted(node.children.items())},
    )


def view(union: AufsMount, path: str = "/", out: Optional[Dict] = None) -> Dict:
    """Every visible path: a file's bytes, or None for a directory."""
    out = {} if out is None else out
    stat = union.stat(path, ROOT_CRED)
    if stat.is_file:
        out[path] = union.read_file(path, ROOT_CRED)
        return out
    out[path] = None
    for name in union.readdir(path, ROOT_CRED):
        view(union, vpath.join(path, name), out)
    return out


@contextmanager
def counting_touches():
    """Count ``Inode.touch`` calls inside a ``with`` block."""
    touched = []
    original = Inode.touch

    def touch(node):
        touched.append(node.ino)
        original(node)

    Inode.touch = touch
    try:
        yield touched
    finally:
        Inode.touch = original


def component_mkdirs(union: AufsMount, path: str, cred: Credentials, mode: int) -> None:
    """Reference ``mkdir -p``: one ``mkdir(parents=False)`` per component."""
    partial = "/"
    for component in vpath.split(path):
        partial = vpath.join(partial, component)
        try:
            union.mkdir(partial, cred, mode=mode)
        except FileExists:
            pass


@given(trees=trees3, salt=st.integers(0, 3), path=paths, mode=st.sampled_from([0o755, 0o700]))
@settings(max_examples=300, deadline=None)
def test_mkdir_parents_matches_component_by_component(trees, salt, path, mode):
    outcomes = []
    for mkdirs in (
        lambda union: union.mkdir(path, APP, mode=mode, parents=True),
        lambda union: component_mkdirs(union, path, APP, mode),
    ):
        union, top, low = make_union(trees, salt)
        with counting_touches() as touched:
            try:
                mkdirs(union)
                error = None
            except ERRORS as exc:
                error = (type(exc), str(exc))
        outcomes.append((error, len(touched), tree(top.root), tree(low.root)))
    assert outcomes[0] == outcomes[1]


def _parent_problem(before: Dict, path: str):
    """The error a create at ``path`` must raise, or None if its parent is
    a visible directory. A missing ancestor and a file on the way are the
    one ENOENT/ENOTDIR family here."""
    parent = vpath.parent(path)
    if parent in before and before[parent] is None:
        return None
    return (FileNotFound, NotADirectory)


def expected_change(before: Dict, op: str, path: str, new: Optional[str]):
    """The view after ``op`` and the error it must raise (None if none)."""
    after = dict(before)
    present = path in before
    is_dir = present and before[path] is None
    if op in ("create", "mkdir"):
        if present and (op == "mkdir" or is_dir):
            return before, FileExists if op == "mkdir" else IsADirectory
        if not present and _parent_problem(before, path):
            return before, _parent_problem(before, path)
        after[path] = b"new" if op == "create" else None
        return after, None
    if op == "append":
        if not present:
            return before, FileNotFound
        if is_dir:
            return before, IsADirectory
        after[path] = before[path] + b"+"
        return after, None
    if not present:
        return before, FileNotFound
    if op == "unlink":
        if is_dir:
            return before, IsADirectory
        del after[path]
        return after, None
    if op == "rmdir":
        if not is_dir:
            return before, NotADirectory
        if any(vpath.parent(p) == path for p in before if p != "/"):
            return before, DirectoryNotEmpty
        del after[path]
        return after, None
    assert op == "rename"
    # An empty directory at the new name is replaced, by a directory only.
    if new in before and not is_dir:
        return before, IsADirectory
    after.pop(new, None)
    moved = {p: v for p, v in before.items() if vpath.is_within(p, path)}
    for p in moved:
        del after[p]
    for p, v in moved.items():
        after[new + p[len(path):]] = v
    return after, None


OPS = ("create", "mkdir", "append", "unlink", "rmdir", "rename")


@pytest.mark.parametrize("op", OPS)
@given(trees=trees3, salt=st.integers(0, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutation_changes_exactly_its_view(op, trees, salt, data):
    union, top, low = make_union(trees, salt)
    before = view(union)
    # Each op mostly targets what it acts on; any visible entry and any
    # path at all cover its errors. A name that is not visible may be
    # whited out, or masked by an opaque directory, over lower entries.
    visible = sorted(p for p in before if p != "/")
    files = [p for p in visible if before[p] is not None]
    directories = [p for p in before if before[p] is None]
    fresh = [vpath.join(d, n) for d in directories for n in NAMES if vpath.join(d, n) not in before]
    targets = {
        "create": fresh,
        "mkdir": fresh,
        "append": files,
        "unlink": files,
        "rmdir": [p for p in visible if before[p] is None],
        "rename": visible,
    }[op]
    path = data.draw(
        st.one_of([st.sampled_from(c) for c in (targets, visible) if c] + [paths]), label="path"
    )
    new = None
    if op == "rename":
        # A visible entry moves to a fresh name in a visible directory, or
        # onto an empty visible directory, outside the entry itself.
        empty = [
            d for d in directories
            if d != "/" and not any(vpath.parent(p) == d for p in visible)
        ]
        names = [st.sampled_from(c) for c in (fresh, empty) if c]
        new = data.draw(st.one_of(names), label="new") if names else "/"
        if path not in before or new == "/" or vpath.is_within(new, path):
            return
    lower = tree(low.root)
    expected, error = expected_change(before, op, path, new)
    action = {
        "create": lambda: union.write_file(path, b"new", APP),
        "mkdir": lambda: union.mkdir(path, APP),
        "append": lambda: union.append_file(path, b"+", APP),
        "unlink": lambda: union.unlink(path, APP),
        "rmdir": lambda: union.rmdir(path, APP),
        "rename": lambda: union.rename(path, new, APP),
    }[op]
    if error is None:
        action()
    else:
        with pytest.raises(error):
            action()
    assert view(union) == expected
    assert tree(low.root) == lower
