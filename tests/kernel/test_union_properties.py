"""Property test: Aufs masking through a 3-branch union against a model.

Random branch trees hold files, directories, whiteouts (``.wh.<name>``),
opaque directories (``.wh..wh..opq``), and upper files that shadow lower
directories. The model below reads the union rules straight off those trees:
walking a path top-down, a branch's entry joins the view unless a higher
branch already stopped the walk, and a whiteout, a file, or an opaque
directory stops it for every lower branch.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileNotFound, NotADirectory
from repro.kernel import path as vpath
from repro.kernel.aufs import AufsMount, Branch, OPAQUE_MARKER, WHITEOUT_PREFIX
from repro.kernel.vfs import Filesystem, ROOT_CRED

NAMES = ("a", "b", "c")
FILE = "file"
WHITEOUT = "whiteout"

# A directory is (children, opaque); a child is FILE, WHITEOUT (the branch
# holds ".wh.<name>" and not the name) or a directory.


def directory(depth: int, opaque=st.booleans()):
    leaf = st.sampled_from([FILE, WHITEOUT])
    child = leaf if depth == 0 else st.one_of(leaf, directory(depth - 1))
    children = st.dictionaries(st.sampled_from(NAMES), child, min_size=1, max_size=3)
    return st.tuples(children, opaque)


# Branch roots are never opaque: Aufs marks a directory opaque only when it
# is recreated over a deleted one.
branch_tree = directory(2, opaque=st.just(False))
# Every union path the trees can hold, so each drawn tree is probed whole.
PROBES = [c for depth in range(4) for c in itertools.product(NAMES, repeat=depth)]


def build(fs: Filesystem, root: str, tree) -> None:
    children, opaque = tree
    if opaque:
        fs.write_file(vpath.join(root, OPAQUE_MARKER), b"", ROOT_CRED)
    for name, entry in children.items():
        target = vpath.join(root, name)
        if entry == FILE:
            fs.write_file(target, target.encode(), ROOT_CRED)
        elif entry == WHITEOUT:
            fs.write_file(vpath.join(root, WHITEOUT_PREFIX + name), b"", ROOT_CRED)
        else:
            fs.mkdir(target, ROOT_CRED)
            build(fs, target, entry)


def model_layers(trees, components) -> List[Tuple[int, object]]:
    """The branches whose entry at ``components`` shows in the union, in
    priority order; the first is the visible one."""
    layers = list(enumerate(trees))
    for name in components:
        below = []
        for index, node in layers:
            if node == FILE:
                continue
            entry = node[0].get(name)
            if entry == WHITEOUT:
                break
            if entry is None:
                continue
            below.append((index, entry))
            if entry == FILE or entry[1]:
                break
        layers = below
    return layers


def model_readdir(layers) -> List[str]:
    names, hidden = set(), set()
    for _, node in layers:
        if node == FILE:
            break
        children, _ = node
        names |= {n for n, e in children.items() if e != WHITEOUT and n not in hidden}
        hidden |= {n for n, e in children.items() if e == WHITEOUT}
    return sorted(names)


def model_branches_scanned(trees, components) -> int:
    """Branches ``_find`` visits: up to the first that holds the path at
    all, masked or not, else every branch."""
    for index, node in enumerate(trees):
        for name in components:
            node = node[0].get(name) if node != FILE else None
            if node is None or node == WHITEOUT:
                break
        else:
            return index + 1
    return len(trees)


@given(trees=st.lists(branch_tree, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_union_matches_masking_model(trees):
    top = Filesystem(label="top")
    low = Filesystem(label="low")
    branches = [
        Branch(top, "/", writable=True, label="b0"),
        Branch(low, "/l1", label="b1"),
        Branch(low, "/l2/deep", label="b2"),
    ]
    union = AufsMount(branches, label="union")
    for branch, tree in zip(branches, trees):
        build(branch.fs, branch.root, tree)

    for components in PROBES:
        path = "/" + "/".join(components)
        layers = model_layers(trees, components)
        scanned = model_branches_scanned(trees, components)
        for op in ("exists", "stat", "readdir"):
            before = union.lookup_branches_scanned
            if op == "exists":
                assert union.exists(path, ROOT_CRED) == bool(layers)
            elif not layers:
                with pytest.raises(FileNotFound):
                    getattr(union, op)(path, ROOT_CRED)
            elif op == "stat":
                index = layers[0][0]
                branch = branches[index]
                expected = branch.fs.stat(branch.path(path), ROOT_CRED)
                assert union.stat(path, ROOT_CRED) == expected
            elif layers[0][1] == FILE:
                with pytest.raises(NotADirectory):
                    union.readdir(path, ROOT_CRED)
            else:
                assert union.readdir(path, ROOT_CRED) == model_readdir(layers)
            assert union.lookup_branches_scanned - before == scanned
