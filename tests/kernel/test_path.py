"""Path utility tests."""

import doctest

import pytest

from repro.kernel import path as vpath


class TestNormalize:
    def test_root(self):
        assert vpath.normalize("/") == "/"

    def test_collapses_duplicate_slashes(self):
        assert vpath.normalize("//a///b") == "/a/b"

    def test_strips_trailing_slash(self):
        assert vpath.normalize("/a/b/") == "/a/b"

    def test_resolves_dot(self):
        assert vpath.normalize("/a/./b") == "/a/b"

    def test_resolves_dotdot(self):
        assert vpath.normalize("/a/b/../c") == "/a/c"

    def test_dotdot_past_root_clamps(self):
        assert vpath.normalize("/../../a") == "/a"

    def test_relative_input_becomes_absolute(self):
        assert vpath.normalize("a/b") == "/a/b"


class TestSplitJoin:
    def test_split_root(self):
        assert vpath.split("/") == ()

    def test_split_components(self):
        assert vpath.split("/a/b/c") == ("a", "b", "c")

    def test_join_fragments(self):
        assert vpath.join("/a", "b/c", "d") == "/a/b/c/d"

    def test_join_skips_empty(self):
        assert vpath.join("/a", "", "b") == "/a/b"

    def test_join_single(self):
        assert vpath.join("x") == "/x"


class TestParentBasename:
    def test_parent(self):
        assert vpath.parent("/a/b") == "/a"

    def test_parent_of_top_level(self):
        assert vpath.parent("/a") == "/"

    def test_parent_of_root(self):
        assert vpath.parent("/") == "/"

    def test_basename(self):
        assert vpath.basename("/a/b.txt") == "b.txt"

    def test_basename_of_root(self):
        assert vpath.basename("/") == ""


class TestContainment:
    def test_is_within_self(self):
        assert vpath.is_within("/a/b", "/a/b")

    def test_is_within_child(self):
        assert vpath.is_within("/a/b/c", "/a/b")

    def test_not_within_sibling_prefix(self):
        assert not vpath.is_within("/a/bc", "/a/b")

    def test_everything_within_root(self):
        assert vpath.is_within("/x", "/")

    def test_relative_to(self):
        assert vpath.relative_to("/a/b/c", "/a") == "b/c"

    def test_relative_to_self_is_empty(self):
        assert vpath.relative_to("/a", "/a") == ""

    def test_relative_to_root(self):
        assert vpath.relative_to("/a/b", "/") == "a/b"

    def test_relative_to_outside_raises(self):
        with pytest.raises(ValueError):
            vpath.relative_to("/x", "/a")


def test_module_doctests_pass():
    result = doctest.testmod(vpath)
    assert result.attempted > 0
    assert result.failed == 0
