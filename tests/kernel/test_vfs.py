"""In-memory VFS tests: files, directories, permissions, rename."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    ReadOnlyFilesystem,
)
from repro.kernel import path as vpath
from repro.kernel.vfs import Credentials, Filesystem, Inode, ROOT_CRED

ALICE = Credentials(uid=1001)
BOB = Credentials(uid=1002)


@pytest.fixture
def fs():
    return Filesystem(label="test")


class TestFileBasics:
    def test_write_then_read(self, fs):
        fs.write_file("/hello.txt", b"hi", ROOT_CRED)
        assert fs.read_file("/hello.txt", ROOT_CRED) == b"hi"

    def test_overwrite_truncates(self, fs):
        fs.write_file("/f", b"long content", ROOT_CRED)
        fs.write_file("/f", b"x", ROOT_CRED)
        assert fs.read_file("/f", ROOT_CRED) == b"x"

    def test_append(self, fs):
        fs.write_file("/f", b"ab", ROOT_CRED)
        fs.append_file("/f", b"cd", ROOT_CRED)
        assert fs.read_file("/f", ROOT_CRED) == b"abcd"

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.read_file("/nope", ROOT_CRED)

    def test_open_without_create_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/nope", ROOT_CRED)

    def test_exclusive_create_on_existing_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        with pytest.raises(FileExists):
            fs.open("/f", ROOT_CRED, write=True, create=True, exclusive=True)

    def test_partial_read_and_seek(self, fs):
        fs.write_file("/f", b"0123456789", ROOT_CRED)
        with fs.open("/f", ROOT_CRED) as handle:
            assert handle.read(3) == b"012"
            assert handle.read(3) == b"345"
            handle.seek(0)
            assert handle.read() == b"0123456789"

    def test_write_at_offset(self, fs):
        fs.write_file("/f", b"aaaa", ROOT_CRED)
        with fs.open("/f", ROOT_CRED, read=False, write=True) as handle:
            handle.seek(2)
            handle.write(b"bb")
        assert fs.read_file("/f", ROOT_CRED) == b"aabb"

    def test_write_past_end_zero_fills(self, fs):
        fs.write_file("/f", b"", ROOT_CRED)
        with fs.open("/f", ROOT_CRED, read=False, write=True) as handle:
            handle.seek(4)
            handle.write(b"x")
        assert fs.read_file("/f", ROOT_CRED) == b"\x00\x00\x00\x00x"

    def test_truncate(self, fs):
        fs.write_file("/f", b"0123456789", ROOT_CRED)
        with fs.open("/f", ROOT_CRED, write=True) as handle:
            handle.truncate(4)
        assert fs.read_file("/f", ROOT_CRED) == b"0123"

    def test_closed_handle_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        handle = fs.open("/f", ROOT_CRED)
        handle.close()
        with pytest.raises(BadFileDescriptor):
            handle.read()

    def test_read_on_writeonly_handle_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        handle = fs.open("/f", ROOT_CRED, read=False, write=True)
        with pytest.raises(BadFileDescriptor):
            handle.read()

    def test_write_on_readonly_handle_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        handle = fs.open("/f", ROOT_CRED)
        with pytest.raises(BadFileDescriptor):
            handle.write(b"y")


class TestDirectories:
    def test_mkdir_and_readdir(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        fs.write_file("/d/a", b"1", ROOT_CRED)
        fs.write_file("/d/b", b"2", ROOT_CRED)
        assert fs.readdir("/d", ROOT_CRED) == ["a", "b"]

    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c", ROOT_CRED, parents=True)
        assert fs.stat("/a/b/c", ROOT_CRED).is_dir

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        with pytest.raises(FileExists):
            fs.mkdir("/d", ROOT_CRED)

    def test_mkdir_missing_parent_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.mkdir("/a/b", ROOT_CRED)

    def test_open_directory_raises(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        with pytest.raises(IsADirectory):
            fs.open("/d", ROOT_CRED)

    def test_readdir_on_file_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        with pytest.raises(NotADirectory):
            fs.readdir("/f", ROOT_CRED)

    def test_traverse_through_file_raises(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        with pytest.raises(NotADirectory):
            fs.read_file("/f/child", ROOT_CRED)

    def test_rmdir_empty(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        fs.rmdir("/d", ROOT_CRED)
        assert not fs.exists("/d", ROOT_CRED)

    def test_rmdir_nonempty_raises(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        fs.write_file("/d/f", b"x", ROOT_CRED)
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d", ROOT_CRED)

    def test_unlink_directory_raises(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        with pytest.raises(IsADirectory):
            fs.unlink("/d", ROOT_CRED)


def _component_mkdirs(fs, path, cred, mode):
    """Reference ``mkdir -p``: one ``exists`` and one ``mkdir`` per
    component, each resolved from the root."""
    if fs.read_only:
        raise ReadOnlyFilesystem(fs.label)
    partial = "/"
    for component in vpath.split(path):
        partial = vpath.join(partial, component)
        if not fs.exists(partial, cred):
            fs.mkdir(partial, cred, mode=mode)


def _tree(node):
    return (
        node.kind,
        node.mode,
        node.uid,
        node.gid,
        bytes(node.data),
        {name: _tree(child) for name, child in sorted(node.children.items())},
    )


def _seed_home(fs):
    fs.mkdir("/home", ROOT_CRED, mode=0o777)
    fs.mkdir("/home/a/b", ROOT_CRED, parents=True)
    fs.mkdir("/home/own", ALICE)
    fs.write_file("/home/file", b"f", ROOT_CRED)
    fs.mkdir("/locked", ROOT_CRED, mode=0o700)
    fs.mkdir("/shut", ROOT_CRED, mode=0o755)


class TestMkdirParents:
    """``mkdir(parents=True)`` walks once and matches the reference."""

    @pytest.mark.parametrize(
        "path, cred, mode",
        [
            ("/home/x/y/z", ROOT_CRED, 0o755),  # nested, all missing
            ("/home/own/c/d", ALICE, 0o750),  # partly existing
            ("/home/a/b", ALICE, 0o755),  # fully existing
            ("/home/a/b/c", ALICE, 0o755),  # create denied deeper down
            ("/home/file", ALICE, 0o755),  # leaf is a file
            ("/home/file/x", ALICE, 0o755),  # file on the way
            ("/home/file/x", ROOT_CRED, 0o755),
            ("/locked/x/y", ALICE, 0o755),  # search denied
            ("/locked/x/y", ROOT_CRED, 0o755),  # root passes
            ("/shut/x", ALICE, 0o755),  # create denied
            ("/home/n/m", ALICE, 0o600),  # new dir not searchable
            ("/home/n/m", ALICE, 0o500),  # new dir not writable
            ("/", ALICE, 0o755),
        ],
    )
    def test_matches_component_by_component(self, path, cred, mode, monkeypatch):
        outcomes = []
        for mkdirs in (
            lambda fs: fs.mkdir(path, cred, mode=mode, parents=True),
            lambda fs: _component_mkdirs(fs, path, cred, mode),
        ):
            fs = Filesystem(label="t")
            _seed_home(fs)
            touched = []
            original = Inode.touch

            def counting_touch(node, original=original, touched=touched):
                touched.append(node.ino)
                original(node)

            monkeypatch.setattr(Inode, "touch", counting_touch)
            try:
                mkdirs(fs)
                error = None
            except (NotADirectory, PermissionDenied, FileExists) as exc:
                error = (type(exc), str(exc))
            monkeypatch.setattr(Inode, "touch", original)
            outcomes.append((error, len(touched), _tree(fs.root)))
        assert outcomes[0] == outcomes[1]

    def test_read_only_filesystem_refuses(self):
        fs = Filesystem(read_only=True)
        with pytest.raises(ReadOnlyFilesystem):
            fs.mkdir("/", ROOT_CRED, parents=True)


class TestClear:
    def test_drops_subtree_keeps_directory_counts_files(self, fs):
        fs.mkdir("/v/a/b", ROOT_CRED, parents=True)
        fs.mkdir("/v/empty", ROOT_CRED)
        fs.write_file("/v/f", b"1", ROOT_CRED)
        fs.write_file("/v/a/g", b"2", ROOT_CRED)
        fs.write_file("/v/a/b/.wh.h", b"", ROOT_CRED)
        before = fs.stat("/v", ROOT_CRED).mtime
        assert fs.clear("/v") == 3
        assert fs.readdir("/v", ROOT_CRED) == []
        assert fs.stat("/v", ROOT_CRED).mtime > before

    def test_missing_or_empty_directory_clears_nothing(self, fs):
        assert fs.clear("/nowhere") == 0
        fs.mkdir("/d", ROOT_CRED)
        mtime = fs.stat("/d", ROOT_CRED).mtime
        assert fs.clear("/d") == 0
        assert fs.stat("/d", ROOT_CRED).mtime == mtime

    def test_file_is_not_a_directory(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        with pytest.raises(NotADirectory):
            fs.clear("/f")


class TestUnlinkRename:
    def test_unlink(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        fs.unlink("/f", ROOT_CRED)
        assert not fs.exists("/f", ROOT_CRED)

    def test_unlink_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.unlink("/nope", ROOT_CRED)

    def test_rename_file(self, fs):
        fs.write_file("/a", b"data", ROOT_CRED)
        fs.rename("/a", "/b", ROOT_CRED)
        assert not fs.exists("/a", ROOT_CRED)
        assert fs.read_file("/b", ROOT_CRED) == b"data"

    def test_rename_directory(self, fs):
        fs.mkdir("/d", ROOT_CRED)
        fs.write_file("/d/f", b"x", ROOT_CRED)
        fs.rename("/d", "/e", ROOT_CRED)
        assert fs.read_file("/e/f", ROOT_CRED) == b"x"

    def test_rename_over_existing_file(self, fs):
        fs.write_file("/a", b"new", ROOT_CRED)
        fs.write_file("/b", b"old", ROOT_CRED)
        fs.rename("/a", "/b", ROOT_CRED)
        assert fs.read_file("/b", ROOT_CRED) == b"new"

    def test_rename_follows_posix(self, fs):
        """EINVAL into its own subtree, EISDIR file onto a directory,
        ENOTDIR directory onto a file; nothing moves."""
        fs.mkdir("/d/s", ROOT_CRED, parents=True)
        fs.mkdir("/empty", ROOT_CRED)
        fs.write_file("/f", b"x", ROOT_CRED)
        for old, new, error in (
            ("/d", "/d/s/x", InvalidArgument),
            ("/f", "/empty", IsADirectory),
            ("/d", "/f", NotADirectory),
        ):
            with pytest.raises(error):
                fs.rename(old, new, ROOT_CRED)
        assert fs.readdir("/", ROOT_CRED) == ["d", "empty", "f"]
        assert fs.readdir("/d", ROOT_CRED) == ["s"]
        fs.rename("/d", "/d", ROOT_CRED)
        assert fs.readdir("/d", ROOT_CRED) == ["s"]


class TestPermissions:
    def test_owner_reads_0600(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/secret", b"s", ALICE, mode=0o600)
        assert fs.read_file("/home/secret", ALICE) == b"s"

    def test_other_cannot_read_0600(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/secret", b"s", ALICE, mode=0o600)
        with pytest.raises(PermissionDenied):
            fs.read_file("/home/secret", BOB)

    def test_root_bypasses_modes(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/secret", b"s", ALICE, mode=0o600)
        assert fs.read_file("/home/secret", ROOT_CRED) == b"s"

    def test_other_can_read_0644(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/pub", b"p", ALICE, mode=0o644)
        assert fs.read_file("/home/pub", BOB) == b"p"

    def test_other_cannot_write_0644(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/pub", b"p", ALICE, mode=0o644)
        with pytest.raises(PermissionDenied):
            fs.append_file("/home/pub", b"x", BOB)

    def test_search_permission_needed_for_traversal(self, fs):
        fs.mkdir("/locked", ROOT_CRED, mode=0o700)
        fs.write_file("/locked/f", b"x", ROOT_CRED, mode=0o666)
        with pytest.raises(PermissionDenied):
            fs.read_file("/locked/f", ALICE)

    def test_non_listable_but_traversable_dir(self, fs):
        # The Google Drive cache pattern: mode 0711 directory.
        fs.mkdir("/cache", ROOT_CRED, mode=0o711)
        fs.write_file("/cache/rand123", b"data", ROOT_CRED, mode=0o644)
        assert fs.read_file("/cache/rand123", ALICE) == b"data"
        with pytest.raises(PermissionDenied):
            fs.readdir("/cache", ALICE)

    def test_cannot_create_in_unwritable_dir(self, fs):
        fs.mkdir("/ro", ROOT_CRED, mode=0o755)
        with pytest.raises(PermissionDenied):
            fs.write_file("/ro/f", b"x", ALICE)

    def test_chown_requires_root(self, fs):
        fs.write_file("/f", b"x", ROOT_CRED)
        with pytest.raises(PermissionDenied):
            fs.chown("/f", ALICE.uid, cred=ALICE)

    def test_chmod_by_owner(self, fs):
        fs.mkdir("/home", ROOT_CRED, mode=0o777)
        fs.write_file("/home/f", b"x", ALICE, mode=0o600)
        fs.chmod("/home/f", 0o644, cred=ALICE)
        assert fs.read_file("/home/f", BOB) == b"x"


class TestReadOnlyFilesystem:
    def test_write_raises(self):
        fs = Filesystem(read_only=True)
        with pytest.raises(ReadOnlyFilesystem):
            fs.write_file("/f", b"x", ROOT_CRED)

    def test_mkdir_raises(self):
        fs = Filesystem(read_only=True)
        with pytest.raises(ReadOnlyFilesystem):
            fs.mkdir("/d", ROOT_CRED)


class TestMetadata:
    def test_mtime_bumps_on_write(self, fs):
        fs.write_file("/f", b"a", ROOT_CRED)
        first = fs.stat("/f", ROOT_CRED).mtime
        fs.append_file("/f", b"b", ROOT_CRED)
        assert fs.stat("/f", ROOT_CRED).mtime > first

    def test_stat_size(self, fs):
        fs.write_file("/f", b"abcde", ROOT_CRED)
        assert fs.stat("/f", ROOT_CRED).size == 5

    def test_tree_size_counts_inodes(self, fs):
        fs.mkdir("/a/b", ROOT_CRED, parents=True)
        fs.write_file("/a/b/f", b"x", ROOT_CRED)
        # root + a + b + f
        assert fs.tree_size() == 4

    def test_walk(self, fs):
        fs.mkdir("/a/b", ROOT_CRED, parents=True)
        fs.write_file("/a/f1", b"x", ROOT_CRED)
        fs.write_file("/a/b/f2", b"y", ROOT_CRED)
        walked = list(fs.walk("/a", ROOT_CRED))
        assert walked[0] == ("/a", ["b"], ["f1"])
        assert walked[1] == ("/a/b", [], ["f2"])
