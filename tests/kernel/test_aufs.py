"""Union filesystem tests: branch priority, copy-up, whiteouts, opaque
directories — the semantics Maxoid's views are built on."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    ReadOnlyFilesystem,
)
from repro.kernel.aufs import AufsMount, Branch, WHITEOUT_PREFIX
from repro.kernel.vfs import Credentials, Filesystem, ROOT_CRED

APP = Credentials(uid=1001)
OTHER = Credentials(uid=1002)


@pytest.fixture
def lower():
    fs = Filesystem(label="lower")
    fs.mkdir("/docs", ROOT_CRED, mode=0o777)
    fs.write_file("/docs/a.txt", b"lower-a", ROOT_CRED, mode=0o666)
    fs.write_file("/docs/b.txt", b"lower-b", ROOT_CRED, mode=0o666)
    fs.write_file("/top.txt", b"lower-top", ROOT_CRED, mode=0o666)
    return fs


@pytest.fixture
def upper():
    return Filesystem(label="upper")


@pytest.fixture
def union(lower, upper):
    return AufsMount(
        [
            Branch(upper, "/", writable=True, label="up"),
            Branch(lower, "/", writable=False, label="low"),
        ],
        label="test-union",
    )


class TestLookupPriority:
    def test_reads_fall_through_to_lower(self, union):
        assert union.read_file("/docs/a.txt", APP) == b"lower-a"

    def test_upper_shadows_lower(self, union, upper):
        upper.mkdir("/docs", ROOT_CRED)
        upper.write_file("/docs/a.txt", b"upper-a", ROOT_CRED)
        assert union.read_file("/docs/a.txt", APP) == b"upper-a"

    def test_missing_raises(self, union):
        with pytest.raises(FileNotFound):
            union.read_file("/docs/nope", APP)

    def test_readdir_merges_branches(self, union, upper):
        upper.mkdir("/docs", ROOT_CRED)
        upper.write_file("/docs/c.txt", b"upper-c", ROOT_CRED)
        assert union.readdir("/docs", APP) == ["a.txt", "b.txt", "c.txt"]

    def test_readdir_no_duplicates(self, union, upper):
        upper.mkdir("/docs", ROOT_CRED)
        upper.write_file("/docs/a.txt", b"upper-a", ROOT_CRED)
        assert union.readdir("/docs", APP) == ["a.txt", "b.txt"]

    def test_file_in_upper_shadows_lower_dir(self, union, upper):
        upper.write_file("/docs", b"now a file", ROOT_CRED)
        with pytest.raises(FileNotFound):
            union.read_file("/docs/a.txt", APP)


class TestCopyUp:
    def test_write_copies_up(self, union, lower, upper):
        union.append_file("/docs/a.txt", b"+app", APP)
        assert union.read_file("/docs/a.txt", APP) == b"lower-a+app"
        assert lower.read_file("/docs/a.txt", ROOT_CRED) == b"lower-a"
        assert upper.read_file("/docs/a.txt", ROOT_CRED) == b"lower-a+app"

    def test_copy_up_counted(self, union):
        assert union.copy_up_count == 0
        union.append_file("/docs/a.txt", b"x", APP)
        assert union.copy_up_count == 1
        assert union.copy_up_bytes == len(b"lower-a")

    def test_second_write_no_copy_up(self, union):
        union.append_file("/docs/a.txt", b"x", APP)
        union.append_file("/docs/a.txt", b"y", APP)
        assert union.copy_up_count == 1

    def test_truncate_write_replaces(self, union, lower):
        union.write_file("/docs/a.txt", b"new", APP)
        assert union.read_file("/docs/a.txt", APP) == b"new"
        assert lower.read_file("/docs/a.txt", ROOT_CRED) == b"lower-a"

    def test_copy_up_owner_is_writer(self, union, upper):
        union.append_file("/docs/a.txt", b"x", APP)
        assert upper.stat("/docs/a.txt", ROOT_CRED).uid == APP.uid

    def test_create_new_file_lands_in_upper(self, union, upper, lower):
        union.write_file("/docs/new.txt", b"fresh", APP)
        assert upper.read_file("/docs/new.txt", ROOT_CRED) == b"fresh"
        assert not lower.exists("/docs/new.txt", ROOT_CRED)

    def test_parent_dirs_replicated_on_copy_up(self, union, lower, upper):
        lower.mkdir("/deep/nest", ROOT_CRED, parents=True)
        lower.write_file("/deep/nest/f", b"v", ROOT_CRED, mode=0o666)
        union.append_file("/deep/nest/f", b"!", APP)
        assert upper.read_file("/deep/nest/f", ROOT_CRED) == b"v!"

    def test_no_writable_branch_raises(self, lower):
        union = AufsMount([Branch(lower, "/", writable=False)])
        with pytest.raises(ReadOnlyFilesystem):
            union.write_file("/x", b"y", APP)

    def test_two_writable_branches_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            AufsMount(
                [Branch(upper, "/", writable=True), Branch(lower, "/", writable=True)]
            )

    def test_writable_lower_branch_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            AufsMount([Branch(lower, "/"), Branch(upper, "/", writable=True)])


class TestWhiteouts:
    def test_unlink_lower_file_creates_whiteout(self, union, upper, lower):
        union.unlink("/docs/a.txt", APP)
        assert not union.exists("/docs/a.txt", APP)
        assert lower.exists("/docs/a.txt", ROOT_CRED)
        assert upper.exists(f"/docs/{WHITEOUT_PREFIX}a.txt", ROOT_CRED)

    def test_whiteout_hides_in_readdir(self, union):
        union.unlink("/docs/a.txt", APP)
        assert union.readdir("/docs", APP) == ["b.txt"]

    def test_unlink_upper_only_file_leaves_no_whiteout(self, union, upper):
        union.write_file("/docs/new.txt", b"x", APP)
        union.unlink("/docs/new.txt", APP)
        assert not upper.exists(f"/docs/{WHITEOUT_PREFIX}new.txt", ROOT_CRED)

    def test_unlink_shadowing_file_still_hides_lower(self, union, upper):
        union.append_file("/docs/a.txt", b"x", APP)  # copy-up
        union.unlink("/docs/a.txt", APP)
        assert not union.exists("/docs/a.txt", APP)

    def test_recreate_after_unlink(self, union):
        union.unlink("/docs/a.txt", APP)
        union.write_file("/docs/a.txt", b"reborn", APP)
        assert union.read_file("/docs/a.txt", APP) == b"reborn"

    def test_whiteout_entries_never_listed(self, union):
        union.unlink("/docs/a.txt", APP)
        for name in union.readdir("/docs", APP):
            assert not name.startswith(WHITEOUT_PREFIX)


class TestOpaqueDirectories:
    def test_rmdir_then_mkdir_hides_lower_contents(self, union, lower):
        # Remove the merged dir (must be empty first).
        union.unlink("/docs/a.txt", APP)
        union.unlink("/docs/b.txt", APP)
        union.rmdir("/docs", APP)
        assert not union.exists("/docs", APP)
        union.mkdir("/docs", APP)
        assert union.readdir("/docs", APP) == []
        # Lower still has its files.
        assert lower.exists("/docs/a.txt", ROOT_CRED)

    def test_rmdir_nonempty_raises(self, union):
        with pytest.raises(DirectoryNotEmpty):
            union.rmdir("/docs", APP)


class TestRename:
    def test_rename_lower_file(self, union, lower):
        union.rename("/docs/a.txt", "/docs/renamed.txt", APP)
        assert union.read_file("/docs/renamed.txt", APP) == b"lower-a"
        assert not union.exists("/docs/a.txt", APP)
        assert lower.exists("/docs/a.txt", ROOT_CRED)  # lower untouched

    def test_rename_directory(self, union):
        union.rename("/docs", "/papers", APP)
        assert union.read_file("/papers/a.txt", APP) == b"lower-a"
        assert not union.exists("/docs", APP)

    def test_directory_renamed_over_a_whiteout_hides_lower_entries(self, union, lower):
        lower.mkdir("/old", ROOT_CRED)
        lower.write_file("/old/ghost", b"g", ROOT_CRED)
        union.unlink("/old/ghost", ROOT_CRED)
        union.rmdir("/old", ROOT_CRED)
        union.rename("/docs", "/old", APP)
        assert union.readdir("/old", APP) == ["a.txt", "b.txt"]

    def test_file_renamed_onto_a_lower_non_empty_directory_raises(self, union, upper, lower):
        # As Filesystem.rename does: /d is a directory in the union
        # although the writable branch holds nothing of it.
        upper.write_file("/f", b"f", ROOT_CRED, mode=0o666)
        lower.mkdir("/d", ROOT_CRED, mode=0o777)
        lower.write_file("/d/inner", b"i", ROOT_CRED)
        with pytest.raises(IsADirectory):
            union.rename("/f", "/d", APP)
        assert union.read_file("/f", APP) == b"f"
        assert union.readdir("/d", APP) == ["inner"]
        assert not upper.exists("/d", ROOT_CRED)

    def test_directory_renamed_onto_a_directory_whiteouts_emptied(self, union, upper, lower):
        # As Filesystem.rename replaces an empty directory; the writable
        # branch's copy of /d holds only the whiteout of inner.
        lower.mkdir("/d", ROOT_CRED, mode=0o777)
        lower.write_file("/d/inner", b"i", ROOT_CRED, mode=0o666)
        union.unlink("/d/inner", APP)
        union.rename("/docs", "/d", APP)
        assert union.readdir("/d", APP) == ["a.txt", "b.txt"]
        assert union.read_file("/d/a.txt", APP) == b"lower-a"
        assert not union.exists("/docs", APP)
        # The deleted lower entry stays hidden under the new name.
        assert not union.exists("/d/inner", APP)
        assert upper.readdir("/d", ROOT_CRED) == [".wh..wh..opq", "a.txt", "b.txt"]
        assert lower.read_file("/d/inner", ROOT_CRED) == b"i"

    def test_file_renamed_onto_a_directory_whiteouts_emptied(self, union, upper, lower):
        # An empty directory is still a directory: rename(2) gives EISDIR.
        lower.mkdir("/d", ROOT_CRED, mode=0o777)
        lower.write_file("/d/inner", b"i", ROOT_CRED, mode=0o666)
        union.unlink("/d/inner", APP)
        with pytest.raises(IsADirectory):
            union.rename("/top.txt", "/d", APP)
        assert union.read_file("/top.txt", APP) == b"lower-top"
        assert union.readdir("/d", APP) == []

    def test_directory_renamed_onto_a_file_or_into_itself_raises(self, union):
        for new, error in (("/top.txt", NotADirectory), ("/docs/sub", InvalidArgument)):
            with pytest.raises(error):
                union.rename("/docs", new, APP)
        assert union.read_file("/top.txt", APP) == b"lower-top"
        assert union.readdir("/docs", APP) == ["a.txt", "b.txt"]

    def test_directory_renamed_onto_itself_is_kept(self, union):
        union.rename("/docs", "/docs", APP)
        assert union.readdir("/docs", APP) == ["a.txt", "b.txt"]


class TestPermissionsAndTheMaxoidPatch:
    def test_union_enforces_lower_modes_by_default(self, lower, upper):
        lower.mkdir("/priv", ROOT_CRED, mode=0o755)
        lower.write_file("/priv/s", b"secret", ROOT_CRED, mode=0o600)
        union = AufsMount(
            [Branch(upper, "/", writable=True), Branch(lower, "/", writable=False)]
        )
        with pytest.raises(PermissionDenied):
            union.read_file("/priv/s", APP)

    def test_always_allow_read_bypasses(self, lower, upper):
        lower.mkdir("/priv", ROOT_CRED, mode=0o755)
        lower.write_file("/priv/s", b"secret", ROOT_CRED, mode=0o600)
        union = AufsMount(
            [Branch(upper, "/", writable=True), Branch(lower, "/", writable=False)],
            always_allow_read=True,
        )
        assert union.read_file("/priv/s", APP) == b"secret"

    def test_always_allow_read_permits_copy_up_write(self, lower, upper):
        lower.write_file("/owned", b"orig", ROOT_CRED, mode=0o600)
        union = AufsMount(
            [Branch(upper, "/", writable=True), Branch(lower, "/", writable=False)],
            always_allow_read=True,
        )
        union.append_file("/owned", b"+d", APP)
        assert union.read_file("/owned", APP) == b"orig+d"
        assert lower.read_file("/owned", ROOT_CRED) == b"orig"


class TestSingleBranchMount:
    """Initiators get single-branch mounts (paper Table 2)."""

    def test_single_writable_branch_reads_and_writes(self, upper):
        union = AufsMount([Branch(upper, "/sub", writable=True, label="pub")])
        union.write_file("/f", b"x", APP)
        assert union.read_file("/f", APP) == b"x"
        assert upper.read_file("/sub/f", ROOT_CRED) == b"x"

    def test_describe(self, upper, lower):
        union = AufsMount(
            [
                Branch(upper, "/", writable=True, label="A/tmp"),
                Branch(lower, "/", writable=False, label="pub"),
            ]
        )
        assert union.describe() == ["A/tmp(rw)", "pub(ro)"]

    def test_branch_root_subdirectory(self, lower):
        lower.mkdir("/only/this", ROOT_CRED, parents=True)
        lower.write_file("/only/this/f", b"v", ROOT_CRED, mode=0o666)
        union = AufsMount([Branch(lower, "/only/this", writable=False)])
        assert union.read_file("/f", ROOT_CRED) == b"v"
        with pytest.raises(FileNotFound):
            union.read_file("/only", ROOT_CRED)
