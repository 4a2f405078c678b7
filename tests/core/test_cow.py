"""COW proxy tests (paper section 5.2)."""

import pytest

from repro.errors import SqlNameError
from repro.core.cow import CowProxy, VOLATILE_PK_BASE, initiator_key
from repro.obs import OBS
from repro.obs.provenance import Label

A = "com.dropbox.android"
B = "com.other.app"


@pytest.fixture
def proxy():
    p = CowProxy()
    p.create_table("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER DEFAULT 1)")
    for word in ("alpha", "beta", "gamma"):
        p.insert("words", None, {"word": word})
    return p


class TestNames:
    def test_initiator_key_sanitizes(self):
        assert initiator_key("com.dropbox.android") == "com_dropbox_android"

    def test_delta_and_view_names(self, proxy):
        assert proxy.delta_name("words", A) == "words_delta_com_dropbox_android"
        assert proxy.view_name("words", A) == "words_view_com_dropbox_android"


class TestLazyMaterialization:
    def test_no_delta_until_first_write(self, proxy):
        assert not proxy.has_delta("words", A)
        assert proxy.resolve("words", A) == "words"  # shared copy

    def test_first_write_creates_machinery(self, proxy):
        proxy.update("words", A, {"word": "BETA"}, "word = ?", ["beta"])
        assert proxy.has_delta("words", A)
        assert proxy.resolve("words", A) == proxy.view_name("words", A)
        assert proxy.stats.delta_tables_created == 1

    def test_table_without_pk_rejected(self):
        p = CowProxy()
        with pytest.raises(SqlNameError):
            p.create_table("CREATE TABLE nokey (a TEXT, b TEXT)")

    def test_machinery_created_once(self, proxy):
        proxy.update("words", A, {"word": "x"}, "word = ?", ["beta"])
        proxy.insert("words", A, {"word": "y"})
        assert proxy.stats.delta_tables_created == 1


class TestCopyOnWriteSemantics:
    def test_update_confined(self, proxy):
        proxy.update("words", A, {"word": "BETA"}, "word = ?", ["beta"])
        assert [r[1] for r in proxy.query("words", A, order_by="_id").rows] == [
            "alpha", "BETA", "gamma",
        ]
        assert [r[1] for r in proxy.query("words", None, order_by="_id").rows] == [
            "alpha", "beta", "gamma",
        ]

    def test_insert_allocates_above_offset(self, proxy):
        row_id = proxy.insert("words", A, {"word": "new"})
        assert row_id == VOLATILE_PK_BASE

    def test_insert_with_explicit_pk_returns_that_pk(self, proxy):
        assert proxy.insert("words", A, {"word": "b"}) == VOLATILE_PK_BASE
        delta = proxy.delta_name("words", A)
        with OBS.capture(prov=True) as obs:
            row_id = proxy.insert("words", A, {"_id": 77, "word": "c"})
            # Provenance stamps the row that was written, not the top key.
            assert Label.vol(A) in obs.provenance.taint_of((delta, 77))
            assert not obs.provenance.taint_of((delta, VOLATILE_PK_BASE))
        assert row_id == 77
        rows = dict((r[0], r[1]) for r in proxy.query("words", A).rows)
        assert rows[77] == "c" and rows[VOLATILE_PK_BASE] == "b"

    def test_delete_is_whiteout(self, proxy):
        proxy.delete("words", A, "_id = 1")
        ids = [r[0] for r in proxy.query("words", A).rows]
        assert 1 not in ids
        assert 1 in [r[0] for r in proxy.query("words", None).rows]

    def test_update_then_delete_of_same_row(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 2")
        proxy.delete("words", A, "_id = 2")
        assert 2 not in [r[0] for r in proxy.query("words", A).rows]

    def test_per_initiator_isolation(self, proxy):
        proxy.update("words", A, {"word": "for-A"}, "_id = 1")
        proxy.update("words", B, {"word": "for-B"}, "_id = 1")
        a_word = dict((r[0], r[1]) for r in proxy.query("words", A).rows)[1]
        b_word = dict((r[0], r[1]) for r in proxy.query("words", B).rows)[1]
        assert (a_word, b_word) == ("for-A", "for-B")

    def test_shared_until_cow_then_frozen(self, proxy):
        """Unilateral per-name COW: after the delegate touches row 2, it
        stops seeing public updates to row 2, but still sees updates to
        other rows (paper 3.3)."""
        proxy.update("words", A, {"word": "mine"}, "_id = 2")
        proxy.update("words", None, {"word": "beta2"}, "_id = 2")
        proxy.update("words", None, {"word": "gamma2"}, "_id = 3")
        view = dict((r[0], r[1]) for r in proxy.query("words", A).rows)
        assert view[2] == "mine"      # frozen at the volatile copy
        assert view[3] == "gamma2"    # still tracking public updates


class TestVolatileManagement:
    def test_volatile_rows(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 1")
        proxy.delete("words", A, "_id = 2")
        visible = proxy.volatile_rows("words", A)
        everything = proxy.volatile_rows("words", A, include_whiteouts=True)
        assert len(visible.rows) == 1
        assert len(everything.rows) == 2

    def test_volatile_rows_empty_without_delta(self, proxy):
        assert proxy.volatile_rows("words", A).rows == []

    def test_insert_volatile_by_initiator(self, proxy):
        row_id = proxy.insert_volatile("words", A, {"word": "mine"})
        assert row_id >= VOLATILE_PK_BASE
        assert "mine" not in [r[1] for r in proxy.query("words", None).rows]
        assert "mine" in [r[1] for r in proxy.query("words", A).rows]

    def test_commit_volatile_update(self, proxy):
        proxy.update("words", A, {"word": "edited"}, "_id = 1")
        assert proxy.commit_volatile("words", A, 1)
        assert dict((r[0], r[1]) for r in proxy.query("words", None).rows)[1] == "edited"

    def test_commit_volatile_insert_gets_public_key(self, proxy):
        row_id = proxy.insert("words", A, {"word": "fresh"})
        assert proxy.commit_volatile("words", A, row_id)
        public = proxy.query("words", None).rows
        fresh = [r for r in public if r[1] == "fresh"]
        assert fresh and fresh[0][0] < VOLATILE_PK_BASE

    def test_batch_commit_reads_the_journal_once(self, proxy, monkeypatch):
        # An entry left pending (say by an interrupted commit) holds key 50,
        # so the batch's fresh keys start above it, and the journal is read
        # once for the whole batch, not once per allocated key.
        row_ids = [proxy.insert("words", A, {"word": f"w{i}"}) for i in range(20)]
        proxy.update("words", A, {"word": "edited"}, "_id = 2")
        proxy.update("words", A, {"word": "first"}, "_id = 1")
        assert proxy.commit_volatile("words", A, 1)
        proxy.db.execute(
            "INSERT INTO _maxoid_journal (tbl, public_pk, sealed) VALUES ('words', 50, 1)"
        )
        statements = []
        execute = proxy.db.execute

        def counted(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        monkeypatch.setattr(proxy.db, "execute", counted)
        assert proxy.commit_volatile_batch("words", A, row_ids[:10] + [2] + row_ids[10:]) == 21
        assert sum("MAX(public_pk)" in sql for sql in statements) == 1
        monkeypatch.undo()
        public = {row[1]: row[0] for row in proxy.query("words", None).rows}
        assert [public[f"w{i}"] for i in range(20)] == list(range(51, 71))
        assert public["edited"] == 2

    def test_commit_missing_row_returns_false(self, proxy):
        assert not proxy.commit_volatile("words", A, 12345)

    def test_discard_volatile(self, proxy):
        proxy.update("words", A, {"word": "junk"}, "_id = 1")
        assert proxy.discard_volatile("words", A) == 1
        assert [r[1] for r in proxy.query("words", A, order_by="_id").rows] == [
            "alpha", "beta", "gamma",
        ]

    def test_discard_all_volatile(self, proxy):
        proxy.create_table("CREATE TABLE extra (_id INTEGER PRIMARY KEY, v TEXT)")
        proxy.update("words", A, {"word": "j"}, "_id = 1")
        proxy.insert("extra", A, {"v": "k"})
        assert proxy.discard_all_volatile(A) == 2

    def test_initiators_with_volatile_state(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 1")
        proxy.update("words", B, {"word": "y"}, "_id = 2")
        assert sorted(proxy.initiators_with_volatile_state("words")) == sorted(
            [initiator_key(A), initiator_key(B)]
        )


class TestAdminView:
    def test_admin_rows_tag_states(self, proxy):
        proxy.update("words", A, {"word": "mine"}, "_id = 1")
        rows = proxy.admin_rows("words")
        states = sorted(set(r["_state"] for r in rows))
        assert states == ["public", f"vol:{initiator_key(A)}"]
        assert len(rows) == 4

    def test_admin_includes_whiteouts(self, proxy):
        proxy.delete("words", A, "_id = 1")
        rows = proxy.admin_rows("words")
        whiteouts = [r for r in rows if r["_whiteout"]]
        assert len(whiteouts) == 1


class TestUserViewHierarchy:
    @pytest.fixture
    def media(self):
        p = CowProxy()
        p.create_table(
            "CREATE TABLE files (_id INTEGER PRIMARY KEY, _data TEXT, media_type INTEGER, title TEXT)"
        )
        p.create_user_view("images", "SELECT _id, _data, title FROM files WHERE media_type = 1")
        p.create_user_view("small_images", "SELECT _id, title FROM images WHERE _id < 100")
        return p

    def test_view_resolves_to_original_without_deltas(self, media):
        assert media.resolve("images", A) == "images"

    def test_cow_hierarchy_created_on_demand(self, media):
        media.insert("files", A, {"_data": "/x", "media_type": 1, "title": "t"})
        assert media.resolve("small_images", A) == media.view_name("small_images", A)
        # files delta + files view + images cow + small_images cow
        assert media.stats.cow_views_created == 3

    def test_nested_view_shows_volatile_rows(self, media):
        media.insert("files", None, {"_data": "/pub", "media_type": 1, "title": "pub"})
        media.insert("files", A, {"_data": "/vol", "media_type": 1, "title": "vol"})
        titles = [r[1] for r in media.query("small_images", A).rows]
        assert titles == ["pub"]  # volatile id >= 10M fails _id < 100
        titles_all = sorted(r[2] for r in media.query("images", A).rows)
        assert titles_all == ["pub", "vol"]

    def test_user_views_not_writable(self, media):
        with pytest.raises(SqlNameError):
            media.resolve("images", A, for_write=True)


class TestOrderByWorkaround:
    def test_projection_widened_and_stripped(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 2")
        result = proxy.query("words", A, projection=["word"], order_by="_id DESC")
        assert result.columns == ["word"]
        assert proxy.stats.order_by_workarounds == 1
        assert [r[0] for r in result.rows][-1] == "alpha"

    def test_no_workaround_for_public_queries(self, proxy):
        proxy.query("words", None, projection=["word"], order_by="_id")
        assert proxy.stats.order_by_workarounds == 0

    def test_no_workaround_when_order_column_projected(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 2")
        proxy.query("words", A, projection=["word", "_id"], order_by="_id")
        assert proxy.stats.order_by_workarounds == 0

    def test_flattening_preserved_by_workaround(self, proxy):
        proxy.update("words", A, {"word": "x"}, "_id = 2")
        proxy.db.stats.reset()
        proxy.query("words", A, projection=["word"], order_by="_id")
        assert proxy.db.stats.flattened_queries == 1
        assert proxy.db.stats.materialized_views == 0
