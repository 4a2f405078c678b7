"""Tests for the EXPLAIN-style plan description."""

import pytest

from repro.minisql import Database
from repro.minisql.planner import FLATTEN_NEVER_WITH_ORDER_BY, FLATTEN_ORDER_BY_SUBSET


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("INSERT INTO a (v) VALUES ('x'), ('y')")
    database.execute(
        "CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b"
    )
    database.execute("CREATE VIEW simple AS SELECT v FROM a")
    return database


class TestExplain:
    def test_table_scan_with_row_count(self, db):
        plan = db.explain("SELECT v FROM a")
        assert plan == ["SCAN a (2 rows)"]

    def test_flattened_view(self, db):
        plan = db.explain("SELECT v FROM u WHERE v = 'x'")
        assert plan[0] == "VIEW u (FLATTEN)"
        assert "SCAN a (2 rows)" in [line.strip() for line in plan]

    def test_materialized_view_under_3711(self, db):
        old = Database(sqlite_emulation=FLATTEN_NEVER_WITH_ORDER_BY)
        old.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
        plan = old.explain("SELECT v FROM u ORDER BY _id")
        assert plan[0] == "VIEW u (MATERIALIZE)"

    def test_footnote5_workaround_visible_in_plan(self, db):
        # Non-subset ORDER BY: materialize; widening the projection flips
        # it back to the flattened plan — the proxy's exact trick.
        db_386 = db
        materializing = db_386.explain("SELECT v FROM u ORDER BY _id")
        flattened = db_386.explain("SELECT v, _id FROM u ORDER BY _id")
        assert materializing[0] == "VIEW u (MATERIALIZE)"
        assert flattened[0] == "VIEW u (FLATTEN)"

    def test_simple_view_expands(self, db):
        plan = db.explain("SELECT v FROM simple")
        assert plan[0] == "VIEW simple (EXPAND)"

    def test_order_by_and_limit_noted(self, db):
        plan = db.explain("SELECT v FROM a ORDER BY v LIMIT 1")
        assert "ORDER BY 1 key(s)" in plan
        assert "LIMIT" in plan

    def test_subquery_in_from(self, db):
        plan = db.explain("SELECT x FROM (SELECT v AS x FROM a) sub")
        assert plan[0] == "SUBQUERY sub:"
        assert plan[1].strip() == "SCAN a (2 rows)"

    def test_constant_select(self, db):
        assert db.explain("SELECT 1") == ["CONSTANT ROW"]

    def test_non_select(self, db):
        assert db.explain("DELETE FROM a") == ["DELETE"]


def _cow_db(emulation=FLATTEN_ORDER_BY_SUBSET):
    """A primary table, its delta and the proxy's COW view over them."""
    database = Database(sqlite_emulation=emulation)
    database.execute("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER)")
    database.execute(
        "CREATE TABLE words_delta (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER, "
        "_whiteout INTEGER DEFAULT 0)"
    )
    database.executemany(
        "INSERT INTO words (word, freq) VALUES (?, ?)", [(f"w{i}", i) for i in range(20)]
    )
    database.execute("INSERT INTO words_delta (_id, word, freq) VALUES (3, 'mine', 1)")
    database.execute(
        "CREATE VIEW words_view AS "
        "SELECT _id, word, freq FROM words WHERE _id NOT IN (SELECT _id FROM words_delta) "
        "UNION ALL SELECT _id, word, freq FROM words_delta WHERE _whiteout = 0"
    )
    return database


def _stripped(plan):
    return [line.strip() for line in plan]


class TestIndexPlans:
    SEARCH_PRIMARY = "SEARCH words USING PRIMARY KEY (_id=?)"
    SEARCH_DELTA = "SEARCH words_delta USING PRIMARY KEY (_id=?)"

    def test_base_table_point_query_searches(self):
        db = _cow_db()
        assert db.explain("SELECT word FROM words WHERE _id = ?") == [self.SEARCH_PRIMARY]
        assert db.explain("SELECT word FROM words WHERE _id IN (1, ?)") == [
            self.SEARCH_PRIMARY
        ]

    def test_cow_point_query_searches_both_arms(self):
        db = _cow_db()
        plan = _stripped(db.explain("SELECT * FROM words_view WHERE _id = ?"))
        assert plan == ["VIEW words_view (FLATTEN)", self.SEARCH_PRIMARY, self.SEARCH_DELTA]
        db.stats.reset()
        assert db.execute("SELECT word FROM words_view WHERE _id = ?", [3]).rows == [("mine",)]
        assert db.execute("SELECT word FROM words_view WHERE _id = ?", [4]).rows == [("w3",)]
        # Two probes per query, plus one index answer for each NOT IN.
        assert db.stats.index_lookups == 6
        assert db.stats.rows_scanned == 3

    def test_key_term_inside_and_still_searches(self):
        db = _cow_db()
        plan = _stripped(db.explain("SELECT * FROM words_view WHERE (word LIKE ?) AND _id = ?"))
        assert plan[1:] == [self.SEARCH_PRIMARY, self.SEARCH_DELTA]

    @pytest.mark.parametrize(
        "emulation, sql",
        [
            # 3.8.6: an ORDER BY column outside the projection (footnote 5).
            (FLATTEN_ORDER_BY_SUBSET, "SELECT word FROM words_view WHERE _id = ? ORDER BY freq"),
            # 3.7.11: any ORDER BY over a projection.
            (
                FLATTEN_NEVER_WITH_ORDER_BY,
                "SELECT word, freq FROM words_view WHERE _id = ? ORDER BY freq",
            ),
        ],
    )
    def test_footnote5_materialize_gets_no_search(self, emulation, sql):
        db = _cow_db(emulation)
        plan = _stripped(db.explain(sql))
        assert plan[0] == "VIEW words_view (MATERIALIZE)"
        assert not any(line.startswith("SEARCH") for line in plan)
        db.stats.reset()
        db.execute(sql, [4])
        assert db.stats.rows_scanned == len(db.table("words")) + len(db.table("words_delta"))

    def test_widening_restores_the_search(self):
        db = _cow_db()
        plan = _stripped(
            db.explain("SELECT word, freq FROM words_view WHERE _id = ? ORDER BY freq")
        )
        assert plan[:3] == ["VIEW words_view (FLATTEN)", self.SEARCH_PRIMARY, self.SEARCH_DELTA]

    def test_arm_without_pushed_term_uses_its_own(self, db):
        db.execute(
            "CREATE VIEW pinned AS SELECT _id, v FROM a WHERE _id = 1 "
            "UNION ALL SELECT _id, v FROM b"
        )
        plan = _stripped(db.explain("SELECT v FROM pinned"))
        assert plan == [
            "VIEW pinned (FLATTEN)",
            "SEARCH a USING PRIMARY KEY (_id=?)",
            "SCAN b (0 rows)",
        ]
        db.stats.reset()
        assert db.execute("SELECT v FROM pinned").rows == [("x",)]
        assert db.stats.index_lookups == 1

    def test_aggregate_arm_gets_no_pushed_term(self, db):
        # The outer term filters the aggregate's output, not its input.
        db.execute(
            "CREATE VIEW counted AS SELECT _id, COUNT(*) AS n FROM a "
            "UNION ALL SELECT _id, 0 FROM b"
        )
        plan = _stripped(db.explain("SELECT * FROM counted WHERE _id = 2"))
        assert plan == [
            "VIEW counted (FLATTEN)",
            "SCAN a (2 rows)",
            "SEARCH b USING PRIMARY KEY (_id=?)",
        ]
        assert db.execute("SELECT * FROM counted WHERE _id = 1").rows == [(1, 2)]
        assert db.execute("SELECT * FROM counted WHERE _id = 2").rows == []

    def test_unary_plus_scans(self):
        db = _cow_db()
        assert db.explain("SELECT word FROM words WHERE +_id = ?") == ["SCAN words (20 rows)"]
        plan = _stripped(db.explain("SELECT * FROM words_view WHERE +_id = ?"))
        assert plan == [
            "VIEW words_view (FLATTEN)",
            "SCAN words (20 rows)",
            "SCAN words_delta (1 rows)",
        ]
