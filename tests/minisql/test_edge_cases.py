"""Edge-case and semantics tests for the mini SQL engine."""

import sqlite3

import pytest

from repro.errors import SqlError, SqlNameError
from repro.minisql import Database, engine


@pytest.fixture
def db():
    return Database()


class TestThreeValuedLogic:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("NULL AND 0", 0),        # false short-circuits
            ("NULL AND 1", None),
            ("NULL OR 1", 1),         # true short-circuits
            ("NULL OR 0", None),
            ("NOT NULL", None),
            ("NULL = NULL", None),
            ("NULL + 1", None),
            ("NULL || 'x'", None),
        ],
    )
    def test_truth_table(self, db, expr, expected):
        assert db.execute(f"SELECT {expr}").scalar() == expected

    def test_where_treats_unknown_as_false(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t (v) VALUES (NULL), (1)")
        assert len(db.execute("SELECT id FROM t WHERE v > 0").rows) == 1

    def test_in_list_with_null_member(self, db):
        # 2 IN (1, NULL) is unknown, not false.
        assert db.execute("SELECT 2 IN (1, NULL)").scalar() is None
        assert db.execute("SELECT 1 IN (1, NULL)").scalar() == 1


class TestTypeCoercion:
    def test_integer_float_equality(self, db):
        assert db.execute("SELECT 1 = 1.0").scalar() == 1

    def test_cross_type_ordering(self, db):
        # SQLite ordering: numeric < text < blob.
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v)")
        db.execute("INSERT INTO t (v) VALUES (?), (?), (?)", ["text", 5, b"blob"])
        ordered = [r[0] for r in db.execute("SELECT v FROM t ORDER BY v").rows]
        assert ordered == [5, "text", b"blob"]

    def test_integer_division_truncates(self, db):
        assert db.execute("SELECT 7 / 2").scalar() == 3
        assert db.execute("SELECT -7 / 2").scalar() == -3  # truncate toward zero

    def test_float_division(self, db):
        assert db.execute("SELECT 7.0 / 2").scalar() == 3.5

    def test_modulo(self, db):
        assert db.execute("SELECT 7 % 3").scalar() == 1
        assert db.execute("SELECT 7 % 0").scalar() is None


class TestStringsAndQuoting:
    def test_embedded_quote(self, db):
        assert db.execute("SELECT 'it''s'").scalar() == "it's"

    def test_quoted_identifier_keyword_column(self, db):
        db.execute('CREATE TABLE t (id INTEGER PRIMARY KEY, "select" TEXT)')
        db.execute('INSERT INTO t ("select") VALUES (?)', ["v"])
        assert db.execute('SELECT "select" FROM t').scalar() == "v"

    def test_text_as_column_name(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, text TEXT)")
        db.execute("INSERT INTO t (text) VALUES ('hello')")
        assert db.execute("SELECT text FROM t WHERE text = 'hello'").scalar() == "hello"

    def test_like_escaping_behaviour(self, db):
        assert db.execute("SELECT 'a.c' LIKE 'a.c'").scalar() == 1
        assert db.execute("SELECT 'abc' LIKE 'a.c'").scalar() == 0  # '.' is literal
        assert db.execute("SELECT 'ABC' LIKE 'abc'").scalar() == 1  # case-insensitive

    def test_like_underscore(self, db):
        assert db.execute("SELECT 'cat' LIKE 'c_t'").scalar() == 1


LIKE_WORDS = (
    "apfel", "Apfel", "äpfel", "Äpfel", "straße", "STRASSE", "école", "ÉCOLE",
    "kelvin", "\u212aelvin", "stop", "\u017ftop", "istanbul", "\u0130stanbul",
)


@pytest.mark.parametrize(
    "pattern",
    ["a%", "A%", "%PFEL", "_pfel", "ä%", "Ä%", "_PFEL", "%SS%", "%ß%", "é%",
     "%COLE", "K%", "S%", "I%", "%"],
)
def test_like_folds_ascii_case_only_as_sqlite_does(db, pattern):
    """SQLite's built-in LIKE is case-insensitive for ASCII letters only:
    ``'ä' LIKE 'Ä'`` is false, and the Kelvin sign does not match ``K``."""
    reference = sqlite3.connect(":memory:")
    for engine_db in (db, reference):
        engine_db.execute("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT)")
        for word in LIKE_WORDS:
            engine_db.execute("INSERT INTO words (word) VALUES (?)", [word])
    query = "SELECT word FROM words WHERE word LIKE ? ORDER BY _id"
    expected = [row[0] for row in reference.execute(query, [pattern])]
    assert [row[0] for row in db.execute(query, [pattern]).rows] == expected


class TestCompoundAndLimits:
    def test_union_all_preserves_duplicates(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t (v) VALUES (1)")
        result = db.execute("SELECT v FROM t UNION ALL SELECT v FROM t")
        assert result.rows == [(1,), (1,)]

    def test_union_all_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        with pytest.raises(SqlError):
            db.execute("SELECT id, v FROM t UNION ALL SELECT id FROM t")

    def test_limit_zero(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.execute("SELECT * FROM t LIMIT 0").rows == []

    def test_offset_past_end(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.execute("SELECT * FROM t LIMIT 10 OFFSET 5").rows == []

    def test_limit_comma_form(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.executemany("INSERT INTO t (id) VALUES (?)", [(i,) for i in range(1, 6)])
        # LIMIT offset, count
        result = db.execute("SELECT id FROM t ORDER BY id LIMIT 1, 2")
        assert result.rows == [(2,), (3,)]

    def test_order_by_multiple_keys(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
        db.executemany(
            "INSERT INTO t (a, b) VALUES (?, ?)", [(1, 2), (1, 1), (0, 9)]
        )
        result = db.execute("SELECT a, b FROM t ORDER BY a, b DESC")
        assert result.rows == [(0, 9), (1, 2), (1, 1)]


class TestSubqueries:
    def test_in_select_empty_result(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.execute("SELECT id FROM t WHERE id IN (SELECT id FROM u)").rows == []
        assert len(db.execute("SELECT id FROM t WHERE id NOT IN (SELECT id FROM u)").rows) == 1

    def test_exists_correlated(self, db):
        db.execute("CREATE TABLE parents (id INTEGER PRIMARY KEY, name TEXT)")
        db.execute("CREATE TABLE kids (id INTEGER PRIMARY KEY, parent INTEGER)")
        db.executemany("INSERT INTO parents (name) VALUES (?)", [("a",), ("b",)])
        db.execute("INSERT INTO kids (parent) VALUES (1)")
        result = db.execute(
            "SELECT name FROM parents p WHERE EXISTS "
            "(SELECT 1 FROM kids WHERE kids.parent = p.id)"
        )
        assert result.rows == [("a",)]

    def test_uncorrelated_subquery_cached_once(self, db):
        db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY)")
        db.executemany("INSERT INTO big (id) VALUES (?)", [(i,) for i in range(1, 101)])
        db.execute("CREATE TABLE small (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO small (id) VALUES (50)")
        db.stats.reset()
        result = db.execute("SELECT COUNT(*) FROM big WHERE id NOT IN (SELECT id FROM small)")
        assert result.scalar() == 99
        # The subquery is answered once from `small`'s primary-key index,
        # not once per outer row, and `small` is never scanned.
        assert db.stats.index_lookups == 1
        assert db.stats.rows_scanned == 100

    def test_scalar_subquery_empty_is_null(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        assert db.execute("SELECT (SELECT id FROM t)").scalar() is None

    def test_from_subquery(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.executemany("INSERT INTO t (v) VALUES (?)", [(3,), (1,), (2,)])
        result = db.execute(
            "SELECT doubled FROM (SELECT v * 2 AS doubled FROM t) sub WHERE doubled > 3"
        )
        assert sorted(r[0] for r in result.rows) == [4, 6]


class TestErrors:
    def test_too_few_parameters(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM t WHERE v = ? AND id = ?", ["only-one"])

    def test_insert_into_unknown_column(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(SqlNameError):
            db.execute("INSERT INTO t (ghost) VALUES (1)")

    def test_update_unknown_column(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        with pytest.raises(SqlNameError):
            db.execute("UPDATE t SET ghost = 1")

    def test_aggregate_in_where_rejected(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t (id) VALUES (1)")
        with pytest.raises(SqlError):
            db.execute("SELECT id FROM t WHERE COUNT(*) > 0")

    def test_duplicate_table(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(SqlNameError):
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY)")  # ok

    def test_drop_missing_without_if_exists(self, db):
        with pytest.raises(SqlNameError):
            db.execute("DROP TABLE missing")
        db.execute("DROP TABLE IF EXISTS missing")  # ok


class TestStatementCache:
    def test_repeated_statements_reuse_parse(self, db, monkeypatch):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        sql = "INSERT INTO t (v) VALUES (?)"
        parses = _count_parses(monkeypatch)
        for index in range(5):
            db.execute(sql, [f"v{index}"])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5
        assert parses.count(sql) == 1

    def test_cache_eviction_at_limit(self, monkeypatch):
        monkeypatch.setattr(engine, "STATEMENT_CACHE_LIMIT", 4)
        monkeypatch.setattr(engine, "_statements", {})
        db = Database()
        for index in range(6):
            db.execute(f"SELECT {index}")
            assert len(engine._statements) <= 4
        assert db.execute("SELECT 5").scalar() == 5

    def test_databases_share_parses(self, monkeypatch):
        sql = "SELECT COUNT(*) FROM shared_t"
        parses = _count_parses(monkeypatch)
        for _ in range(2):
            db = Database()
            db.execute("CREATE TABLE shared_t (id INTEGER PRIMARY KEY)")
            assert db.execute(sql).scalar() == 0
        assert parses.count(sql) == 1


def _count_parses(monkeypatch) -> list:
    """Empty the statement cache and record the text of every parse it
    makes from now on."""
    monkeypatch.setattr(engine, "_statements", {})
    parses: list = []
    real_parse = engine.parse

    def counting(sql):
        parses.append(sql)
        return real_parse(sql)

    monkeypatch.setattr(engine, "parse", counting)
    return parses
