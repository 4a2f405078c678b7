"""The row-by-reference scan kernel and the shared statement cache.

A query over a flattened UNION ALL view tests each stored arm row in
place: view column *i* is read through arm item *i*. The oracle is the
same query forced to MATERIALIZE (SQLite 3.7.11 emulation plus an ORDER
BY), which evaluates the view whole and tests the outer WHERE on copies.
Correlated EXISTS and scalar subqueries read the flattened view's row by
bare and by view-qualified name.

Parsed statements are shared by every database in the process; the COW
proxy's per-initiator rewrite of a user view must never touch the shared
tree or inherit the closures compiled from it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cow import CowProxy
from repro.errors import SqlError, SqlNameError
from repro.minisql import Database, engine
from repro.minisql.parser import parse

VOLATILE_BASE = 10_000_001
WORDS = st.text(alphabet="abAB%_", min_size=0, max_size=3)
NUMBERS = st.one_of(st.none(), st.integers(-2, 5))

#: Two flattened views over the same tables: one of bare-column arms (a
#: COW view) and one whose arms also project expressions.
VIEWS = {
    "tab_view": (
        "CREATE VIEW tab_view AS "
        "SELECT _id, word, n FROM tab WHERE _id NOT IN (SELECT _id FROM tab_delta) "
        "UNION ALL SELECT _id, word, n FROM tab_delta WHERE _whiteout = 0"
    ),
    "tab_admin": (
        "CREATE VIEW tab_admin AS "
        "SELECT _id, word, n, 0 AS _whiteout FROM tab "
        "UNION ALL SELECT _id, word, n * 1, _whiteout FROM tab_delta"
    ),
}


def _database(state, emulation: str) -> Database:
    primary, delta, side = state
    db = Database(sqlite_emulation=emulation)
    db.execute("CREATE TABLE tab (_id INTEGER PRIMARY KEY, word TEXT, n INTEGER)")
    db.execute(
        "CREATE TABLE tab_delta (_id INTEGER PRIMARY KEY, word TEXT, n INTEGER, "
        "_whiteout INTEGER DEFAULT 0)"
    )
    db.execute("CREATE TABLE side (k INTEGER PRIMARY KEY, w TEXT, m INTEGER)")
    for row_id, word, n in primary:
        db.execute("INSERT INTO tab (_id, word, n) VALUES (?, ?, ?)", [row_id, word, n])
    for row_id, word, n, whiteout in delta:
        db.execute(
            "INSERT OR REPLACE INTO tab_delta (_id, word, n, _whiteout) VALUES (?, ?, ?, ?)",
            [row_id, word, n, whiteout],
        )
    for w, m in side:
        db.execute("INSERT INTO side (w, m) VALUES (?, ?)", [w, m])
    for sql in VIEWS.values():
        db.execute(sql)
    return db


@st.composite
def view_states(draw):
    """Public rows, a live delta of updates, inserts and whiteouts over
    them, and a side table for subqueries."""
    primary = [(i, draw(WORDS), draw(NUMBERS)) for i in range(1, draw(st.integers(0, 7)) + 1)]
    delta = draw(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 7), st.integers(VOLATILE_BASE, VOLATILE_BASE + 2)),
                WORDS,
                NUMBERS,
                st.sampled_from([0, 0, 1]),
            ),
            max_size=5,
        )
    )
    side = draw(st.lists(st.tuples(WORDS, NUMBERS), max_size=4))
    return primary, delta, side


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _literal(value) -> str:
    return "NULL" if value is None else str(value)


@st.composite
def word_column(draw):
    """``word`` read by bare or view-qualified name ({v} is the view)."""
    return draw(st.sampled_from(["word", "{v}.word"]))


@st.composite
def number_column(draw):
    return draw(st.sampled_from(["n", "{v}.n"]))


@st.composite
def atoms(draw):
    kind = draw(
        st.sampled_from(
            [
                "compare_word", "compare_n", "compare_id", "is_null", "between",
                "like", "in_list", "arith", "in_select", "exists", "scalar", "unknown",
            ]
        )
    )
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    if kind == "compare_word":
        return f"{draw(word_column())} {op} {_quote(draw(WORDS))}"
    if kind == "compare_n":
        return f"{draw(number_column())} {op} {_literal(draw(NUMBERS))}"
    if kind == "compare_id":
        # Never a sargable key term: those are the key-probe tests' domain.
        bound = draw(st.sampled_from([0, 3, VOLATILE_BASE]))
        return f"{{v}}._id {draw(st.sampled_from(['<', '>=', '<>']))} {bound}"
    if kind == "is_null":
        column = draw(st.one_of(word_column(), number_column()))
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == "between":
        low, high = draw(NUMBERS), draw(NUMBERS)
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{draw(number_column())} {negated}BETWEEN {_literal(low)} AND {_literal(high)}"
    if kind == "like":
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{draw(word_column())} {negated}LIKE {_quote(draw(WORDS))}"
    if kind == "in_list":
        items = ", ".join(_literal(v) for v in draw(st.lists(NUMBERS, min_size=1, max_size=3)))
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{draw(number_column())} {negated}IN ({items})"
    if kind == "arith":
        arith = draw(st.sampled_from(["n + 1", "{v}.n * 2", "n - {v}.n", "n % 3", "n / 2"]))
        return f"{arith} {op} {draw(st.integers(-2, 5))}"
    if kind == "in_select":
        negated = draw(st.sampled_from(["", "NOT "]))
        return draw(
            st.sampled_from(
                [
                    f"{{v}}.n {negated}IN (SELECT m FROM side)",
                    f"word {negated}IN (SELECT w FROM side WHERE m > 0)",
                ]
            )
        )
    if kind == "exists":
        negated = draw(st.sampled_from(["", "NOT "]))
        return (
            f"{negated}EXISTS (SELECT 1 FROM side "
            f"WHERE side.w = {draw(word_column())} AND m {op} {draw(number_column())})"
        )
    if kind == "scalar":
        return draw(
            st.sampled_from(
                [
                    f"(SELECT COUNT(*) FROM side WHERE w = {{v}}.word) {op} 1",
                    f"(SELECT m FROM side WHERE w = word) {op} n",
                    f"(SELECT MAX(m) FROM side WHERE m < {{v}}.n) IS NULL",
                ]
            )
        )
    return "ghost = 1"


wheres = st.recursive(
    atoms(),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda parts: f"({parts[0]}) {parts[1]} ({parts[2]})"
        ),
        inner.map(lambda where: f"NOT ({where})"),
    ),
    max_leaves=4,
)


def _outcome(db: Database, sql: str):
    try:
        return sorted(db.execute(sql).rows, key=repr)
    except SqlNameError:
        return SqlNameError
    except SqlError:
        return SqlError


class TestKernelMatchesMaterialised:
    @given(state=view_states(), where=wheres, view=st.sampled_from(sorted(VIEWS)))
    @settings(max_examples=200, deadline=None)
    def test_flattened_scan_equals_materialised_view(self, state, where, view):
        fast = _database(state, "3.8.6")
        slow = _database(state, "3.7.11")
        condition = where.replace("{v}", view)
        sql = f"SELECT _id, word, n FROM {view} WHERE {condition}"
        fast.stats.reset()
        slow.stats.reset()
        flattened = _outcome(fast, sql)
        materialised = _outcome(slow, sql + " ORDER BY _id")
        assert fast.stats.flattened_queries >= 1 and fast.stats.materialized_views == 0
        assert slow.stats.materialized_views >= 1
        assert flattened == materialised, sql

    def test_correlated_subqueries_read_the_view_row(self):
        state = (
            [(1, "a", 1), (2, "b", 2), (3, "c", 3)],
            [(2, "bb", 20, 0), (3, "c", 3, 1), (VOLATILE_BASE, "d", 4, 0)],
            [("bb", 7), ("d", 1), ("a", 9)],
        )
        db = _database(state, "3.8.6")
        exists = db.execute(
            "SELECT _id FROM tab_view WHERE EXISTS "
            "(SELECT 1 FROM side WHERE w = tab_view.word AND m < n)"
        )
        assert exists.rows == [(2,), (VOLATILE_BASE,)]
        scalar = db.execute(
            "SELECT word, (SELECT m FROM side WHERE w = word) FROM tab_view "
            "WHERE (SELECT m FROM side WHERE side.w = word) > 5"
        )
        assert sorted(scalar.rows) == [("a", 9), ("bb", 7)]
        assert db.stats.flattened_queries == 2

    def test_unknown_column_raises_through_the_kernel(self):
        db = _database(([(1, "a", 1)], [], []), "3.8.6")
        with pytest.raises(SqlNameError):
            db.execute("SELECT _id FROM tab_view WHERE ghost = 1")
        with pytest.raises(SqlNameError):
            # The arm's own table name is not visible through the view.
            db.execute("SELECT _id FROM tab_view WHERE tab.word = 'a'")


# --- the shared statement cache and the COW rewrite ---------------------------

USER_VIEW_SQL = (
    "SELECT _id, name FROM items WHERE _id IN (SELECT _id FROM items WHERE tag = 'keep')"
)


def _proxy() -> CowProxy:
    proxy = CowProxy()
    proxy.create_table("CREATE TABLE items (_id INTEGER PRIMARY KEY, name TEXT, tag TEXT)")
    proxy.create_user_view("kept", USER_VIEW_SQL)
    proxy.insert("items", None, {"name": "old", "tag": "keep"})
    proxy.insert("items", None, {"name": "other", "tag": "drop"})
    return proxy


class TestSharedStatementsAndCowViews:
    def test_cow_copy_reads_the_initiators_bases(self):
        proxy = _proxy()
        # Cache and compile the definition's own text first: its IN
        # subquery's closure reads the public ``items``.
        assert proxy.db.execute(USER_VIEW_SQL).rows == [(1, "old")]
        proxy.insert("items", "com.initiator", {"name": "new", "tag": "keep"})
        rows = proxy.query("kept", "com.initiator", projection=["name"])
        assert sorted(rows.rows) == [("new",), ("old",)]
        assert proxy.query("kept", None, projection=["name"]).rows == [("old",)]

    def test_cached_tree_unchanged_by_cow_views(self):
        proxy = _proxy()
        proxy.db.execute(USER_VIEW_SQL)
        for initiator in ("com.first", "com.second"):
            proxy.insert("items", initiator, {"name": initiator, "tag": "keep"})
            assert len(proxy.query("kept", initiator).rows) == 2
        assert engine.prepare(USER_VIEW_SQL) == parse(USER_VIEW_SQL)
