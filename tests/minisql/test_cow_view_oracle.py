"""Queries over a COW view, checked against stdlib ``sqlite3``.

The view has the proxy's shape: a public table whose rows the delta's
keys hide (``_id NOT IN (SELECT _id FROM delta)``, answered as a key
anti-join) UNION ALL the delta's rows that are not whiteouts. The outer
WHERE is built from ``=``, ``IN``, ``LIKE``, ``AND`` and ``OR`` on the
key, the word and the frequency, naming the view bare, qualified or by an
alias, and it is tested on each arm's rows in place. Rows are compared as
multisets.

A leading key term may bind the key as text or a real (``'7'``,
``7.0``): SQLite applies the key's integer affinity through the view
column, and the arms' key probes convert it the same way. Elsewhere the
values have the column's own type: comparing a text operand with a key
under ``OR`` still differs from SQLite (see CHANGES.md).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.minisql import Database

VOLATILE_BASE = 10_000_001
PUBLIC = "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER)"
DELTA = (
    "CREATE TABLE words_delta (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER, "
    "_whiteout INTEGER DEFAULT 0)"
)
VIEW = (
    "CREATE VIEW words_view AS "
    "SELECT _id, word, freq FROM words WHERE _id NOT IN (SELECT _id FROM words_delta) "
    "UNION ALL SELECT _id, word, freq FROM words_delta WHERE _whiteout = 0"
)

words = st.text(alphabet="abAB", min_size=1, max_size=3)
freqs = st.one_of(st.none(), st.integers(0, 4))
ints = st.integers(0, 10)
keys = st.one_of(ints, st.sampled_from([VOLATILE_BASE, VOLATILE_BASE + 1]))


@st.composite
def cow_state(draw):
    public = [(i, draw(words), draw(freqs)) for i in range(1, draw(st.integers(0, 10)) + 1)]
    delta = draw(
        st.dictionaries(
            st.one_of(st.integers(1, 12), st.integers(VOLATILE_BASE, VOLATILE_BASE + 2)),
            st.tuples(words, freqs, st.sampled_from([0, 0, 1])),
            max_size=6,
        )
    )
    return public, [(key, *rest) for key, rest in delta.items()]


#: (column, values drawn for it)
COLUMNS = [("_id", keys), ("word", words), ("freq", st.integers(0, 4))]


@st.composite
def atom(draw, name):
    """One comparison: its SQL (naming columns through ``name``) and params."""
    column, values = draw(st.sampled_from(COLUMNS))
    ref = f"{name(draw)}{column}"
    kind = draw(st.sampled_from(["=", "IN", "LIKE"] if column == "word" else ["=", "IN"]))
    if kind == "=":
        return f"{ref} = ?", [draw(values)]
    if kind == "IN":
        items = draw(st.lists(values, min_size=1, max_size=3))
        return f"{ref} IN ({', '.join('?' for _ in items)})", items
    pattern = draw(st.sampled_from(["a%", "%b", "_a%", "%", "b_", "A%"]))
    return f"{ref} LIKE ?", [pattern]


@st.composite
def condition(draw, name, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(atom(name))
    left_sql, left = draw(condition(name, depth - 1))
    right_sql, right = draw(condition(name, depth - 1))
    op = draw(st.sampled_from(["AND", "OR"]))
    return f"({left_sql}) {op} ({right_sql})", left + right


# A key bound in the forms SQLite's integer affinity converts, or cannot.
key_forms = st.one_of(
    keys,
    ints.map(float),
    ints.map(str),
    st.sampled_from(["7.0", " 3 ", "abc", 2.5]),
)


@st.composite
def query(draw):
    """(sql, params): a SELECT over the COW view with a random WHERE."""
    alias = draw(st.sampled_from([None, "v", "W"]))
    source = "words_view" if alias is None else f"words_view AS {alias}"
    prefixes = ["", "words_view." if alias is None else f"{alias}."]

    def name(draw_):
        return draw_(st.sampled_from(prefixes))

    sql, params = draw(condition(name))
    if draw(st.booleans()):
        op, values = draw(
            st.one_of(
                st.tuples(st.just("= ?"), st.lists(key_forms, min_size=1, max_size=1)),
                st.tuples(st.just("IN (?, ?)"), st.lists(key_forms, min_size=2, max_size=2)),
            )
        )
        sql, params = f"{name(draw)}_id {op} AND ({sql})", values + params
    columns = draw(st.sampled_from(["*", "_id, word, freq", "word", "freq, _id"]))
    return f"SELECT {columns} FROM {source} WHERE {sql}", params


def _databases(public, delta):
    mine, reference = Database(), sqlite3.connect(":memory:")
    for execute in (mine.execute, reference.execute):
        for statement in (PUBLIC, DELTA, VIEW):
            execute(statement)
        for row in public:
            execute("INSERT INTO words (_id, word, freq) VALUES (?, ?, ?)", list(row))
        for row in delta:
            execute(
                "INSERT INTO words_delta (_id, word, freq, _whiteout) VALUES (?, ?, ?, ?)",
                list(row),
            )
    return mine, reference


@given(state=cow_state(), queries=st.lists(query(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_cow_view_queries_match_sqlite(state, queries):
    mine, reference = _databases(*state)
    for sql, params in queries:
        expected = Counter(reference.execute(sql, params).fetchall())
        assert Counter(mine.execute(sql, params).rows) == expected, (sql, params)


def test_text_key_finds_the_row_in_each_arm():
    # Both arms' item for ``id`` is their table's integer key, so the
    # pushed term converts '7' as SQLite does and holds for the row found.
    mine, reference = Database(), sqlite3.connect(":memory:")
    for execute in (mine.execute, reference.execute):
        execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v TEXT)")
        execute("INSERT INTO t VALUES (7, 'a'), (8, 'b')")
        execute("INSERT INTO u VALUES (7, 'x')")
        execute("CREATE VIEW w AS SELECT id, v FROM t UNION ALL SELECT id, v FROM u")
    for sql in (
        "SELECT v FROM w WHERE id = '7'",
        "SELECT v FROM w WHERE id IN (' 7 ', 8.0) AND v <> 'zz'",
        "SELECT x.v FROM w x WHERE x.id = '7.0'",
    ):
        expected = sorted(reference.execute(sql).fetchall())
        assert sorted(mine.execute(sql).rows) == expected, sql
    assert sorted(mine.execute("SELECT v FROM w WHERE id = '7'").rows) == [("a",), ("x",)]


def test_text_key_writes_through_each_arm():
    # An UPDATE or DELETE through the view acts on the rows each arm's
    # converted probe finds, as SQLite's INSTEAD OF triggers do: the key
    # term is not tested again, without affinity, on the view row.
    mine, reference = Database(), sqlite3.connect(":memory:")
    for execute in (mine.execute, reference.execute):
        execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v TEXT)")
        execute("CREATE TABLE log (event TEXT, id INTEGER, v TEXT)")
        execute("INSERT INTO t VALUES (7, 'a'), (8, 'b')")
        execute("INSERT INTO u VALUES (7, 'x'), (9, 'y')")
        execute("CREATE VIEW w AS SELECT id, v FROM t UNION ALL SELECT id, v FROM u")
        execute(
            "CREATE TRIGGER w_update INSTEAD OF UPDATE ON w BEGIN "
            "INSERT INTO log VALUES ('update', old.id, new.v); END"
        )
        execute(
            "CREATE TRIGGER w_delete INSTEAD OF DELETE ON w BEGIN "
            "INSERT INTO log VALUES ('delete', old.id, old.v); END"
        )
    for sql, params in (
        ("UPDATE w SET v = 'z' WHERE id = '7'", []),
        ("UPDATE w SET v = v || '!' WHERE id IN (?, 9.0) AND v <> 'b'", [" 8 "]),
        ("DELETE FROM w WHERE id = ? AND v = 'x'", ["7.0"]),
        ("DELETE FROM w WHERE id IN ('9', 'abc')", []),
    ):
        mine.execute(sql, params)
        reference.execute(sql, params)
        log = "SELECT event, id, v FROM log"
        assert sorted(mine.execute(log).rows) == sorted(reference.execute(log).fetchall()), sql
    assert mine.execute(log).rows[:2] == [("update", 7, "z"), ("update", 7, "z")]


class TestViewPlans:
    """A view is planned once per effective name, and a plan never
    outlives the schema it was made for."""

    def _db(self):
        db = Database()
        db.execute(PUBLIC)
        db.execute(DELTA)
        db.execute(VIEW)
        db.executemany(
            "INSERT INTO words (word, freq) VALUES (?, ?)", [("ab", 1), ("ba", 2), ("ab", 3)]
        )
        db.execute("INSERT INTO words_delta (_id, word, freq) VALUES (2, 'zz', 9)")
        return db

    def test_alias_gets_its_own_plan(self):
        db = self._db()
        bare = "SELECT words_view._id FROM words_view WHERE words_view.word = 'ab'"
        aliased = "SELECT v._id FROM words_view v WHERE v.word = 'ab'"
        assert db.execute(bare).rows == [(1,), (3,)]
        assert db.execute(aliased).rows == [(1,), (3,)]
        assert sorted(db.views["words_view"].plans) == ["v", "words_view"]

    def test_recreated_view_is_planned_again(self):
        db = self._db()
        assert db.execute("SELECT word FROM words_view WHERE _id = 2").rows == [("zz",)]
        db.execute("DROP VIEW words_view")
        db.execute(
            "CREATE VIEW words_view AS SELECT freq AS _id, word, _id AS freq FROM words "
            "UNION ALL SELECT _id, word, freq FROM words_delta WHERE _whiteout = 1"
        )
        assert db.execute("SELECT word FROM words_view WHERE _id = 2").rows == [("ba",)]

    def test_recreated_delta_table_is_read_afresh(self):
        db = self._db()
        assert db.execute("SELECT word FROM words_view WHERE word = 'ba'").rows == []
        db.execute("DROP TABLE words_delta")
        db.execute(DELTA)
        assert db.execute("SELECT word FROM words_view WHERE word = 'ba'").rows == [("ba",)]
        db.execute("INSERT INTO words_delta (_id, word, freq) VALUES (2, 'new', 0)")
        assert db.execute("SELECT word FROM words_view WHERE _id = 2").rows == [("new",)]
