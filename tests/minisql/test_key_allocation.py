"""INTEGER PRIMARY KEY allocation and ``MAX(pk)``, checked against SQLite.

A table keeps its largest integer key, so an auto-keyed insert takes
largest + 1 and ``SELECT MAX(pk) FROM t`` is answered without a scan.
This property pins that the kept key, the allocated keys, the key
conversion and the errors are exactly what stdlib ``sqlite3`` gives for
the same statements, whatever sequence of inserts, key updates and
deletes (the largest key's included) came first. A SELECT or DELETE that
compares the key with text or a real converts that operand as SQLite does
(``'7'`` finds key 7).
"""

from __future__ import annotations

import sqlite3

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlIntegrityError
from repro.minisql import Database

SCHEMA = "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"

ints = st.integers(-3, 12)
# Every form of key the conversion must handle: ints, integral reals,
# numeric text (with spaces, sign, a decimal point or an exponent), and
# values with no integer form.
key_values = st.one_of(
    ints,
    ints.map(float),
    ints.map(str),
    st.sampled_from([" 7 ", "+4", "9.0", "1e1", "abc", "2.5", "", "0x10", 2.5]),
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("auto"), st.none(), st.none()),
        st.tuples(st.just("insert"), key_values, st.none()),
        st.tuples(st.just("update"), ints, key_values),
        st.tuples(st.just("delete"), key_values, st.none()),
        st.tuples(st.just("select"), key_values, st.none()),
        st.tuples(st.just("select_text"), st.none(), st.none()),
        st.tuples(st.just("delete_max"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=30,
)

STATEMENTS = {
    "auto": "INSERT INTO t (v) VALUES ('auto')",
    "insert": "INSERT INTO t (id, v) VALUES (?, 'keyed')",
    "update": "UPDATE t SET id = ? WHERE id = ?",
    "delete": "DELETE FROM t WHERE id = ?",
    "select": "SELECT id, v FROM t WHERE id = ?",
    "select_text": (
        "SELECT id FROM t WHERE id IN ('3', ' 4 ', '5.0', '1e1', 'abc', 2.5) AND v IS NOT NULL"
    ),
    "delete_max": "DELETE FROM t WHERE id = (SELECT MAX(id) FROM t)",
}


def _params(op, first, second):
    if op == "update":
        return [second, first]
    return [] if first is None else [first]


def _outcome(execute, op, sql, params):
    """What a statement did: the allocated key for an insert, the rows of
    a query, the row count otherwise, or the integrity error's message."""
    try:
        lastrowid, rowcount, rows = execute(sql, params)
    except (SqlIntegrityError, sqlite3.IntegrityError) as error:
        return ("error", str(error))
    if op.startswith("select"):
        return ("rows", rows)
    return ("key", lastrowid) if op in ("auto", "insert") else ("count", rowcount)


@given(ops=steps)
@example(  # stored as 7 and 3; 'abc' and 2.5 fail; the next auto key is 8
    ops=[
        ("insert", "abc", None),
        ("insert", 2.5, None),
        ("insert", "7", None),
        ("insert", 3.0, None),
        ("auto", None, None),
    ]
)
@example(  # text and real operands find the key stored as 7
    ops=[
        ("insert", 7, None),
        ("select", "7", None),
        ("select", 7.0, None),
        ("select", " 7 ", None),
        ("select", "7.5", None),
        ("delete", "+7", None),
    ]
)
@settings(max_examples=200)
def test_keys_max_and_errors_match_sqlite(ops):
    ours = Database()
    ours.execute(SCHEMA)
    reference = sqlite3.connect(":memory:")
    reference.execute(SCHEMA)

    def run_ours(sql, params):
        result = ours.execute(sql, params)
        return result.lastrowid, result.rowcount, result.rows

    def run_reference(sql, params):
        cursor = reference.execute(sql, params)
        return cursor.lastrowid, cursor.rowcount, cursor.fetchall()

    for op, first, second in ops:
        sql, params = STATEMENTS[op], _params(op, first, second)
        assert _outcome(run_ours, op, sql, params) == _outcome(
            run_reference, op, sql, params
        ), (sql, params)
        for query in ("SELECT MAX(id) FROM t", "SELECT id FROM t ORDER BY id"):
            assert ours.execute(query).rows == reference.execute(query).fetchall(), query
