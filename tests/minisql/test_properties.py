"""Property-based tests for the mini SQL engine.

Invariants:

1. Insert/read round-trip: what goes in through ``INSERT`` comes back out
   of ``SELECT`` unchanged.
2. The COW-view algebra: for any interleaving of writes through a
   Figure 6-style view, the view equals the reference computation
   (primary rows minus delta'd ids, plus non-whiteout delta rows), and
   the primary table never changes.
3. ORDER BY produces a total order consistent with the comparator.
4. The primary-key index always equals a mapping recomputed from the
   rows, whatever sequence of inserts, replaces, key-changing updates and
   deletes built them.
5. A sargable key term (``_id = ?``, ``_id IN (...)``) returns exactly what
   its non-sargable twin (``+_id``) returns, through a COW view and for
   view UPDATE/DELETE, for text, real, NULL and missing keys alike.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.errors import SqlIntegrityError
from repro.minisql import Database
from repro.minisql.expr import sql_compare

texts = st.text(alphabet="abcxyz ,'", min_size=0, max_size=12)
numbers = st.integers(min_value=-1_000_000, max_value=1_000_000)


class TestRoundTrip:
    @given(rows=st.lists(st.tuples(texts, numbers), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_insert_select_roundtrip(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, s TEXT, n INTEGER)")
        for s, n in rows:
            db.execute("INSERT INTO t (s, n) VALUES (?, ?)", [s, n])
        result = db.execute("SELECT s, n FROM t ORDER BY _id")
        assert result.rows == rows

    @given(rows=st.lists(numbers, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_aggregates_match_python(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, n INTEGER)")
        for n in rows:
            db.execute("INSERT INTO t (n) VALUES (?)", [n])
        got = db.execute("SELECT COUNT(n), SUM(n), MIN(n), MAX(n) FROM t").rows[0]
        assert got == (len(rows), sum(rows), min(rows), max(rows))

    @given(rows=st.lists(numbers, min_size=0, max_size=20), pivot=numbers)
    @settings(max_examples=50, deadline=None)
    def test_where_filter_matches_python(self, rows, pivot):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, n INTEGER)")
        for n in rows:
            db.execute("INSERT INTO t (n) VALUES (?)", [n])
        got = sorted(r[0] for r in db.execute("SELECT n FROM t WHERE n > ?", [pivot]).rows)
        assert got == sorted(n for n in rows if n > pivot)


class TestOrdering:
    @given(rows=st.lists(st.one_of(numbers, texts, st.none()), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_order_by_is_sorted_by_comparator(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, v)")
        for v in rows:
            db.execute("INSERT INTO t (v) VALUES (?)", [v])
        got = [r[0] for r in db.execute("SELECT v FROM t ORDER BY v").rows]
        for left, right in zip(got, got[1:]):
            assert sql_compare(left, right) <= 0


# --- COW view algebra -------------------------------------------------------


@st.composite
def cow_workload(draw):
    primary = draw(
        st.lists(texts, min_size=0, max_size=6).map(
            lambda vs: [(i + 1, v) for i, v in enumerate(vs)]
        )
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("update"), st.integers(1, 8), texts),
                st.tuples(st.just("delete"), st.integers(1, 8), st.just("")),
                st.tuples(st.just("insert"), st.just(0), texts),
            ),
            min_size=0,
            max_size=12,
        )
    )
    return primary, ops


class TestCowViewAlgebra:
    @given(workload=cow_workload())
    @settings(max_examples=50, deadline=None)
    def test_view_matches_reference_model(self, workload):
        primary, ops = workload
        db = Database()
        db.execute("CREATE TABLE tab (_id INTEGER PRIMARY KEY, data TEXT)")
        db.execute(
            "CREATE TABLE tab_delta (_id INTEGER PRIMARY KEY, data TEXT, "
            "_whiteout INTEGER DEFAULT 0)"
        )
        db.table("tab_delta").set_autoincrement_base(10_000_001)
        for row_id, value in primary:
            db.execute("INSERT INTO tab (_id, data) VALUES (?, ?)", [row_id, value])
        db.execute(
            "CREATE VIEW tab_view AS "
            "SELECT _id, data FROM tab WHERE _id NOT IN (SELECT _id FROM tab_delta) "
            "UNION ALL SELECT _id, data FROM tab_delta WHERE _whiteout = 0"
        )
        db.execute(
            "CREATE TRIGGER tv_u INSTEAD OF UPDATE ON tab_view BEGIN "
            "INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) "
            "VALUES (OLD._id, NEW.data, 0); END"
        )
        db.execute(
            "CREATE TRIGGER tv_d INSTEAD OF DELETE ON tab_view BEGIN "
            "INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) "
            "VALUES (OLD._id, OLD.data, 1); END"
        )
        db.execute(
            "CREATE TRIGGER tv_i INSTEAD OF INSERT ON tab_view BEGIN "
            "INSERT INTO tab_delta (_id, data, _whiteout) VALUES (NEW._id, NEW.data, 0); END"
        )
        # Reference model: the delegate's view as a dict.
        model = dict(primary)
        next_volatile = [10_000_001]
        for op, row_id, value in ops:
            if op == "update":
                if row_id in model:
                    db.execute("UPDATE tab_view SET data = ? WHERE _id = ?", [value, row_id])
                    model[row_id] = value
            elif op == "delete":
                if row_id in model:
                    db.execute("DELETE FROM tab_view WHERE _id = ?", [row_id])
                    del model[row_id]
            else:
                db.execute("INSERT INTO tab_view (data) VALUES (?)", [value])
                model[next_volatile[0]] = value
                next_volatile[0] += 1
        got = dict(db.execute("SELECT _id, data FROM tab_view").rows)
        assert got == model
        # The primary table is never modified by view writes.
        assert dict(db.execute("SELECT _id, data FROM tab").rows) == dict(primary)


# --- primary-key index ------------------------------------------------------

# Keys that collide under SQL equality (3 and 3.0) and ones that do not
# ('3' is text), plus NULL.
pk_values = st.sampled_from([1, 2, 3, 3.0, "3", 4, None])
unique_values = st.sampled_from(["a", "b", "c", None])

index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), pk_values, unique_values),
        st.tuples(st.just("replace"), pk_values, unique_values),
        st.tuples(st.just("update_pk"), pk_values, pk_values),
        st.tuples(st.just("delete"), pk_values, st.none()),
    ),
    min_size=1,
    max_size=25,
)


def _recomputed_index(table):
    index = {}
    for rowid, row in table.rows.items():
        if row["_id"] is not None:
            assert row["_id"] not in index, "duplicate primary key"
            index[row["_id"]] = rowid
    return index


class TestPrimaryKeyIndex:
    @given(ops=index_ops)
    @settings(max_examples=100, deadline=None)
    def test_index_matches_rows_after_every_step(self, ops):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, u TEXT UNIQUE, v INTEGER)")
        table = db.table("t")
        statements = {
            "insert": "INSERT INTO t (_id, u) VALUES (?, ?)",
            "replace": "INSERT OR REPLACE INTO t (_id, u) VALUES (?, ?)",
            "update_pk": "UPDATE t SET _id = ? WHERE _id = ?",
            "delete": "DELETE FROM t WHERE _id = ?",
        }
        for op, first, second in ops:
            params = [first] if op == "delete" else [first, second]
            if op == "update_pk":
                params = [second, first]
            try:
                db.execute(statements[op], params)
            except SqlIntegrityError:
                pass
            assert table.pk_index == _recomputed_index(table)
            for value, rowid in table.pk_index.items():
                assert table.find_by_pk(value) == rowid


# --- sargable vs non-sargable equivalence -----------------------------------

VOLATILE_BASE = 10_000_001

# Edge cases: text '5' vs int 5, real 5.0, NULL, a missing key, a volatile
# key, a bool (never probed) and an existing key.
key_values = st.one_of(
    st.integers(0, 9),
    st.sampled_from(["5", 5.0, None, 999, VOLATILE_BASE, float(VOLATILE_BASE), True]),
)


def _cow_view_db(primary, delta):
    db = Database()
    db.execute("CREATE TABLE tab (_id INTEGER PRIMARY KEY, word TEXT)")
    db.execute(
        "CREATE TABLE tab_delta (_id INTEGER PRIMARY KEY, word TEXT, "
        "_whiteout INTEGER DEFAULT 0)"
    )
    for row_id, word in primary:
        db.execute("INSERT INTO tab (_id, word) VALUES (?, ?)", [row_id, word])
    for row_id, word, whiteout in delta:
        db.execute(
            "INSERT OR REPLACE INTO tab_delta (_id, word, _whiteout) VALUES (?, ?, ?)",
            [row_id, word, whiteout],
        )
    db.execute(
        "CREATE VIEW tab_view AS "
        "SELECT _id, word FROM tab WHERE _id NOT IN (SELECT _id FROM tab_delta) "
        "UNION ALL SELECT _id, word FROM tab_delta WHERE _whiteout = 0"
    )
    db.execute(
        "CREATE TRIGGER tv_u INSTEAD OF UPDATE ON tab_view BEGIN "
        "INSERT OR REPLACE INTO tab_delta (_id, word, _whiteout) "
        "VALUES (OLD._id, NEW.word, 0); END"
    )
    db.execute(
        "CREATE TRIGGER tv_d INSTEAD OF DELETE ON tab_view BEGIN "
        "INSERT OR REPLACE INTO tab_delta (_id, word, _whiteout) "
        "VALUES (OLD._id, OLD.word, 1); END"
    )
    return db


@st.composite
def cow_view_state(draw):
    primary = [(i, draw(texts)) for i in range(1, draw(st.integers(0, 8)) + 1)]
    delta = draw(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 8), st.integers(VOLATILE_BASE, VOLATILE_BASE + 2)),
                texts,
                st.sampled_from([0, 1]),
            ),
            max_size=6,
        )
    )
    return primary, delta


def _twin(sql):
    """The same statement with every key reference made non-sargable."""
    return sql.replace("_id =", "+_id =").replace("_id IN", "+_id IN")


class TestSargableEquivalence:
    @given(
        state=cow_view_state(),
        key=key_values,
        other=key_values,
        pattern=st.sampled_from(["%", "a%", "%x%", "zz"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_queries_match_non_sargable_twin(self, state, key, other, pattern):
        db = _cow_view_db(*state)
        queries = [
            ("SELECT * FROM tab_view WHERE _id = ?", [key]),
            ("SELECT * FROM tab_view WHERE _id IN (?, ?, 5)", [key, other]),
            ("SELECT word FROM tab_view WHERE (word LIKE ?) AND _id = ?", [pattern, key]),
            ("SELECT word FROM tab WHERE _id = ?", [key]),
            ("SELECT * FROM tab_delta WHERE _id IN (?, ?)", [key, other]),
        ]
        for sql, params in queries:
            if isinstance(key, str) or (isinstance(other, str) and " IN " in sql):
                # As in SQLite, a key converts a text operand ('5' finds key
                # 5), in a base table and through a view column that is an
                # arm's key, and ``+_id``, which has no affinity, does not;
                # test_key_allocation and test_cow_view_oracle check that
                # against sqlite3.
                continue
            fast = db.execute(sql, params)
            slow = db.execute(_twin(sql), params)
            assert fast.rows == slow.rows, sql

    @given(
        state=cow_view_state(),
        ops=st.lists(
            st.tuples(st.sampled_from(["update", "delete", "update_in"]), key_values, texts),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_view_writes_match_non_sargable_twin(self, state, ops):
        fast = _cow_view_db(*state)
        slow = _cow_view_db(*state)
        for op, key, word in ops:
            if op == "update":
                sql = "UPDATE tab_view SET word = ? WHERE _id = ?"
            elif op == "update_in":
                sql = "UPDATE tab_view SET word = ? WHERE _id IN (?, 1)"
            else:
                sql = "DELETE FROM tab_view WHERE _id = ?"
            # The arms' keys convert a text operand ('5' finds key 5), as
            # SQLite does (test_cow_view_oracle); ``+_id`` has no affinity,
            # so the twin binds the key converted.
            twin_key = int(key) if isinstance(key, str) else key
            params, twin = ([key], [twin_key]) if op == "delete" else ([word, key], [word, twin_key])
            assert fast.execute(sql, params).rowcount == slow.execute(_twin(sql), twin).rowcount
            snapshot = "SELECT * FROM tab_view"
            assert fast.execute(snapshot).rows == slow.execute(snapshot).rows
            delta = "SELECT * FROM tab_delta"
            assert fast.execute(delta).rows == slow.execute(delta).rows

    @given(state=cow_view_state(), key=key_values)
    @settings(max_examples=50, deadline=None)
    def test_aggregate_arm_matches_non_sargable_twin(self, state, key):
        # The outer key term filters an aggregate arm's output, so it must
        # not narrow the rows that arm aggregates.
        assume(state[0])  # a bare column beside COUNT(*) of no rows is unsupported
        fast, slow = (_cow_view_db(*state) for _ in range(2))
        for db in (fast, slow):
            db.execute(
                "CREATE VIEW tab_counts AS SELECT _id, COUNT(*) AS n FROM tab "
                "UNION ALL SELECT _id, 0 FROM tab_delta"
            )
            db.execute("CREATE TABLE removed (_id, n)")
            db.execute(
                "CREATE TRIGGER tc_d INSTEAD OF DELETE ON tab_counts BEGIN "
                "INSERT INTO removed (_id, n) VALUES (OLD._id, OLD.n); END"
            )
        query = "SELECT * FROM tab_counts WHERE _id = ?"
        selected = fast.execute(query, [key]).rows
        delete = "DELETE FROM tab_counts WHERE _id = ?"
        deleted = fast.execute(delete, [key]).rowcount
        removed = "SELECT * FROM removed"
        # A DELETE through the view acts on exactly the rows the same WHERE
        # selects, for every key form.
        assert fast.execute(removed).rows == selected
        assert deleted == len(selected)
        if not isinstance(key, str):
            # A text key finds the delta arm's row through its key, which
            # ``+_id`` does not (see test_queries_match_non_sargable_twin),
            # while the aggregate arm's column still compares without
            # affinity (a known gap, see CHANGES.md).
            assert selected == slow.execute(_twin(query), [key]).rows
            assert deleted == slow.execute(_twin(delete), [key]).rowcount
            assert fast.execute(removed).rows == slow.execute(removed).rows
