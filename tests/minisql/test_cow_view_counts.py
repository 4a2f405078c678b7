"""Count guard: a delegate's prefix scan of a COW view tests no row
against the delta subquery.

The public arm of the view is ``... WHERE _id NOT IN (SELECT _id FROM
delta)``. It is answered as a key anti-join, reading the delta's key
index once per statement, so no row evaluates the ``IN (SELECT ...)``
itself; a per-row membership test raises the count.
"""

from __future__ import annotations

from collections import Counter

from repro.core.cow import CowProxy
from repro.minisql.expr import Evaluator

INITIATOR = "com.count.initiator"
PUBLIC_ROWS = 1000
DELTA_ROWS = 100


def test_like_over_a_cow_view_makes_no_per_row_subquery_test(monkeypatch):
    proxy = CowProxy()
    proxy.create_table("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER)")
    letters = "abcdefghij"
    for i in range(PUBLIC_ROWS):
        proxy.insert("words", None, {"word": letters[i % 10] + letters[i // 10 % 10] + str(i)})
    for i in range(1, DELTA_ROWS + 1):
        proxy.update("words", INITIATOR, {"word": f"ab-edit{i}"}, "_id = ?", [i * 7])
    calls = Counter()
    original = Evaluator._membership

    def counted(self, *args):
        calls["membership"] += 1
        return original(self, *args)

    monkeypatch.setattr(Evaluator, "_membership", counted)
    rows = proxy.query("words", INITIATOR, ["_id", "word"], where="word LIKE ?", params=["ab%"])
    assert calls["membership"] == 0
    edited = {i * 7 for i in range(1, DELTA_ROWS + 1)}
    expected = {
        (i + 1, letters[i % 10] + letters[i // 10 % 10] + str(i))
        for i in range(PUBLIC_ROWS)
        if i % 10 == 0 and i // 10 % 10 == 1 and i + 1 not in edited
    } | {(i * 7, f"ab-edit{i}") for i in range(1, DELTA_ROWS + 1)}
    assert sorted(rows.rows) == sorted(expected)
