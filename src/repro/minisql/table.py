"""Table storage for the mini SQL engine.

Rows are stored as dictionaries keyed by rowid. A column declared
``INTEGER PRIMARY KEY`` aliases the rowid, as in SQLite:

- a key written by INSERT or UPDATE is converted as SQLite converts a
  rowid (:func:`integer_key`): ``'7'`` and ``3.0`` become 7 and 3, and a
  value with no integer form (``'abc'``, ``2.5``, NULL on UPDATE) raises
  ``datatype mismatch``, so every stored key is an ``int``;
- the table keeps its largest key (:meth:`Table.largest_key`). Indexing a
  key raises it; removing the largest marks it stale, and the next read
  recomputes it once;
- a row inserted without a key gets the largest key + 1 (1 when empty),
  so deleting the largest key lets it be reused, as SQLite does without
  AUTOINCREMENT.

The COW proxy relies on being able to start a delta table's key space at
a large offset ``N`` to avoid collisions with the primary table (paper
section 5.2); :meth:`Table.set_autoincrement_base` provides that.

Each table keeps a primary-key hash index, ``pk_index`` (PK value ->
rowid), current across every insert, replace, update and delete. NULL and
unhashable PK values are left out of it; they never equal a probe value.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional

from repro.errors import SqlIntegrityError, SqlNameError
from repro.minisql import ast_nodes as ast

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Numeric text SQLite's INTEGER affinity accepts (surrounding ASCII space
# allowed; no hex, no digit separators).
_SPACE = r"[ \t\n\v\f\r]*"
_INTEGER_TEXT = re.compile(_SPACE + r"[+-]?\d+" + _SPACE, re.ASCII)
_REAL_TEXT = re.compile(
    _SPACE + r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?" + _SPACE, re.ASCII
)


def integer_key(value: object) -> int:
    """``value`` as an INTEGER PRIMARY KEY, converted as SQLite converts a
    rowid: an int, a bool, an integral real or numeric text with an
    integral value becomes that ``int``; anything else, NULL included,
    raises ``datatype mismatch``."""
    if type(value) is int:
        key = value
    elif isinstance(value, int):  # bool
        key = int(value)
    elif isinstance(value, float) and value.is_integer():
        key = int(value)
    elif isinstance(value, str) and _INTEGER_TEXT.fullmatch(value):
        key = int(value)
    elif isinstance(value, str) and _REAL_TEXT.fullmatch(value):
        return integer_key(float(value))
    else:
        raise SqlIntegrityError("datatype mismatch")
    if not _INT64_MIN <= key <= _INT64_MAX:
        raise SqlIntegrityError("datatype mismatch")
    return key


class Table:
    """One base table: schema plus rows."""

    def __init__(self, name: str, columns: List[ast.ColumnDef]) -> None:
        self.name = name.lower()
        self.display_name = name
        self.columns = columns
        self.column_names = [c.name.lower() for c in columns]
        pk = [c.name.lower() for c in columns if c.primary_key]
        if len(pk) > 1:
            raise SqlIntegrityError(f"table {name}: multiple primary keys")
        self.pk_column: Optional[str] = pk[0] if pk else None
        self.pk_is_integer = any(
            c.primary_key and c.type_name == "INTEGER" for c in columns
        )
        self.rows: Dict[int, Dict[str, object]] = {}
        self.pk_index: Dict[object, int] = {}
        # The largest INTEGER PRIMARY KEY (None when empty); stale once
        # that key leaves the index, until the next read recomputes it.
        self._largest: Optional[int] = None
        self._largest_stale = False
        # The COW proxy's floor for allocated keys; None: no floor.
        self._autoincrement_base: Optional[int] = None
        self._rowid_counter = 0

    # ------------------------------------------------------------------

    def set_autoincrement_base(self, base: int) -> None:
        """Start INTEGER PRIMARY KEY allocation at ``base`` (COW proxy hook)."""
        self._autoincrement_base = base

    def largest_key(self) -> Optional[int]:
        """The largest INTEGER PRIMARY KEY, or None when the table is empty
        (SQLite's ``MAX(pk)``). O(1), except that the first read after the
        largest key was removed recomputes it."""
        if self._largest_stale:
            self._largest = max(self.pk_index, default=None)  # type: ignore[type-var]
            self._largest_stale = False
        return self._largest

    def _allocate_pk(self) -> int:
        largest = self.largest_key()
        key = 1 if largest is None else largest + 1
        base = self._autoincrement_base
        return key if base is None else max(key, base)

    def _next_internal_rowid(self) -> int:
        self._rowid_counter += 1
        return self._rowid_counter

    # ------------------------------------------------------------------

    def insert_row(self, values: Dict[str, object], or_replace: bool = False) -> int:
        """Insert one row; returns the rowid (== INTEGER PRIMARY KEY value
        when the table has one). Enforces PK uniqueness and NOT NULL."""
        row: Dict[str, object] = {}
        for column in self.columns:
            key = column.name.lower()
            if key in values:
                row[key] = values[key]
            elif column.default is not None and isinstance(column.default, ast.Literal):
                row[key] = column.default.value
            else:
                row[key] = None
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise SqlNameError(
                f"table {self.display_name} has no columns {sorted(unknown)}"
            )
        if self.pk_is_integer:
            key = row[self.pk_column]  # type: ignore[index]
            row[self.pk_column] = (  # type: ignore[index]
                self._allocate_pk() if key is None else integer_key(key)
            )
        elif self.pk_column is not None and row.get(self.pk_column) is None:
            raise SqlIntegrityError(f"NOT NULL constraint: {self.pk_column}")
        for column in self.columns:
            if column.not_null and row.get(column.name.lower()) is None and not column.primary_key:
                raise SqlIntegrityError(
                    f"NOT NULL constraint failed: {self.display_name}.{column.name}"
                )
        if self.pk_column is not None:
            pk_value = row[self.pk_column]
            existing = self.find_by_pk(pk_value)
            if existing is not None:
                if not or_replace:
                    raise SqlIntegrityError(
                        f"UNIQUE constraint failed: {self.display_name}.{self.pk_column}"
                    )
                self._pop(existing)
        for column in self.columns:
            if column.unique and not column.primary_key:
                key = column.name.lower()
                value = row.get(key)
                if value is None:
                    continue
                clash = next(
                    (rid for rid, other in self.rows.items() if other.get(key) == value), None
                )
                if clash is not None:
                    if not or_replace:
                        raise SqlIntegrityError(
                            f"UNIQUE constraint failed: {self.display_name}.{column.name}"
                        )
                    self._pop(clash)
        rowid = self._next_internal_rowid()
        self.rows[rowid] = row
        self._index(rowid, row)
        if self.pk_is_integer:
            return row[self.pk_column]  # type: ignore[index,return-value]
        return rowid

    def find_by_pk(self, value: object) -> Optional[int]:
        """Return the internal rowid whose PK equals ``value``, if any.

        Dict-key equality is SQL ``=`` here (same type rank plus Python
        ``==``) for the int, float and text values the planner probes with.
        """
        if value is None:
            return None
        try:
            return self.pk_index.get(value)
        except TypeError:  # unhashable
            return None

    def probe(self, values: Iterable[object]) -> List[int]:
        """Rowids whose PK equals one of ``values``, in scan (rowid) order."""
        found = {self.find_by_pk(value) for value in values}
        found.discard(None)
        return sorted(found)  # type: ignore[type-var]

    def update_row(self, rowid: int, new_values: Dict[str, object]) -> None:
        """Apply an UPDATE's assignments to one row, keeping the PK unique
        and the index current."""
        row = self.rows[rowid]
        if self.pk_column not in new_values:
            row.update(new_values)
            return
        key = new_values[self.pk_column]
        if self.pk_is_integer:
            key = integer_key(key)
        clash = self.find_by_pk(key)
        if clash is not None and clash != rowid:
            raise SqlIntegrityError(
                f"UNIQUE constraint failed: {self.display_name}.{self.pk_column}"
            )
        self._unindex(rowid, row)
        row.update(new_values)
        row[self.pk_column] = key
        self._index(rowid, row)

    def delete_rowids(self, rowids: List[int]) -> int:
        removed = 0
        for rowid in rowids:
            if rowid in self.rows:
                self._pop(rowid)
                removed += 1
        return removed

    # -- index maintenance ------------------------------------------------

    def _index(self, rowid: int, row: Dict[str, object]) -> None:
        if self.pk_column is None:
            return
        value = row.get(self.pk_column)
        if value is None:
            return
        try:
            self.pk_index[value] = rowid
        except TypeError:  # unhashable: never equal to a probe value
            return
        if (
            self.pk_is_integer
            and not self._largest_stale
            and (self._largest is None or value > self._largest)  # type: ignore[operator]
        ):
            self._largest = value  # type: ignore[assignment]

    def _unindex(self, rowid: int, row: Dict[str, object]) -> None:
        if self.pk_column is None:
            return
        value = row.get(self.pk_column)
        if self.find_by_pk(value) == rowid:
            del self.pk_index[value]
            if value == self._largest:
                self._largest_stale = True

    def _pop(self, rowid: int) -> None:
        self._unindex(rowid, self.rows.pop(rowid))

    def all_rows(self) -> List[Dict[str, object]]:
        return list(self.rows.values())

    def __len__(self) -> int:
        return len(self.rows)
