"""The SQLite copy-on-write proxy layer (paper section 5.2).

System content providers sit on top of this proxy instead of using the
database directly. It implements *unilateral per-row, per-initiator
copy-on-write*:

- Each provider-defined table is a **primary table**; it only ever holds
  public data (``Pub(all)``).
- The first volatile record for initiator ``A`` creates a **delta table**
  ``<table>_delta_<A>`` with the primary table's columns plus a
  ``_whiteout`` flag, and a **COW view** ``<table>_view_<A>`` defined as::

      SELECT cols FROM <table>
          WHERE <pk> NOT IN (SELECT <pk> FROM <table>_delta_<A>)
      UNION ALL
      SELECT cols FROM <table>_delta_<A> WHERE _whiteout = 0

  plus ``INSTEAD OF`` triggers that confine the delegate's INSERT, UPDATE
  and DELETE to the delta table (deletes become whiteout records).
- New rows inserted by delegates get primary keys starting at a large
  offset ``N`` so they never collide with public rows.
- Provider-defined SQL views get per-initiator COW views whose definitions
  are the originals with base tables replaced by COW views; the proxy
  maintains the hierarchy (a view over a view works).
- The **administrative view** exposes primary plus all delta rows with a
  ``_state`` column, for providers with background work (Downloads, Media).

The proxy also implements the footnote-5 workaround: when a query over a
COW view has an ORDER BY whose columns are not in the projection, SQLite
3.8.6 would refuse to flatten the UNION ALL subquery; the proxy widens the
projection with the ORDER BY columns and strips them from the result.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.boundary import boundary, tag
from repro.errors import SqlNameError
from repro.minisql import Database
from repro.minisql import ast_nodes as ast
from repro.minisql.engine import ResultSet, prepare
from repro.minisql.parser import parse
from repro.naming import initiator_key
from repro.obs import OBS as _OBS

#: Primary keys allocated for delegate inserts start here (paper: "the
#: delta table's primary key starts at a large number N").
VOLATILE_PK_BASE = 10_000_001

#: The proxy's commit intent journal (WAL). Rows describe selective
#: commits that have been decided but not yet fully applied to the primary
#: table; ``recover()`` replays sealed rows and rolls back unsealed ones.
JOURNAL_TABLE = "_maxoid_journal"


def _encode_payload(record: Dict[str, object]) -> str:
    """JSON-encode a row for the journal; bytes round-trip via base64."""
    def enc(value):
        if isinstance(value, bytes):
            return {"__bytes__": base64.b64encode(value).decode("ascii")}
        return value

    return json.dumps({k: enc(v) for k, v in record.items()})


def _decode_payload(text: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in json.loads(text).items():
        if isinstance(value, dict) and "__bytes__" in value:
            value = base64.b64decode(value["__bytes__"])
        out[key] = value
    return out


def _table_attrs(self, name: str, initiator: Optional[str], *_args, **_kwargs) -> dict:
    return {"table": name, "initiator": initiator}


def _commit_done(self, span, committed: bool) -> None:
    span.set(committed=committed)
    if committed:
        self.obs.metrics.count("cow.commits")


def _commit_batch_done(self, _span, committed: int) -> None:
    if committed:
        self.obs.metrics.count("cow.commits", committed)


def _delta_commit_sched(self, name: str, initiator: str, _rows) -> dict:
    return {"table": name, "resource": f"table:{name}", "rw": "w"}


def _entry_table(self, entry: Dict[str, object]) -> dict:
    return {"table": entry["tbl"]}


def _discard_done(self, span, rows: int) -> None:
    span.set(rows=rows)
    self.obs.metrics.count("cow.discarded_rows", rows)


@dataclass
class _PrimaryTable:
    name: str
    columns: List[str]
    pk: str


@dataclass
class _UserView:
    name: str
    select_sql: str
    bases: List[str]  # names of tables/views this view is defined over


@dataclass
class CowStats:
    """Counters consumed by the microbenchmarks and ablations."""

    delta_tables_created: int = 0
    cow_views_created: int = 0
    volatile_inserts: int = 0
    volatile_updates: int = 0
    volatile_deletes: int = 0
    order_by_workarounds: int = 0


class CowProxy:
    """Copy-on-write proxy over one provider database."""

    def __init__(
        self, db: Optional[Database] = None, obs: Optional[object] = None
    ) -> None:
        # The owning device's observability context; bind_obs() re-homes a
        # proxy constructed before its device existed (system providers).
        self.obs = obs if obs is not None else _OBS
        self.db = db if db is not None else Database(obs=self.obs)
        self._tables: Dict[str, _PrimaryTable] = {}
        self._user_views: Dict[str, _UserView] = {}
        # (object name, initiator key) pairs that already have COW machinery.
        self._materialized: Set[Tuple[str, str]] = set()
        self.stats = CowStats()

    def bind_obs(self, obs: object) -> None:
        """Attach this proxy (and its database) to a device's context."""
        self.obs = obs
        self.db.obs = obs

    # ------------------------------------------------------------------
    # Schema registration (called by the content provider at creation)
    # ------------------------------------------------------------------

    def create_table(self, create_sql: str) -> str:
        """Create a primary table from a CREATE TABLE statement."""
        statement = prepare(create_sql)
        if not isinstance(statement, ast.CreateTable):
            raise SqlNameError("create_table() requires a CREATE TABLE statement")
        self.db.execute(create_sql)
        pk_columns = [c.name for c in statement.columns if c.primary_key]
        if not pk_columns:
            raise SqlNameError(
                f"table {statement.name}: the COW proxy needs a primary key"
            )
        name = statement.name.lower()
        self._tables[name] = _PrimaryTable(
            name=name,
            columns=[c.name.lower() for c in statement.columns],
            pk=pk_columns[0].lower(),
        )
        return name

    def create_user_view(self, name: str, select_sql: str) -> str:
        """Register a provider-defined SQL view (e.g. Media's ``images``).

        The proxy records which registered tables/views the definition
        references so it can later build the per-initiator COW hierarchy.
        """
        select = prepare(select_sql)
        if not isinstance(select, ast.Select):
            raise SqlNameError("create_user_view() requires a SELECT statement")
        bases = sorted(self._referenced_bases(select))
        self.db.execute(f"CREATE VIEW {name} AS {select_sql}")
        self._user_views[name.lower()] = _UserView(
            name=name.lower(), select_sql=select_sql, bases=bases
        )
        return name.lower()

    def _referenced_bases(self, select: ast.Select) -> Set[str]:
        bases: Set[str] = set()
        for core in select.cores:
            refs = []
            if core.source is not None:
                refs.append(core.source)
            refs.extend(join.table for join in core.joins)
            for ref in refs:
                if ref.subquery is not None:
                    bases |= self._referenced_bases(ref.subquery)
                elif ref.name is not None:
                    key = ref.name.lower()
                    if key in self._tables or key in self._user_views:
                        bases.add(key)
        return bases

    def primary_key(self, name: str) -> Optional[str]:
        """The primary-key column of a registered table; None for a view."""
        primary = self._tables.get(name.lower())
        return primary.pk if primary is not None else None

    def table_columns(self, name: str) -> List[str]:
        """Lowercased column names of a registered table or view."""
        key = name.lower()
        if key in self._tables:
            return list(self._tables[key].columns)
        if key in self._user_views:
            return [c.lower() for c in self.db.views[key].columns]
        raise SqlNameError(f"unknown table or view: {name}")

    # ------------------------------------------------------------------
    # Delta tables and COW views
    # ------------------------------------------------------------------

    def delta_name(self, table: str, initiator: str) -> str:
        """The delta-table name for (table, initiator)."""
        return f"{table.lower()}_delta_{initiator_key(initiator)}"

    def view_name(self, name: str, initiator: str) -> str:
        """The per-initiator COW-view name for a table or user view."""
        return f"{name.lower()}_view_{initiator_key(initiator)}"

    def has_delta(self, table: str, initiator: str) -> bool:
        """True once the initiator has volatile records for ``table``."""
        return self.db.has_table(self.delta_name(table, initiator))

    def _ensure_table_cow(self, table: str, initiator: str) -> str:
        """Create the delta table, COW view and triggers for ``table`` on
        demand; returns the COW view name."""
        key = (table.lower(), initiator_key(initiator))
        cow_view = self.view_name(table, initiator)
        if key in self._materialized:
            return cow_view
        primary = self._tables[table.lower()]
        delta = self.delta_name(table, initiator)
        columns_sql = []
        source = self.db.table(primary.name)
        for column in source.columns:
            decl = f"{column.name} {column.type_name}".strip()
            if column.primary_key:
                decl += " PRIMARY KEY"
            columns_sql.append(decl)
        columns_sql.append("_whiteout INTEGER DEFAULT 0")
        self.db.execute(f"CREATE TABLE {delta} ({', '.join(columns_sql)})")
        self.db.table(delta).set_autoincrement_base(VOLATILE_PK_BASE)
        cols = ", ".join(primary.columns)
        pk = primary.pk
        self.db.execute(
            f"CREATE VIEW {cow_view} AS "
            f"SELECT {cols} FROM {primary.name} "
            f"WHERE {pk} NOT IN (SELECT {pk} FROM {delta}) "
            f"UNION ALL "
            f"SELECT {cols} FROM {delta} WHERE _whiteout = 0"
        )
        new_cols = ", ".join(f"NEW.{c}" for c in primary.columns)
        old_cols = ", ".join(f"OLD.{c}" for c in primary.columns)
        non_pk = [c for c in primary.columns if c != pk]
        update_values = ", ".join(
            ["OLD." + pk] + [f"NEW.{c}" for c in non_pk] + ["0"]
        )
        update_cols = ", ".join([pk] + non_pk + ["_whiteout"])
        self.db.execute(
            f"CREATE TRIGGER {cow_view}_insert INSTEAD OF INSERT ON {cow_view} BEGIN "
            f"INSERT INTO {delta} ({cols}, _whiteout) VALUES ({new_cols}, 0); END"
        )
        self.db.execute(
            f"CREATE TRIGGER {cow_view}_update INSTEAD OF UPDATE ON {cow_view} BEGIN "
            f"INSERT OR REPLACE INTO {delta} ({update_cols}) VALUES ({update_values}); END"
        )
        self.db.execute(
            f"CREATE TRIGGER {cow_view}_delete INSTEAD OF DELETE ON {cow_view} BEGIN "
            f"INSERT OR REPLACE INTO {delta} ({cols}, _whiteout) VALUES ({old_cols}, 1); END"
        )
        self._materialized.add(key)
        self.stats.delta_tables_created += 1
        self.stats.cow_views_created += 1
        self.obs.tracer.event("cow.materialize", table=table, initiator=initiator)
        return cow_view

    def _ensure_view_cow(self, view: str, initiator: str) -> str:
        """Create the COW copy of a user-defined view (and, recursively, of
        every base it depends on). Returns the COW view name."""
        key = (view.lower(), initiator_key(initiator))
        cow_name = self.view_name(view, initiator)
        if key in self._materialized:
            return cow_name
        definition = self._user_views[view.lower()]
        replacements: Dict[str, str] = {}
        for base in definition.bases:
            if base in self._tables:
                replacements[base] = self._ensure_table_cow(base, initiator)
            else:
                replacements[base] = self._ensure_view_cow(base, initiator)
        # A tree of our own: the rewrite edits it in place, and the cached
        # tree of this text may already carry compiled closures that read
        # the original bases.
        select = parse(definition.select_sql)
        assert isinstance(select, ast.Select)
        rewritten = self._rewrite_bases(select, replacements)
        self.db.define_view(cow_name, rewritten)
        self._materialized.add(key)
        self.stats.cow_views_created += 1
        return cow_name

    def _rewrite_bases(self, select: ast.Select, replacements: Dict[str, str]) -> ast.Select:
        for core in select.cores:
            refs = []
            if core.source is not None:
                refs.append(core.source)
            refs.extend(join.table for join in core.joins)
            for ref in refs:
                if ref.subquery is not None:
                    self._rewrite_bases(ref.subquery, replacements)
                elif ref.name is not None and ref.name.lower() in replacements:
                    if ref.alias is None:
                        # Preserve the original name for qualified column
                        # references in the view definition.
                        ref.alias = ref.name
                    ref.name = replacements[ref.name.lower()]
        # Subqueries in WHERE clauses may also reference bases.
        for core in select.cores:
            if core.where is not None:
                self._rewrite_expr_bases(core.where, replacements)
        return select

    def _rewrite_expr_bases(self, expr: ast.Expr, replacements: Dict[str, str]) -> None:
        if isinstance(expr, (ast.InSelect, ast.ExistsSelect, ast.ScalarSelect)):
            self._rewrite_bases(expr.select, replacements)
        elif isinstance(expr, ast.Unary):
            self._rewrite_expr_bases(expr.operand, replacements)
        elif isinstance(expr, ast.Binary):
            self._rewrite_expr_bases(expr.left, replacements)
            self._rewrite_expr_bases(expr.right, replacements)
        elif isinstance(expr, ast.InList):
            self._rewrite_expr_bases(expr.operand, replacements)
            for item in expr.items:
                self._rewrite_expr_bases(item, replacements)

    # ------------------------------------------------------------------
    # Maxoid view selection (paper: "the proxy selects the correct view")
    # ------------------------------------------------------------------

    def resolve(self, name: str, initiator: Optional[str], for_write: bool = False) -> str:
        """The SQL object a caller should operate on.

        ``initiator=None`` means the caller is not a delegate: operations
        go to the primary table / original view. For a delegate of
        ``initiator``, reads go to the COW view if volatile state exists
        (otherwise the shared primary copy), and writes always go through
        the COW view, creating it on demand.
        """
        key = name.lower()
        if initiator is None:
            return key
        if key in self._tables:
            if for_write:
                return self._ensure_table_cow(key, initiator)
            if self.has_delta(key, initiator):
                return self._ensure_table_cow(key, initiator)
            return key
        if key in self._user_views:
            definition = self._user_views[key]
            if for_write:
                raise SqlNameError(f"view {name} is not writable through the proxy")
            if self._any_base_has_delta(definition, initiator):
                return self._ensure_view_cow(key, initiator)
            return key
        raise SqlNameError(f"unknown table or view: {name}")

    def _any_base_has_delta(self, definition: _UserView, initiator: str) -> bool:
        for base in definition.bases:
            if base in self._tables:
                if self.has_delta(base, initiator):
                    return True
            else:
                if self._any_base_has_delta(self._user_views[base], initiator):
                    return True
        return False

    # ------------------------------------------------------------------
    # The provider-facing operation API
    # ------------------------------------------------------------------

    @boundary("cow.query", attrs=_table_attrs, count="cow.query")
    def query(
        self,
        name: str,
        initiator: Optional[str],
        projection: Optional[Sequence[str]] = None,
        where: Optional[str] = None,
        params: Sequence[object] = (),
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> ResultSet:
        """Query with automatic view selection and the footnote-5 widening.

        ``projection`` is a list of column names (None means ``*``);
        ``where`` is a SQL expression with ``?`` placeholders; ``order_by``
        is e.g. ``"title DESC, _id"``.
        """
        target = self.resolve(name, initiator, for_write=False)
        if self.obs.enabled:
            tag(self.obs, "cow.query", target=target)
        columns = list(projection) if projection else ["*"]
        extra: List[str] = []
        if (
            order_by
            and projection
            and target != name.lower()  # querying a COW view
        ):
            order_columns = self._order_by_columns(order_by)
            present = {c.lower() for c in projection}
            extra = [c for c in order_columns if c not in present]
            if extra:
                columns.extend(extra)
                self.stats.order_by_workarounds += 1
        sql = f"SELECT {', '.join(columns)} FROM {target}"
        if where:
            sql += f" WHERE {where}"
        if order_by:
            sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        result = self.db.execute(sql, params)
        if extra:
            keep = len(columns) - len(extra)
            result = ResultSet(
                columns=result.columns[:keep],
                rows=[row[:keep] for row in result.rows],
                rowcount=result.rowcount,
                lastrowid=result.lastrowid,
            )
        if self.obs.prov:
            # Taint the caller with the stamped rows its view spans: the
            # primary table, plus its own delta table as a delegate (other
            # initiators' delta rows are invisible and must not over-taint).
            tables = [name.lower()]
            if initiator is not None:
                tables.append(self.delta_name(name, initiator))
            self.obs.provenance.table_read(tables)
        return result

    @staticmethod
    def _order_by_columns(order_by: str) -> List[str]:
        names = []
        for term in order_by.split(","):
            term = term.strip()
            if not term:
                continue
            column = term.split()[0].strip()
            names.append(column.lower())
        return names

    @boundary("cow.insert", attrs=_table_attrs, count="cow.insert")
    def insert(
        self,
        name: str,
        initiator: Optional[str],
        values: Dict[str, object],
    ) -> int:
        """Insert a row; delegates' inserts land in the delta table and
        return the primary key the row got (the caller's, if it gave one;
        else the allocated volatile key)."""
        target = self.resolve(name, initiator, for_write=initiator is not None)
        columns = list(values)
        placeholders = ", ".join("?" for _ in columns)
        sql = f"INSERT INTO {target} ({', '.join(columns)}) VALUES ({placeholders})"
        result = self.db.execute(sql, [values[c] for c in columns])
        if initiator is not None:
            self.stats.volatile_inserts += 1
            delta = self.delta_name(name, initiator)
            pk = self._tables[name.lower()].pk
            row_id = next((v for c, v in values.items() if c.lower() == pk), None)
            if row_id is None:
                # Auto-allocated: the delta's keys only grow from N, so the
                # new row holds the largest.
                row_id = int(self.db.execute(f"SELECT MAX({pk}) FROM {delta}").scalar() or 0)
            if self.obs.prov:
                self.obs.provenance.row_write(
                    delta, row_id, op="cow.insert", initiator=initiator
                )
            return row_id
        row_id = int(result.lastrowid or 0)
        if self.obs.prov:
            self.obs.provenance.row_write(name.lower(), row_id, op="cow.insert")
        return row_id

    @boundary("cow.update", attrs=_table_attrs, count="cow.update")
    def update(
        self,
        name: str,
        initiator: Optional[str],
        values: Dict[str, object],
        where: Optional[str] = None,
        params: Sequence[object] = (),
    ) -> int:
        """Update matching rows; a delegate's updates copy-on-write into
        its initiator's delta table. Returns rows affected."""
        target = self.resolve(name, initiator, for_write=initiator is not None)
        assignments = ", ".join(f"{c} = ?" for c in values)
        sql = f"UPDATE {target} SET {assignments}"
        if where:
            sql += f" WHERE {where}"
        result = self.db.execute(sql, list(values.values()) + list(params))
        if initiator is not None:
            self.stats.volatile_updates += result.rowcount
        return result.rowcount

    @boundary("cow.delete", attrs=_table_attrs, count="cow.delete")
    def delete(
        self,
        name: str,
        initiator: Optional[str],
        where: Optional[str] = None,
        params: Sequence[object] = (),
    ) -> int:
        """Delete matching rows; a delegate's deletes become whiteout
        records in the delta table. Returns rows affected."""
        target = self.resolve(name, initiator, for_write=initiator is not None)
        sql = f"DELETE FROM {target}"
        if where:
            sql += f" WHERE {where}"
        result = self.db.execute(sql, params)
        if initiator is not None:
            self.stats.volatile_deletes += result.rowcount
        return result.rowcount

    # ------------------------------------------------------------------
    # Initiator-side volatile state management
    # ------------------------------------------------------------------

    def insert_volatile(self, name: str, initiator: str, values: Dict[str, object]) -> int:
        """An *initiator* creating a volatile record directly — the
        ``isVolatile`` ContentValues flag (paper section 6.1, API 4)."""
        self._ensure_table_cow(name, initiator)
        delta = self.delta_name(name, initiator)
        columns = list(values) + ["_whiteout"]
        placeholders = ", ".join("?" for _ in columns)
        sql = f"INSERT INTO {delta} ({', '.join(columns)}) VALUES ({placeholders})"
        result = self.db.execute(sql, list(values.values()) + [0])
        self.stats.volatile_inserts += 1
        row_id = int(result.lastrowid or 0)
        if self.obs.prov:
            self.obs.provenance.row_write(
                delta, row_id, op="cow.insert_volatile", initiator=initiator
            )
        return row_id

    def volatile_rows(
        self,
        name: str,
        initiator: str,
        include_whiteouts: bool = False,
    ) -> ResultSet:
        """All volatile records of ``initiator`` for ``name`` (the data an
        initiator sees through volatile URIs)."""
        if not self.has_delta(name, initiator):
            return ResultSet(columns=self.table_columns(name) + ["_whiteout"], rows=[])
        delta = self.delta_name(name, initiator)
        where = "" if include_whiteouts else " WHERE _whiteout = 0"
        return self.db.execute(f"SELECT * FROM {delta}{where}")

    @boundary(
        "cow.commit",
        attrs=lambda self, name, initiator, row_id: {
            "table": name, "initiator": initiator, "row_id": row_id
        },
        done=_commit_done,
    )
    def commit_volatile(self, name: str, initiator: str, row_id: int) -> bool:
        """Copy one volatile record into the primary table (the initiator's
        selective commit, section 3.3). Returns False if no such record."""
        if not self.has_delta(name, initiator):
            return False
        return self._commit_row(name, initiator, row_id)

    @boundary(
        "cow.delta_commit",
        span=False,
        fault=lambda self, name, initiator, row_id: {
            "table": name, "initiator": initiator, "row_id": row_id
        },
        sched=_delta_commit_sched,
    )
    def _commit_row(self, name: str, initiator: str, row_id: int) -> bool:
        """Journal one sealed commit intent, then apply it."""
        entries = self._journal_commit_intents(name, initiator, [row_id], sealed=1)
        for entry in entries:
            self._apply_entry(entry)
        return bool(entries)

    @boundary("cow.commit_batch", span=False, done=_commit_batch_done)
    def commit_volatile_batch(
        self, name: str, initiator: str, row_ids: Sequence[int]
    ) -> int:
        """Commit several volatile records all-or-nothing.

        Two-phase: every row is journaled unsealed, one statement seals the
        batch (the atomic commit point), then the rows are applied and the
        journal truncated. A crash before the seal rolls the whole batch
        back on recovery; after it, recovery replays every row — never a
        partial batch. Returns rows committed.
        """
        if not self.has_delta(name, initiator):
            return 0
        return self._commit_rows(name, initiator, row_ids)

    @boundary(
        "cow.delta_commit",
        span=False,
        fault=lambda self, name, initiator, row_ids: {
            "table": name, "initiator": initiator, "rows": len(row_ids)
        },
        sched=_delta_commit_sched,
    )
    def _commit_rows(self, name: str, initiator: str, row_ids: Sequence[int]) -> int:
        """Journal the rows unsealed, seal them in one statement, apply."""
        entries = self._journal_commit_intents(name, initiator, row_ids, sealed=0)
        if not entries:
            return 0
        jids = ", ".join("?" for _ in entries)
        self.db.execute(
            f"UPDATE {JOURNAL_TABLE} SET sealed = 1 WHERE jid IN ({jids})",
            [entry["jid"] for entry in entries],
        )
        for entry in entries:
            self._apply_entry(entry)
        return len(entries)

    # -- journal plumbing ------------------------------------------------

    def _ensure_journal(self) -> None:
        if not self.db.has_table(JOURNAL_TABLE):
            self.db.execute(
                f"CREATE TABLE {JOURNAL_TABLE} ("
                "jid INTEGER PRIMARY KEY, tbl TEXT, initiator TEXT, "
                "delta_pk INTEGER, public_pk INTEGER, sealed INTEGER, "
                "payload TEXT)"
            )

    def _journal_commit_intents(
        self, name: str, initiator: str, row_ids: Sequence[int], sealed: int
    ) -> List[Dict[str, object]]:
        """Write one commit intent per row still live in the delta; returns
        the in-memory entries.

        A row the delegate created gets a fresh public key, allocated here
        and recorded in its intent, so replaying the entry after a crash
        reuses the same key instead of minting a duplicate row. The key is
        one more than both the public table's largest key (read from the
        key, not by a scan: :mod:`repro.minisql.planner`) and every key a
        journal entry for the table holds. Those entries are read once per
        call; the keys journaled after that are tracked as they are
        written, so a batch never rescans its own entries.
        """
        self._ensure_journal()
        delta = self.delta_name(name, initiator)
        primary = self._tables[name.lower()]
        pending: Optional[int] = None
        entries: List[Dict[str, object]] = []
        for row_id in row_ids:
            row = self.db.execute(
                f"SELECT * FROM {delta} WHERE {primary.pk} = ? AND _whiteout = 0", [row_id]
            )
            if not row.rows:
                continue
            record = dict(zip([c.lower() for c in row.columns], row.rows[0]))
            record.pop("_whiteout", None)
            if row_id >= VOLATILE_PK_BASE:
                if pending is None:
                    pending = int(
                        self.db.execute(
                            f"SELECT MAX(public_pk) FROM {JOURNAL_TABLE} WHERE tbl = ?",
                            [primary.name],
                        ).scalar()
                        or 0
                    )
                top = self.db.execute(f"SELECT MAX({primary.pk}) FROM {primary.name}")
                record[primary.pk] = max(int(top.scalar() or 0), pending) + 1
            result = self.db.execute(
                f"INSERT INTO {JOURNAL_TABLE} "
                "(tbl, initiator, delta_pk, public_pk, sealed, payload) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [
                    primary.name,
                    initiator,
                    row_id,
                    record[primary.pk],
                    sealed,
                    _encode_payload(record),
                ],
            )
            if pending is not None:
                pending = max(pending, int(record[primary.pk]))  # type: ignore[call-overload]
            entries.append(
                {
                    "jid": result.lastrowid,
                    "tbl": primary.name,
                    "record": record,
                    "pk": primary.pk,
                    "delta": delta,
                    "delta_pk": row_id,
                    "initiator": initiator,
                }
            )
        return entries

    def _apply_record(self, table: str, record: Dict[str, object]) -> None:
        columns = list(record)
        placeholders = ", ".join("?" for _ in columns)
        self.db.execute(
            f"INSERT OR REPLACE INTO {table} ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            [record[c] for c in columns],
        )

    @boundary(
        "cow.delta_commit.apply",
        span=False,
        fault=_entry_table,
        sched=lambda self, entry: {
            "table": entry["tbl"], "resource": f"table:{entry['tbl']}", "rw": "w"
        },
    )
    def _apply_entry(self, entry: Dict[str, object]) -> None:
        """Apply one journaled intent to the primary table."""
        self._apply_record(entry["tbl"], entry["record"])
        if self.obs.prov and "delta" in entry:
            # `recover()` replays from the journal payload alone (no
            # delta keys), so only fresh commits carry lineage.
            self.obs.provenance.row_commit(
                entry["tbl"], entry["record"][entry["pk"]],
                entry["delta"], entry["delta_pk"], entry["initiator"],
            )
        self._truncate_entry(entry)

    @boundary("cow.delta_commit.truncate", span=False, fault=_entry_table)
    def _truncate_entry(self, entry: Dict[str, object]) -> None:
        """Clear one applied intent from the journal."""
        self.db.execute(f"DELETE FROM {JOURNAL_TABLE} WHERE jid = ?", [entry["jid"]])

    def recover(self) -> Tuple[int, int]:
        """Finish or undo commits interrupted by a crash.

        Unsealed journal rows (a batch that never reached its commit point)
        are rolled back; sealed rows are replayed — idempotently, since the
        intent carries the pre-allocated public key and the apply is an
        ``INSERT OR REPLACE``. Returns ``(replayed, rolled_back)``.
        """
        if not self.db.has_table(JOURNAL_TABLE):
            return (0, 0)
        rolled_back = self.db.execute(
            f"DELETE FROM {JOURNAL_TABLE} WHERE sealed = 0"
        ).rowcount
        pending = self.db.execute(
            f"SELECT jid, tbl, payload FROM {JOURNAL_TABLE} ORDER BY jid"
        )
        replayed = 0
        for jid, tbl, payload in pending.rows:
            self._apply_record(tbl, _decode_payload(payload))
            self.db.execute(f"DELETE FROM {JOURNAL_TABLE} WHERE jid = ?", [jid])
            replayed += 1
        return (replayed, rolled_back)

    @boundary("cow.discard", attrs=_table_attrs, done=_discard_done)
    def discard_volatile(self, name: str, initiator: str) -> int:
        """Drop all of ``initiator``'s volatile records for ``name``
        (the clean-up after commit, section 3.3). Returns rows discarded."""
        if not self.has_delta(name, initiator):
            return 0
        delta = self.delta_name(name, initiator)
        count = int(self.db.execute(f"SELECT COUNT(*) FROM {delta}").scalar() or 0)
        self.db.execute(f"DELETE FROM {delta}")
        return count

    def discard_all_volatile(self, initiator: str) -> int:
        """Discard the initiator's volatile records across every table."""
        total = 0
        for table in list(self._tables):
            total += self.discard_volatile(table, initiator)
        return total

    def initiators_with_volatile_state(self, name: str) -> List[str]:
        """Initiator keys having at least one volatile record for ``name``."""
        found = []
        prefix = f"{name.lower()}_delta_"
        for table_name in self.db.table_names():
            if table_name.startswith(prefix) and len(self.db.table(table_name)):
                found.append(table_name[len(prefix) :])
        return found

    # ------------------------------------------------------------------
    # The administrative view (providers' background threads)
    # ------------------------------------------------------------------

    def admin_rows(self, name: str) -> List[Dict[str, object]]:
        """Primary plus all volatile rows, each tagged with ``_state``
        (``"public"`` or ``"vol:<initiator-key>"``) and ``_whiteout``."""
        primary = self._tables[name.lower()]
        cols = ", ".join(primary.columns)
        parts = [f"SELECT {cols}, 0 AS _whiteout, 'public' AS _state FROM {primary.name}"]
        for key in self.initiators_with_volatile_state(name):
            delta = f"{primary.name}_delta_{key}"
            parts.append(f"SELECT {cols}, _whiteout, 'vol:{key}' AS _state FROM {delta}")
        result = self.db.execute(" UNION ALL ".join(parts))
        return result.dicts()

    @staticmethod
    def state_initiator(state: str) -> Optional[str]:
        """The initiator key an admin row's ``_state`` tag names; None for
        a public row."""
        return None if state == "public" else state[len("vol:") :]
