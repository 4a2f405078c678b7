"""The mini SQL engine: statement execution over in-memory tables.

The public entry point is :class:`Database`. ``execute(sql, params)``
parses (once per process: :func:`prepare`), dispatches, and returns a
:class:`ResultSet`. SQL views are stored SELECTs re-evaluated on use;
``INSTEAD OF`` triggers intercept writes to views — the two features the
Maxoid COW proxy is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.boundary import boundary
from repro.errors import (
    SqlError,
    SqlNameError,
    SqlReadOnlyError,
)
from repro.minisql import ast_nodes as ast
from repro.minisql import planner
from repro.minisql.expr import (
    ArmScope,
    Evaluator,
    RowScope,
    Scope,
    ValuesScope,
    apply_binary,
    apply_unary,
    contains_aggregate,
    is_aggregate_call,
    pick_extreme,
    row_names,
    sql_compare,
)
from repro.minisql.parser import parse
from repro.minisql.table import Table
from repro.obs import OBS as _OBS


@dataclass
class ResultSet:
    """The result of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    rowcount: int = 0
    lastrowid: Optional[int] = None

    def dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        """First column of the first row (None if empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class _View:
    name: str
    select: ast.Select
    columns: List[str]


@dataclass
class _Trigger:
    name: str
    event: str
    view: str
    body: List[ast.TriggerAction]


class _ProjectedRow:
    """A projected output row plus the scope it came from (for ORDER BY on
    non-projected columns)."""

    __slots__ = ("values", "scope")

    def __init__(self, values: tuple, scope: Scope) -> None:
        self.values = values
        self.scope = scope


_MISSING = object()

#: Parsed statements by SQL text, shared by every Database in the process
#: (SQLite's prepared statements, minus the per-connection plan). The
#: cache is cleared when it reaches this many texts.
STATEMENT_CACHE_LIMIT = 512
_statements: Dict[str, ast.Statement] = {}


def prepare(sql: str) -> ast.Statement:
    """The parsed statement for ``sql``, parsed on first use and shared.

    A cached tree holds nothing of any database and is never modified, so
    the closures its expressions compile to (:func:`expr.compiled`) serve
    every database that runs the text. Code that rewrites a tree must
    ``parse`` its own."""
    statement = _statements.get(sql)
    if statement is None:
        statement = parse(sql)
        if len(_statements) >= STATEMENT_CACHE_LIMIT:
            _statements.clear()
        _statements[sql] = statement
    return statement


def _execute_done(self, span, result: "ResultSet") -> None:
    span.set(rows=len(result.rows), rowcount=result.rowcount)
    self.obs.metrics.count("sql.statements")
    self.obs.metrics.observe("sql.execute.ms", span.elapsed_ms)


class Database:
    """An in-memory SQL database.

    ``sqlite_emulation`` selects the subquery-flattening behaviour (see
    :mod:`repro.minisql.planner`); the default matches SQLite 3.8.6, the
    version the Maxoid authors ported to Android.
    """

    def __init__(
        self,
        sqlite_emulation: str = planner.FLATTEN_ORDER_BY_SUBSET,
        obs: Optional[object] = None,
    ) -> None:
        # The observability context of whoever owns this database (a COW
        # proxy passes its device's handle; bare databases use OBS).
        self.obs = obs if obs is not None else _OBS
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, _View] = {}
        # view name -> event -> trigger
        self.triggers: Dict[str, Dict[str, _Trigger]] = {}
        self.sqlite_emulation = sqlite_emulation
        self.stats = planner.PlannerStats()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    @boundary(
        "sql.execute",
        attrs=lambda self, sql, params=(): {
            "sql": sql if len(sql) <= 200 else sql[:197] + "..."
        },
        done=_execute_done,
    )
    def execute(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        """Parse (once per process, see :func:`prepare`) and execute one
        SQL statement."""
        statement = prepare(sql)
        required = getattr(statement, "param_count", 0)
        if len(params) < required:
            raise SqlError(
                f"statement requires {required} parameters, got {len(params)}: {sql!r}"
            )
        result = self._dispatch(statement, list(params))
        if (
            self.obs.prov
            and isinstance(statement, ast.Insert)
            and result.lastrowid is not None
        ):
            # Raw inserts (outside the COW proxy) still stamp the row, so
            # provider state written directly is never label-less.
            self.obs.provenance.row_write(
                statement.table.lower(), result.lastrowid, op="sql.insert"
            )
        return result

    def executemany(self, sql: str, param_rows: Sequence[Sequence[object]]) -> ResultSet:
        """Execute ``sql`` once per parameter row; returns the last result."""
        result = ResultSet()
        for params in param_rows:
            result = self.execute(sql, params)
        return result

    def explain(self, sql: str) -> List[str]:
        """Describe how a SELECT would execute (a minimal EXPLAIN).

        One line per FROM source: ``SCAN table (N rows)``, ``SEARCH table
        USING PRIMARY KEY (pk=?)`` for a table source narrowed by a
        sargable key term, ``VIEW name (FLATTEN)`` for a UNION ALL view
        the planner would push the query into (its arms then show whether
        the outer key term reaches them), or ``VIEW name (MATERIALIZE)``
        when footnote-5 rules force the view into a temp result first.
        Subqueries are annotated recursively.
        """
        statement = prepare(sql)
        if not isinstance(statement, ast.Select):
            return [f"{type(statement).__name__.upper()}"]
        return self._explain_select(statement)

    def _explain_select(
        self,
        select: ast.Select,
        depth: int = 0,
        probes: Optional[List[Optional[List[ast.Expr]]]] = None,
    ) -> List[str]:
        pad = "  " * depth
        lines: List[str] = []
        for index, core in enumerate(select.cores):
            refs = []
            if core.source is not None:
                refs.append(core.source)
            refs.extend(join.table for join in core.joins)
            if not refs:
                lines.append(f"{pad}CONSTANT ROW")
            for ref in refs:
                if ref.subquery is not None:
                    lines.append(f"{pad}SUBQUERY {ref.effective_name}:")
                    lines.extend(self._explain_select(ref.subquery, depth + 1))
                    continue
                name = (ref.name or "").lower()
                if name in self.tables:
                    table = self.tables[name]
                    probe = None
                    if ref is core.source:
                        probe = self._effective_probe(core, probes[index] if probes else None)
                    if probe is not None:
                        lines.append(
                            f"{pad}SEARCH {name} USING PRIMARY KEY ({table.pk_column}=?)"
                        )
                    else:
                        lines.append(f"{pad}SCAN {name} ({len(table)} rows)")
                elif name in self.views:
                    view = self.views[name]
                    pushed = None
                    if view.select.is_compound:
                        flattens = ref is core.source and self._flattened_view(core, select)
                        if flattens:
                            pushed = self._arm_probes(view, core.where, ref.effective_name)
                        mode = "FLATTEN" if flattens else "MATERIALIZE"
                        lines.append(f"{pad}VIEW {name} ({mode})")
                    else:
                        lines.append(f"{pad}VIEW {name} (EXPAND)")
                    lines.extend(self._explain_select(view.select, depth + 1, pushed))
                else:
                    lines.append(f"{pad}UNKNOWN {ref.name}")
        if select.order_by:
            lines.append(f"{pad}ORDER BY {len(select.order_by)} key(s)")
        if select.limit is not None:
            lines.append(f"{pad}LIMIT")
        return lines

    def table_names(self) -> List[str]:
        """Sorted names of all base tables."""
        return sorted(self.tables)

    def view_names(self) -> List[str]:
        """Sorted names of all views."""
        return sorted(self.views)

    def has_table(self, name: str) -> bool:
        """True if a base table named ``name`` exists."""
        return name.lower() in self.tables

    def has_view(self, name: str) -> bool:
        """True if a view named ``name`` exists."""
        return name.lower() in self.views

    def table(self, name: str) -> Table:
        """The :class:`Table` object for ``name`` (raises if unknown)."""
        table = self.tables.get(name.lower())
        if table is None:
            raise SqlNameError(f"no such table: {name}")
        return table

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, statement: ast.Statement, params: List[object], scope: Optional[Scope] = None
    ) -> ResultSet:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, outer_scope=scope)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params, scope)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params, scope)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params, scope)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.CreateTrigger):
            return self._execute_create_trigger(statement)
        if isinstance(statement, ast.DropStatement):
            return self._execute_drop(statement)
        raise SqlError(f"cannot execute {type(statement).__name__}")

    def _evaluator(self, params: Sequence[object]) -> Evaluator:
        return Evaluator(
            params,
            subquery_runner=lambda select, scope: self._execute_select(
                select, list(params), outer_scope=scope
            ).rows,
            index_keys=self._index_keys,
        )

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        key = statement.name.lower()
        if key in self.tables or key in self.views:
            if statement.if_not_exists:
                return ResultSet()
            raise SqlNameError(f"table {statement.name} already exists")
        self.tables[key] = Table(statement.name, statement.columns)
        return ResultSet()

    def _execute_create_view(self, statement: ast.CreateView) -> ResultSet:
        key = statement.name.lower()
        if key in self.tables or key in self.views:
            if statement.if_not_exists:
                return ResultSet()
            raise SqlNameError(f"view {statement.name} already exists")
        columns = self._select_output_columns(statement.select)
        self.views[key] = _View(name=statement.name, select=statement.select, columns=columns)
        return ResultSet()

    def define_view(self, name: str, select: ast.Select) -> None:
        """Register a view directly from a SELECT AST.

        Used by the COW proxy to build per-initiator copies of user-defined
        views whose base tables have been rewritten to COW views — textual
        SQL rewriting would be fragile, so the proxy rewrites the AST.
        """
        key = name.lower()
        if key in self.tables or key in self.views:
            raise SqlNameError(f"view {name} already exists")
        columns = self._select_output_columns(select)
        self.views[key] = _View(name=name, select=select, columns=columns)

    def _execute_create_trigger(self, statement: ast.CreateTrigger) -> ResultSet:
        view_key = statement.view.lower()
        if view_key not in self.views:
            raise SqlNameError(
                f"INSTEAD OF triggers require a view; {statement.view} is not one"
            )
        per_view = self.triggers.setdefault(view_key, {})
        if statement.event in per_view and statement.if_not_exists:
            return ResultSet()
        per_view[statement.event] = _Trigger(
            name=statement.name,
            event=statement.event,
            view=statement.view,
            body=statement.body,
        )
        return ResultSet()

    def _execute_drop(self, statement: ast.DropStatement) -> ResultSet:
        key = statement.name.lower()
        if statement.kind == "TABLE":
            if key not in self.tables:
                if statement.if_exists:
                    return ResultSet()
                raise SqlNameError(f"no such table: {statement.name}")
            del self.tables[key]
        elif statement.kind == "VIEW":
            if key not in self.views:
                if statement.if_exists:
                    return ResultSet()
                raise SqlNameError(f"no such view: {statement.name}")
            del self.views[key]
            self.triggers.pop(key, None)
        else:  # TRIGGER
            for per_view in self.triggers.values():
                for event, trigger in list(per_view.items()):
                    if trigger.name.lower() == key:
                        del per_view[event]
                        return ResultSet()
            if not statement.if_exists:
                raise SqlNameError(f"no such trigger: {statement.name}")
        return ResultSet()

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _select_output_columns(self, select: ast.Select) -> List[str]:
        """Column names a SELECT produces (used for view schemas)."""
        core = select.cores[0]
        names: List[str] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                names.extend(self._star_columns(core, item.expr))
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            else:
                names.append(f"col{len(names) + 1}")
        return names

    def _star_columns(self, core: ast.SelectCore, star: ast.Star) -> List[str]:
        names: List[str] = []
        refs = []
        if core.source is not None:
            refs.append(core.source)
        refs.extend(join.table for join in core.joins)
        for ref in refs:
            if star.table and ref.effective_name.lower() != star.table.lower():
                continue
            names.extend(self._source_columns(ref))
        return names

    def _source_columns(self, ref: ast.TableRef) -> List[str]:
        if ref.subquery is not None:
            return self._select_output_columns(ref.subquery)
        assert ref.name is not None
        key = ref.name.lower()
        if key in self.tables:
            return [c.name for c in self.tables[key].columns]
        if key in self.views:
            return list(self.views[key].columns)
        raise SqlNameError(f"no such table: {ref.name}")

    def _source_rows(
        self,
        ref: ast.TableRef,
        params: List[object],
        outer_scope: Optional[Scope],
        keys: Optional[List[object]] = None,
    ) -> Tuple[List[str], List[Dict[str, object]]]:
        """Produce (column names, row dicts) for a FROM source.

        Base-table rows are handed out by reference (scopes copy what they
        bind); ``keys`` narrows a base table to the rows whose primary key
        is among them. A view is always evaluated whole here: this is the
        materialise path, which gets no probe (footnote 5).
        """
        if ref.subquery is not None:
            result = self._execute_select(ref.subquery, params, outer_scope=outer_scope)
            rows = [dict(zip([c.lower() for c in result.columns], row)) for row in result.rows]
            return result.columns, rows
        assert ref.name is not None
        key = ref.name.lower()
        if key in self.tables:
            table = self.tables[key]
            rows = [row for _, row in self._table_rows(table, keys)]
            self.stats.rows_scanned += len(rows)
            return [c.name for c in table.columns], rows
        if key in self.views:
            view = self.views[key]
            result = self._execute_select(view.select, params, outer_scope=outer_scope)
            self.stats.materialized_views += 1
            self.stats.materialized_rows += len(result.rows)
            rows = [dict(zip([c.lower() for c in view.columns], row)) for row in result.rows]
            return list(view.columns), rows
        raise SqlNameError(f"no such table: {ref.name}")

    @staticmethod
    def _scope_for(
        name: str, columns: List[str], row: Dict[str, object], outer: Optional[Scope]
    ) -> Scope:
        bindings: Dict[str, object] = {}
        lowered = name.lower()
        for column in columns:
            key = column.lower()
            value = row.get(key)
            bindings[key] = value
            bindings[f"{lowered}.{key}"] = value
        return Scope(bindings, outer)

    @staticmethod
    def _merge_scopes(base: Scope, extra: Scope) -> Scope:
        merged = dict(base.bindings)
        merged.update(extra.bindings)
        return Scope(merged, extra.outer or base.outer)

    @staticmethod
    def _scan(
        names: Dict[str, str],
        rows: Iterable[Dict[str, object]],
        where: Optional[ast.Expr],
        evaluator: Evaluator,
        outer: Optional[Scope],
    ) -> List[Scope]:
        """Scopes of the ``rows`` of one source that pass ``where``.

        Rows are read in place through one reused :class:`RowScope`; only
        a row that passes gets a scope of its own."""
        if where is None:
            return [RowScope(names, outer, row) for row in rows]
        candidate = RowScope(names, outer)
        kept: List[Scope] = []
        for row in rows:
            candidate.row = row
            if evaluator.truth(where, candidate):
                kept.append(RowScope(names, outer, row))
        return kept

    def _join(
        self,
        core: ast.SelectCore,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
        source_columns: List[Tuple[str, List[str]]],
    ) -> List[Scope]:
        """The merged scopes of a joined FROM clause, before its WHERE;
        appends each source's columns to ``source_columns``."""
        assert core.source is not None
        name = core.source.effective_name
        cols, rows = self._source_rows(core.source, params, outer_scope)
        source_columns.append((name, cols))
        scopes = [self._scope_for(name, cols, row, outer_scope) for row in rows]
        for join in core.joins:
            join_name = join.table.effective_name
            join_cols, join_rows = self._source_rows(join.table, params, outer_scope)
            source_columns.append((join_name, join_cols))
            joined: List[Scope] = []
            for left_scope in scopes:
                matched = False
                for row in join_rows:
                    candidate = self._merge_scopes(
                        left_scope, self._scope_for(join_name, join_cols, row, outer_scope)
                    )
                    if join.on is None or evaluator.truth(join.on, candidate):
                        joined.append(candidate)
                        matched = True
                if join.kind == "LEFT" and not matched:
                    null_row = {c.lower(): None for c in join_cols}
                    joined.append(
                        self._merge_scopes(
                            left_scope,
                            self._scope_for(join_name, join_cols, null_row, outer_scope),
                        )
                    )
            scopes = joined
        return scopes

    def _execute_select(
        self,
        select: ast.Select,
        params: List[object],
        outer_scope: Optional[Scope] = None,
        probes: Optional[List[Optional[List[ast.Expr]]]] = None,
    ) -> ResultSet:
        """Run a SELECT; ``probes`` (one per core) are key terms pushed
        down from an enclosing statement (see :meth:`_arm_probes`)."""
        evaluator = self._evaluator(params)
        projected: List[_ProjectedRow] = []
        columns: List[str] = []
        for index, core in enumerate(select.cores):
            core_columns, core_rows = self._execute_core(
                core, select, params, evaluator, outer_scope,
                probes[index] if probes else None,
            )
            if index == 0:
                columns = core_columns
            elif len(core_columns) != len(columns):
                raise SqlError("UNION ALL arms have differing column counts")
            projected.extend(core_rows)
        # ORDER BY over the compound result.
        if select.order_by:
            projected = self._order_rows(projected, columns, select.order_by, evaluator)
        # LIMIT / OFFSET
        if select.limit is not None or select.offset is not None:
            scope = outer_scope or Scope({})
            offset = 0
            if select.offset is not None:
                offset = int(evaluator.evaluate(select.offset, scope) or 0)
            if select.limit is not None:
                limit = evaluator.evaluate(select.limit, scope)
                if limit is not None and int(limit) >= 0:
                    projected = projected[offset : offset + int(limit)]
                else:
                    projected = projected[offset:]
            else:
                projected = projected[offset:]
        rows = [p.values for p in projected]
        return ResultSet(columns=columns, rows=rows, rowcount=len(rows))

    def _queried_column_set(self, core: ast.SelectCore) -> Optional[Set[str]]:
        """Lowercased output column names, or None when the core selects *."""
        names: Set[str] = set()
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                return None
            if item.alias:
                names.add(item.alias.lower())
            if isinstance(item.expr, ast.Column):
                names.add(item.expr.name.lower())
        return names

    def _execute_core(
        self,
        core: ast.SelectCore,
        enclosing: ast.Select,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
        probe: Optional[List[ast.Expr]] = None,
    ) -> Tuple[List[str], List[_ProjectedRow]]:
        # --- planner hook: flattened execution over a UNION ALL view -----
        flattened = self._try_flattened_view(core, enclosing, params, evaluator, outer_scope)
        if flattened is not None:
            return flattened
        # --- build the row set and apply WHERE --------------------------------
        scopes: List[Scope]
        source_columns: List[Tuple[str, List[str]]] = []
        if core.source is None:
            scopes = self._scan({}, [{}], core.where, evaluator, outer_scope)
        elif core.joins:
            scopes = self._join(core, params, evaluator, outer_scope, source_columns)
            if core.where is not None:
                scopes = [s for s in scopes if evaluator.truth(core.where, s)]
        else:
            name = core.source.effective_name
            probe = self._effective_probe(core, probe)
            cols, rows = self._source_rows(
                core.source, params, outer_scope, self._probe_keys(probe, params)
            )
            source_columns.append((name, cols))
            scopes = self._scan(row_names(name, cols), rows, core.where, evaluator, outer_scope)
        # --- aggregate or plain projection ------------------------------------
        has_aggregates = any(contains_aggregate(item.expr) for item in core.items) or (
            core.having is not None and contains_aggregate(core.having)
        )
        columns = self._core_output_columns(core, source_columns)
        if core.group_by or has_aggregates:
            rows = self._aggregate(core, scopes, columns, evaluator)
        else:
            rows = []
            for scope in scopes:
                values = self._project(core, scope, source_columns, evaluator)
                rows.append(_ProjectedRow(tuple(values), scope))
        if core.distinct:
            seen = set()
            unique: List[_ProjectedRow] = []
            for row in rows:
                key = row.values
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        return columns, rows

    def _try_flattened_view(
        self,
        core: ast.SelectCore,
        enclosing: ast.Select,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Optional[Tuple[List[str], List[_ProjectedRow]]]:
        """Execute ``SELECT ... FROM union_all_view WHERE ...`` by pushing
        the work into the view's arms when the planner allows it. The outer
        WHERE's sargable key term also reaches each arm as an index probe;
        the whole WHERE is still evaluated on every arm row.

        An arm over a base table is scanned in place: each stored row is
        tested against the arm's WHERE, then against the outer WHERE with
        view column *i* read through arm item *i*, and only a row that
        passes both is projected. Any other arm (``*``, an aggregate, a
        view source) runs whole and its rows are tested afterwards."""
        view = self._flattened_view(core, enclosing)
        if view is None:
            return None
        self.stats.flattened_queries += 1
        assert core.source is not None
        effective = core.source.effective_name
        width = len(view.columns)
        positions = {
            name: index
            for index, column in enumerate(view.columns)
            for name in row_names(effective, [column])
        }
        source_columns = [(effective, list(view.columns))]
        out_rows: List[_ProjectedRow] = []

        def emit(values: Sequence[object]) -> None:
            scope = ValuesScope(positions, values, outer_scope)
            projected = self._project(core, scope, source_columns, evaluator)
            out_rows.append(_ProjectedRow(tuple(projected), scope))

        probes = self._arm_probes(view, core.where, effective)
        for arm, probe in zip(view.select.cores, probes):
            table = self._arm_table(arm, width)
            if table is None:
                _, arm_rows = self._execute_core(
                    arm, view.select, params, evaluator, outer_scope, probe
                )
                for arm_row in arm_rows:
                    values = (arm_row.values + (None,) * width)[:width]
                    if core.where is None or evaluator.truth(
                        core.where, ValuesScope(positions, values, outer_scope)
                    ):
                        emit(values)
                continue
            assert arm.source is not None
            keys = self._probe_keys(self._effective_probe(arm, probe), params)
            rows = self._table_rows(table, keys)
            self.stats.rows_scanned += len(rows)
            items = [item.expr for item in arm.items]
            arm_row = RowScope(
                row_names(arm.source.effective_name, table.column_names), outer_scope
            )
            view_row = ArmScope(positions, items, evaluator, arm_row, outer_scope)
            for _, row in rows:
                arm_row.row = row
                if arm.where is not None and not evaluator.truth(arm.where, arm_row):
                    continue
                if core.where is not None and not evaluator.truth(core.where, view_row):
                    continue
                emit([evaluator.evaluate(expr, arm_row) for expr in items])
        return self._core_output_columns(core, source_columns), out_rows

    def _flattened_view(
        self, core: ast.SelectCore, enclosing: ast.Select
    ) -> Optional[_View]:
        """The UNION ALL view ``core`` reads, if the planner flattens it."""
        if core.source is None or core.source.name is None or core.joins:
            return None
        if core.group_by or core.having or core.distinct:
            return None
        if any(contains_aggregate(item.expr) for item in core.items):
            return None
        view = self.views.get(core.source.name.lower())
        if view is None or not view.select.is_compound:
            return None
        if not planner.should_flatten(
            view.select,
            enclosing.order_by if len(enclosing.cores) == 1 else [],
            self._queried_column_set(core),
            self.sqlite_emulation,
        ):
            return None
        return view

    # -- primary-key probes ---------------------------------------------------

    def _source_probe(self, core: ast.SelectCore) -> Optional[List[ast.Expr]]:
        """Sargable key terms of ``core.where`` on its lone base-table source."""
        ref = core.source
        if ref is None or ref.name is None or core.joins:
            return None
        table = self.tables.get(ref.name.lower())
        if table is None:
            return None
        return planner.pk_probe(core.where, table.pk_column, {ref.effective_name.lower()})

    def _effective_probe(
        self, core: ast.SelectCore, pushed: Optional[List[ast.Expr]]
    ) -> Optional[List[ast.Expr]]:
        """The key terms narrowing ``core``'s source: those pushed into it
        by an enclosing statement, else those of its own WHERE."""
        return pushed if pushed is not None else self._source_probe(core)

    def _table_rows(
        self, table: Table, keys: Optional[List[object]]
    ) -> List[Tuple[int, Dict[str, object]]]:
        """(rowid, row) pairs of ``table``: every row, or with ``keys`` only
        those whose primary key is among them, found in the index."""
        if keys is None:
            return list(table.rows.items())
        self.stats.index_lookups += 1
        return [(rowid, table.rows[rowid]) for rowid in table.probe(keys)]

    def _arm_probes(
        self, view: _View, where: Optional[ast.Expr], qualifier: str
    ) -> List[Optional[List[ast.Expr]]]:
        """Push ``where``'s sargable terms on ``view``'s columns into its
        arms, one probe (or None) per arm.

        A view column maps to an arm by position, and reaches the arm only
        where that arm's item is a bare column naming its base table's
        primary key and the arm does not aggregate, so the arm's rows match
        the term exactly when their key does.
        """
        columns = [c.lower() for c in view.columns]
        probes: List[Optional[List[ast.Expr]]] = []
        for arm in view.select.cores:
            probes.append(self._arm_probe(arm, columns, where, qualifier.lower()))
        return probes

    def _arm_table(self, arm: ast.SelectCore, width: int) -> Optional[Table]:
        """The base table whose rows ``arm`` of a ``width``-column view
        maps one to one, item *i* giving view column *i*; None when the arm
        projects ``*``, aggregates, joins, reads a view or has another
        width. (An outer term filters an aggregate arm's output, not the
        rows the aggregate reads.)"""
        ref = arm.source
        if ref is None or ref.name is None or arm.joins or len(arm.items) != width:
            return None
        if any(
            isinstance(item.expr, ast.Star) or contains_aggregate(item.expr)
            for item in arm.items
        ):
            return None
        return self.tables.get(ref.name.lower())

    def _arm_probe(
        self,
        arm: ast.SelectCore,
        columns: List[str],
        where: Optional[ast.Expr],
        qualifier: str,
    ) -> Optional[List[ast.Expr]]:
        table = self._arm_table(arm, len(columns))
        if table is None:
            return None
        assert arm.source is not None
        arm_names = {arm.source.effective_name.lower()}
        for item, column in zip(arm.items, columns):
            if columns.count(column) == 1 and planner.names_column(
                item.expr, table.pk_column, arm_names
            ):
                probe = planner.pk_probe(where, column, {qualifier})
                if probe is not None:
                    return probe
        return None

    @staticmethod
    def _probe_keys(
        probe: Optional[List[ast.Expr]], params: Sequence[object]
    ) -> Optional[List[object]]:
        """The key values a probe looks up, or None to scan instead.

        SQL ``=`` is dict-key equality only for int, float and text, so
        any other value (bool included) falls back to the scan. NULL
        equals nothing and adds no key.
        """
        if probe is None:
            return None
        keys: List[object] = []
        for expr in probe:
            if isinstance(expr, ast.Param):
                if expr.index >= len(params):
                    return None
                value = params[expr.index]
            else:
                assert isinstance(expr, ast.Literal)
                value = expr.value
            if value is None:
                continue
            if type(value) not in (int, float, str):
                return None
            keys.append(value)
        return keys

    def _target_rows(
        self, table: Table, where: Optional[ast.Expr], params: Sequence[object]
    ) -> List[Tuple[int, Dict[str, object]]]:
        """(rowid, row) pairs an UPDATE/DELETE on ``table`` must test."""
        probe = planner.pk_probe(where, table.pk_column, {table.name})
        return self._table_rows(table, self._probe_keys(probe, params))

    def _index_keys(self, select: ast.Select) -> Optional[Iterable[object]]:
        """The key set of a bare ``SELECT pk FROM table`` (no WHERE, join,
        ORDER BY or LIMIT), which an ``IN`` test reads from the index."""
        # A single plain core with no ORDER BY/LIMIT is what flattening needs.
        if select.is_compound or not planner.view_is_flattenable(select):
            return None
        core = select.cores[0]
        ref = core.source
        if core.where is not None or len(core.items) != 1:
            return None
        assert ref is not None and ref.name is not None
        table = self.tables.get(ref.name.lower())
        if table is None or not planner.names_column(
            core.items[0].expr, table.pk_column, {ref.effective_name.lower()}
        ):
            return None
        self.stats.index_lookups += 1
        return table.pk_index

    def _core_output_columns(
        self, core: ast.SelectCore, source_columns: List[Tuple[str, List[str]]]
    ) -> List[str]:
        names: List[str] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                for table_name, cols in source_columns:
                    if item.expr.table and table_name.lower() != item.expr.table.lower():
                        continue
                    names.extend(cols)
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            elif isinstance(item.expr, ast.FunctionCall):
                star = "*" if item.expr.star else ""
                names.append(f"{item.expr.name}({star})")
            else:
                names.append(f"col{len(names) + 1}")
        return names

    def _project(
        self,
        core: ast.SelectCore,
        scope: Scope,
        source_columns: List[Tuple[str, List[str]]],
        evaluator: Evaluator,
    ) -> List[object]:
        values: List[object] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                for table_name, cols in source_columns:
                    if item.expr.table and table_name.lower() != item.expr.table.lower():
                        continue
                    for column in cols:
                        values.append(scope.lookup(f"{table_name.lower()}.{column.lower()}"))
            else:
                values.append(evaluator.evaluate(item.expr, scope))
        return values

    # -- aggregation --------------------------------------------------------

    def _aggregate(
        self,
        core: ast.SelectCore,
        scopes: List[Scope],
        columns: List[str],
        evaluator: Evaluator,
    ) -> List[_ProjectedRow]:
        groups: Dict[tuple, List[Scope]] = {}
        order: List[tuple] = []
        if core.group_by:
            for scope in scopes:
                key = tuple(
                    self._hashable(evaluator.evaluate(expr, scope)) for expr in core.group_by
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(scope)
        else:
            groups[()] = scopes
            order.append(())
        rows: List[_ProjectedRow] = []
        for key in order:
            group = groups[key]
            representative = group[0] if group else Scope({})
            if core.having is not None:
                having_value = self._eval_aggregate_expr(core.having, group, evaluator)
                if not having_value:
                    continue
            values = [
                self._eval_aggregate_expr(item.expr, group, evaluator) for item in core.items
            ]
            rows.append(_ProjectedRow(tuple(values), representative))
        return rows

    @staticmethod
    def _hashable(value: object) -> object:
        return tuple(value) if isinstance(value, list) else value

    def _eval_aggregate_expr(
        self, expr: ast.Expr, group: List[Scope], evaluator: Evaluator
    ) -> object:
        if is_aggregate_call(expr):
            assert isinstance(expr, ast.FunctionCall)
            return self._compute_aggregate(expr, group, evaluator)
        if isinstance(expr, ast.Binary):
            left = self._eval_aggregate_expr(expr.left, group, evaluator)
            right = self._eval_aggregate_expr(expr.right, group, evaluator)
            return apply_binary(expr.op, left, right)
        if isinstance(expr, ast.Unary):
            inner = self._eval_aggregate_expr(expr.operand, group, evaluator)
            return apply_unary(expr.op, inner)
        scope = group[0] if group else Scope({})
        return evaluator.evaluate(expr, scope)

    def _compute_aggregate(
        self, call: ast.FunctionCall, group: List[Scope], evaluator: Evaluator
    ) -> object:
        if call.star:
            if call.name == "count":
                return len(group)
            raise SqlError(f"{call.name}(*) is not supported")
        if not call.args:
            raise SqlError(f"aggregate {call.name}() needs an argument")
        values = [evaluator.evaluate(call.args[0], scope) for scope in group]
        present = [v for v in values if v is not None]
        if call.distinct:
            deduped: List[object] = []
            for value in present:
                if value not in deduped:
                    deduped.append(value)
            present = deduped
        if call.name == "count":
            return len(present)
        if call.name == "sum":
            return sum(present) if present else None  # type: ignore[arg-type]
        if call.name == "total":
            return float(sum(present)) if present else 0.0  # type: ignore[arg-type]
        if call.name == "avg":
            return (sum(present) / len(present)) if present else None  # type: ignore[arg-type]
        if call.name in ("min", "max"):
            return pick_extreme(call.name, present) if present else None
        if call.name == "group_concat":
            if not present:
                return None
            return ",".join(str(v) for v in present)
        raise SqlNameError(f"no such aggregate: {call.name}")

    # -- ordering -------------------------------------------------------------

    def _order_rows(
        self,
        rows: List[_ProjectedRow],
        columns: List[str],
        order_by: List[ast.OrderItem],
        evaluator: Evaluator,
    ) -> List[_ProjectedRow]:
        lowered = [c.lower() for c in columns]

        def sort_key_values(row: _ProjectedRow) -> List[object]:
            keys: List[object] = []
            for item in order_by:
                expr = item.expr
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    keys.append(row.values[expr.value - 1])
                    continue
                if isinstance(expr, ast.Column) and expr.table is None:
                    name = expr.name.lower()
                    if name in lowered:
                        keys.append(row.values[lowered.index(name)])
                        continue
                keys.append(evaluator.evaluate(expr, row.scope))
            return keys

        import functools

        def compare(a: _ProjectedRow, b: _ProjectedRow) -> int:
            keys_a = sort_key_values(a)
            keys_b = sort_key_values(b)
            for item, ka, kb in zip(order_by, keys_a, keys_b):
                order = sql_compare(ka, kb)
                if order != 0:
                    return -order if item.descending else order
            return 0

        return sorted(rows, key=functools.cmp_to_key(compare))

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _execute_insert(
        self, statement: ast.Insert, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._insert_into_view(statement, params, scope)
        table = self.table(statement.table)
        evaluator = self._evaluator(params)
        eval_scope = scope or Scope({})
        value_rows: List[List[object]] = []
        if statement.select is not None:
            result = self._execute_select(statement.select, params, outer_scope=scope)
            value_rows = [list(row) for row in result.rows]
        else:
            for exprs in statement.values:
                value_rows.append([evaluator.evaluate(e, eval_scope) for e in exprs])
        columns = statement.columns or [c.name for c in table.columns]
        lastrowid = None
        for values in value_rows:
            if len(values) != len(columns):
                raise SqlError(
                    f"{len(columns)} columns but {len(values)} values in INSERT"
                )
            row = {c.lower(): v for c, v in zip(columns, values)}
            lastrowid = table.insert_row(row, or_replace=statement.or_replace)
        return ResultSet(rowcount=len(value_rows), lastrowid=lastrowid)

    def _execute_update(
        self, statement: ast.Update, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._update_view(statement, params, scope)
        table = self.table(statement.table)
        evaluator = self._evaluator(params)
        updated = 0
        row_scope = RowScope(row_names(table.name, table.column_names), scope)
        for rowid, row in self._target_rows(table, statement.where, params):
            # Every assignment is evaluated before the row changes.
            row_scope.row = row
            if not evaluator.truth(statement.where, row_scope):
                continue
            new_values = {
                column.lower(): evaluator.evaluate(expr, row_scope)
                for column, expr in statement.assignments
            }
            unknown = set(new_values) - set(table.column_names)
            if unknown:
                raise SqlNameError(f"no such columns in UPDATE: {sorted(unknown)}")
            table.update_row(rowid, new_values)
            updated += 1
        return ResultSet(rowcount=updated)

    def _execute_delete(
        self, statement: ast.Delete, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._delete_from_view(statement, params, scope)
        table = self.table(statement.table)
        evaluator = self._evaluator(params)
        doomed: List[int] = []
        row_scope = RowScope(row_names(table.name, table.column_names), scope)
        for rowid, row in self._target_rows(table, statement.where, params):
            row_scope.row = row
            if evaluator.truth(statement.where, row_scope):
                doomed.append(rowid)
        removed = table.delete_rowids(doomed)
        return ResultSet(rowcount=removed)

    # -- INSTEAD OF triggers ---------------------------------------------------

    def _view_trigger(self, view_key: str, event: str) -> _Trigger:
        trigger = self.triggers.get(view_key, {}).get(event)
        if trigger is None:
            raise SqlReadOnlyError(
                f"cannot modify view {view_key}: no INSTEAD OF {event} trigger"
            )
        return trigger

    def _run_trigger(
        self,
        trigger: _Trigger,
        params: List[object],
        new_row: Optional[Dict[str, object]],
        old_row: Optional[Dict[str, object]],
    ) -> None:
        bindings: Dict[str, object] = {}
        if new_row is not None:
            for column, value in new_row.items():
                bindings[f"new.{column.lower()}"] = value
        if old_row is not None:
            for column, value in old_row.items():
                bindings[f"old.{column.lower()}"] = value
        trigger_scope = Scope(bindings)
        for action in trigger.body:
            self._dispatch(action.statement, params, scope=trigger_scope)

    def _insert_into_view(
        self, statement: ast.Insert, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "INSERT")
        evaluator = self._evaluator(params)
        eval_scope = scope or Scope({})
        value_rows: List[List[object]] = []
        if statement.select is not None:
            result = self._execute_select(statement.select, params, outer_scope=scope)
            value_rows = [list(r) for r in result.rows]
        else:
            for exprs in statement.values:
                value_rows.append([evaluator.evaluate(e, eval_scope) for e in exprs])
        columns = statement.columns or list(view.columns)
        for values in value_rows:
            new_row = {c.lower(): None for c in view.columns}
            for column, value in zip(columns, values):
                new_row[column.lower()] = value
            self._run_trigger(trigger, params, new_row=new_row, old_row=None)
        return ResultSet(rowcount=len(value_rows))

    def _view_rows_with_scopes(
        self,
        view: _View,
        params: List[object],
        scope: Optional[Scope],
        where: Optional[ast.Expr],
    ) -> List[Dict[str, object]]:
        """The view rows an UPDATE/DELETE tests against ``where``; its key
        term is pushed into the arms of a flattenable view."""
        probes = None
        if planner.view_is_flattenable(view.select):
            probes = self._arm_probes(view, where, view.name)
        result = self._execute_select(view.select, params, outer_scope=scope, probes=probes)
        lowered = [c.lower() for c in view.columns]
        return [dict(zip(lowered, row)) for row in result.rows]

    def _update_view(
        self, statement: ast.Update, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "UPDATE")
        evaluator = self._evaluator(params)
        rows = self._view_rows_with_scopes(view, params, scope, statement.where)
        names = row_names(view.name, view.columns)
        updated = 0
        for row in rows:
            row_scope = RowScope(names, scope, row)
            if not evaluator.truth(statement.where, row_scope):
                continue
            new_row = dict(row)
            for column, expr in statement.assignments:
                new_row[column.lower()] = evaluator.evaluate(expr, row_scope)
            self._run_trigger(trigger, params, new_row=new_row, old_row=row)
            updated += 1
        return ResultSet(rowcount=updated)

    def _delete_from_view(
        self, statement: ast.Delete, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "DELETE")
        evaluator = self._evaluator(params)
        rows = self._view_rows_with_scopes(view, params, scope, statement.where)
        names = row_names(view.name, view.columns)
        deleted = 0
        for row in rows:
            if not evaluator.truth(statement.where, RowScope(names, scope, row)):
                continue
            self._run_trigger(trigger, params, new_row=None, old_row=row)
            deleted += 1
        return ResultSet(rowcount=deleted)
