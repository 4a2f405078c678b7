"""The mini SQL engine: statement execution over in-memory tables.

The public entry point is :class:`Database`. ``execute(sql, params)``
parses (once per process: :func:`prepare`), dispatches, and returns a
:class:`ResultSet`. SQL views are stored SELECTs re-evaluated on use;
``INSTEAD OF`` triggers intercept writes to views — the two features the
Maxoid COW proxy is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.boundary import boundary
from repro.errors import (
    SqlError,
    SqlIntegrityError,
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
from repro.minisql.table import Table, integer_key
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


class _Access:
    """How one base-table source is read (:meth:`Database._access`): its
    ``table``, the sargable key term of its own WHERE (``probe``), the
    table whose keys its key anti-join excludes (``anti``), and its WHERE
    less that anti-join term (``where``)."""

    __slots__ = ("table", "probe", "anti", "where")

    def __init__(
        self,
        table: Table,
        probe: Optional[planner.Probe] = None,
        anti: Optional[Table] = None,
        where: Optional[ast.Expr] = None,
    ) -> None:
        self.table = table
        self.probe = probe
        self.anti = anti
        self.where = where


class _Arm:
    """One arm of a flattened UNION ALL view (:meth:`Database._plan_arm`).

    ``access`` says how its base table is read row by row (None: the arm
    runs whole). ``names`` are the arm row's own names (:func:`row_names`);
    ``view_names`` maps view-column names read straight from the arm row
    to their row key, and ``view_items`` the other view-column names to
    the arm item that computes them. ``key_columns`` are the view columns
    whose item is the arm table's key: an outer key term on one of them
    reaches the arm as a probe."""

    __slots__ = ("core", "access", "names", "view_names", "view_items", "items", "key_columns")

    def __init__(self, core: ast.SelectCore, access: Optional[_Access] = None) -> None:
        self.core = core
        self.access = access
        self.names: Dict[str, str] = {}
        self.view_names: Dict[str, str] = {}
        self.view_items: Dict[str, ast.Expr] = {}
        self.items: List[ast.Expr] = []
        self.key_columns: List[str] = []


class _ViewPlan:
    """A flattened view read under the lowercased effective name
    ``qualifier``: its column names (bare and qualified) by position, and
    its arms."""

    __slots__ = ("qualifier", "positions", "arms")

    def __init__(self, qualifier: str, positions: Dict[str, int], arms: List[_Arm]) -> None:
        self.qualifier = qualifier
        self.positions = positions
        self.arms = arms


@dataclass
class _View:
    name: str
    select: ast.Select
    columns: List[str]
    #: Plans by the lowercased effective name of the query reading the
    #: view; dropped whenever a base table is created or dropped.
    plans: Dict[str, _ViewPlan] = field(default_factory=dict)


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
        sargable key term, ``SEARCH table USING PRIMARY KEY (max)`` for a
        ``MAX(pk)`` answered from the table's largest key, ``VIEW name
        (FLATTEN)`` for a UNION ALL view
        the planner would push the query into (its arms then show whether
        the outer key term reaches them), or ``VIEW name (MATERIALIZE)``
        when footnote-5 rules force the view into a temp result first.
        A table source with a key anti-join ends in ``EXCEPT KEYS OF
        other`` (the COW view's public arm). Subqueries are annotated
        recursively.
        """
        statement = prepare(sql)
        if not isinstance(statement, ast.Select):
            return [f"{type(statement).__name__.upper()}"]
        return self._explain_select(statement)

    def _explain_select(
        self,
        select: ast.Select,
        depth: int = 0,
        probes: Optional[List[Optional[planner.Probe]]] = None,
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
                    access = self._core_access(core) if ref is core.source else None
                    probe = None
                    if access is not None:
                        probe = probes[index] if probes and probes[index] else access.probe
                    if probe is not None:
                        line = f"SEARCH {name} USING PRIMARY KEY ({table.pk_column}=?)"
                    elif self._key_max_table(core) is not None:
                        line = f"SEARCH {name} USING PRIMARY KEY (max)"
                    else:
                        line = f"SCAN {name} ({len(table)} rows)"
                    if access is not None and access.anti is not None:
                        line += f" EXCEPT KEYS OF {access.anti.name}"
                    lines.append(pad + line)
                elif name in self.views:
                    view = self.views[name]
                    pushed = None
                    if view.select.is_compound:
                        flattens = ref is core.source and self._flattened_view(core, select)
                        if flattens:
                            plan = self._view_plan(view, ref.effective_name)
                            pushed = self._arm_probes(plan, core.where)
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

    def has_table(self, name: str) -> bool:
        """True if a base table named ``name`` exists."""
        return name.lower() in self.tables

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
        self._drop_view_plans()
        return ResultSet()

    def _drop_view_plans(self) -> None:
        """Forget every view's plans: they hold the base tables they read."""
        for view in self.views.values():
            view.plans.clear()

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
            self._drop_view_plans()
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
    ) -> Tuple[List[str], List[Dict[str, object]]]:
        """Produce (column names, row dicts) for a FROM source.

        Base-table rows are handed out by reference (scopes copy what they
        bind). A view is always evaluated whole here: this is the
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
            pairs, _ = self._key_rows(_Access(table), params)
            return [c.name for c in table.columns], [row for _, row in pairs]
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
    ) -> ResultSet:
        """Run a SELECT: each core, then the compound ORDER BY and LIMIT."""
        evaluator = self._evaluator(params)
        projected: List[_ProjectedRow] = []
        columns: List[str] = []
        for index, core in enumerate(select.cores):
            core_columns, core_rows = self._execute_core(
                core, select, params, evaluator, outer_scope
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
    ) -> Tuple[List[str], List[_ProjectedRow]]:
        # --- planner hook: flattened execution over a UNION ALL view -----
        flattened = self._try_flattened_view(core, enclosing, params, evaluator, outer_scope)
        if flattened is not None:
            return flattened
        # --- planner hook: MAX(pk) from the table's largest key -----------
        table = self._key_max_table(core)
        if table is not None:
            self.stats.index_lookups += 1
            row = _ProjectedRow((table.largest_key(),), Scope({}, outer_scope))
            return self._core_output_columns(core, []), [row]
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
            access = self._core_access(core)
            if access is None:
                cols, rows = self._source_rows(core.source, params, outer_scope)
                where = core.where
            else:
                pairs, settled = self._key_rows(access, params)
                cols = [c.name for c in access.table.columns]
                rows = [row for _, row in pairs]
                where = planner.without_term(access.where, settled)
            source_columns.append((name, cols))
            scopes = self._scan(row_names(name, cols), rows, where, evaluator, outer_scope)
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
        the work into the view's arms (:meth:`_arm_rows`) when the planner
        allows it."""
        view = self._flattened_view(core, enclosing)
        if view is None:
            return None
        self.stats.flattened_queries += 1
        assert core.source is not None
        plan = self._view_plan(view, core.source.effective_name)
        source_columns = [(core.source.effective_name, list(view.columns))]
        out_rows: List[_ProjectedRow] = []
        for values in self._arm_rows(view, plan, core.where, params, evaluator, outer_scope):
            scope = ValuesScope(plan.positions, values, outer_scope)
            projected = self._project(core, scope, source_columns, evaluator)
            out_rows.append(_ProjectedRow(tuple(projected), scope))
        return self._core_output_columns(core, source_columns), out_rows

    def _arm_rows(
        self,
        view: _View,
        plan: _ViewPlan,
        where: Optional[ast.Expr],
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Iterator[Sequence[object]]:
        """The values of each row of the flattenable ``view``, read as
        ``plan`` says, that ``where`` holds for. Its sargable key term also
        reaches each arm as an index probe.

        An arm over a base table is read in place from its row source
        (:meth:`_key_rows`): each row is tested against the arm's WHERE,
        then against ``where`` on an :class:`ArmScope` over the same row,
        and only a row that passes both is computed. A pushed key term the
        probe settles is tested on neither. Any other arm (``*``, an
        aggregate, a view source) runs whole and its rows are tested
        afterwards."""
        width = len(view.columns)
        for arm, probe in zip(plan.arms, self._arm_probes(plan, where)):
            if arm.access is None:
                _, arm_rows = self._execute_core(
                    arm.core, view.select, params, evaluator, outer_scope
                )
                for arm_row in arm_rows:
                    values = (arm_row.values + (None,) * width)[:width]
                    if where is None or evaluator.truth(
                        where, ValuesScope(plan.positions, values, outer_scope)
                    ):
                        yield values
                continue
            pairs, settled = self._key_rows(arm.access, params, probe)
            arm_where = planner.without_term(arm.access.where, settled)
            arm_outer = planner.without_term(where, settled)
            row_scope = RowScope(arm.names, outer_scope)
            view_row = ArmScope(arm.view_names, arm.view_items, evaluator, row_scope, outer_scope)
            for _, row in pairs:
                row_scope.row = row
                if arm_where is not None and not evaluator.truth(arm_where, row_scope):
                    continue
                if arm_outer is not None and not evaluator.truth(arm_outer, view_row):
                    continue
                yield [evaluator.evaluate(expr, row_scope) for expr in arm.items]

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

    def _view_plan(self, view: _View, qualifier: str) -> _ViewPlan:
        """How ``view``'s arms are read by a query naming it ``qualifier``,
        planned on first use and kept on the view."""
        key = qualifier.lower()
        plan = view.plans.get(key)
        if plan is None:
            positions = {
                name: index
                for index, column in enumerate(view.columns)
                for name in row_names(key, [column])
            }
            columns = [column.lower() for column in view.columns]
            arms = [self._plan_arm(arm, positions, columns) for arm in view.select.cores]
            plan = view.plans[key] = _ViewPlan(key, positions, arms)
        return plan

    def _plan_arm(
        self, arm: ast.SelectCore, positions: Dict[str, int], columns: List[str]
    ) -> _Arm:
        """Plan one arm of a view with the lowercased ``columns``, whose
        names map to their positions by ``positions``. View column *i* is
        arm item *i*; where that item is a bare column of the arm's table,
        the view column is read straight from the arm row."""
        table = self._arm_table(arm, len(columns))
        if table is None:
            return _Arm(arm)
        assert arm.source is not None
        qualifier = arm.source.effective_name
        plan = _Arm(arm, self._access(table, arm.where, qualifier))
        plan.names = names = row_names(qualifier, table.column_names)
        plan.items = items = [item.expr for item in arm.items]
        for name, index in positions.items():
            item = items[index]
            key = names.get(item.qualified.lower()) if isinstance(item, ast.Column) else None
            if key is None:
                plan.view_items[name] = item
            else:
                plan.view_names[name] = key
        plan.key_columns = [
            column
            for item, column in zip(items, columns)
            if columns.count(column) == 1
            and planner.names_column(item, table.pk_column, {qualifier.lower()})
        ]
        return plan

    # -- the base-table row source ---------------------------------------------

    def _source_table(self, core: ast.SelectCore) -> Optional[Table]:
        """The base table that is ``core``'s lone source, if it has one."""
        ref = core.source
        if ref is None or ref.name is None or core.joins:
            return None
        return self.tables.get(ref.name.lower())

    def _core_access(self, core: ast.SelectCore) -> Optional[_Access]:
        """How ``core``'s lone base-table source is read, if it has one."""
        table = self._source_table(core)
        if table is None:
            return None
        assert core.source is not None
        return self._access(table, core.where, core.source.effective_name)

    def _access(
        self, table: Table, where: Optional[ast.Expr], qualifier: str
    ) -> _Access:
        """How ``table``, named ``qualifier``, is read under ``where``: its
        sargable key term and its key anti-join, a top-level ``pk NOT IN
        (SELECT pk FROM other)`` whose subquery :meth:`_key_set` answers."""
        qualifiers = {qualifier.lower()}
        probe = planner.pk_probe(where, table.pk_column, qualifiers)
        term = planner.pk_anti_join(where, table.pk_column, qualifiers)
        anti = self._key_set(term.select) if term is not None else None
        if anti is not None:
            where = planner.without_term(where, term)
        return _Access(table, probe, anti, where)

    def _key_max_table(self, core: ast.SelectCore) -> Optional[Table]:
        """The base table whose largest key answers ``core``, when ``core``
        is ``SELECT MAX(<integer primary key>) FROM`` that table."""
        table = self._source_table(core)
        if table is None or not table.pk_is_integer:
            return None
        assert core.source is not None
        if not planner.is_key_max(core, table.pk_column, {core.source.effective_name.lower()}):
            return None
        return table

    def _key_rows(
        self,
        access: _Access,
        params: Sequence[object],
        pushed: Optional[planner.Probe] = None,
        target: bool = False,
    ) -> Tuple[List[Tuple[int, Dict[str, object]]], Optional[ast.Expr]]:
        """The one base-table row source: the (rowid, row) pairs of
        ``access.table`` its WHERE must test, and the key term those rows
        are known to hold (None: none).

        The rows are those whose primary key the probe finds (``pushed``
        by an enclosing statement, else the source's own), or every row.
        The key anti-join then drops each row whose key is in the other
        table's index, read once per statement; a NULL key is dropped too,
        as ``NULL NOT IN (...)`` is not true. ``stats.rows_scanned``
        counts the rows read before the anti-join, which visits each one,
        except for an UPDATE/DELETE ``target``.
        """
        table = access.table
        keys, settled = self._probe_keys(
            table, pushed if pushed is not None else access.probe, params
        )
        if keys is None:
            pairs = list(table.rows.items())
        else:
            self.stats.index_lookups += 1
            pairs = [(rowid, table.rows[rowid]) for rowid in table.probe(keys)]
        if not target:
            self.stats.rows_scanned += len(pairs)
        if access.anti is not None:
            self.stats.index_lookups += 1
            excluded, pk = access.anti.pk_index, table.pk_column
            pairs = [
                (rowid, row)
                for rowid, row in pairs
                if (key := row[pk]) is not None and key not in excluded
            ]
        return pairs, settled

    def _arm_probes(
        self, plan: _ViewPlan, where: Optional[ast.Expr]
    ) -> List[Optional[planner.Probe]]:
        """Push ``where``'s sargable terms on the view's columns into its
        arms, one probe (or None) per arm.

        A view column reaches an arm only where that arm's item is a bare
        column naming its base table's primary key and the arm does not
        aggregate (:attr:`_Arm.key_columns`), so the arm's rows match the
        term exactly when their key does.
        """
        qualifiers = {plan.qualifier}
        probes: List[Optional[planner.Probe]] = []
        for arm in plan.arms:
            probe = None
            for column in arm.key_columns:
                probe = planner.pk_probe(where, column, qualifiers)
                if probe is not None:
                    break
            probes.append(probe)
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

    @staticmethod
    def _probe_keys(
        table: Table, probe: Optional[planner.Probe], params: Sequence[object]
    ) -> Tuple[Optional[List[object]], Optional[ast.Expr]]:
        """The key values ``probe`` looks up in ``table`` (None: scan), and
        its term when the rows found hold it exactly (None otherwise).

        SQL ``=`` is dict-key equality only for int, float and text, so
        any other value (bool included) falls back to the scan. NULL
        equals nothing and adds no key. On an INTEGER PRIMARY KEY each
        value is converted once by :func:`integer_key`, as SQLite applies
        the key's numeric affinity to the other operand (``'7'`` and
        ``7.0`` find key 7; ``'abc'``, ``2.5`` or a blob find none), so the
        term holds for exactly the rows found and is not tested again.
        """
        if probe is None:
            return None, None
        term, values = probe
        keys: List[object] = []
        for expr in values:
            if isinstance(expr, ast.Param):
                if expr.index >= len(params):
                    return None, None
                value = params[expr.index]
            else:
                assert isinstance(expr, ast.Literal)
                value = expr.value
            if value is None:
                continue
            if table.pk_is_integer:
                try:
                    keys.append(integer_key(value))
                except SqlIntegrityError:
                    pass
            elif type(value) in (int, float, str):
                keys.append(value)
            else:
                return None, None
        return keys, term if table.pk_is_integer else None

    def _target_rows(
        self, table: Table, where: Optional[ast.Expr], params: Sequence[object]
    ) -> Tuple[List[Tuple[int, Dict[str, object]]], Optional[ast.Expr]]:
        """(rowid, row) pairs an UPDATE/DELETE on ``table`` must test, and
        the WHERE to test them on."""
        access = self._access(table, where, table.name)
        pairs, settled = self._key_rows(access, params, target=True)
        return pairs, planner.without_term(access.where, settled)

    def _key_set(self, select: ast.Select) -> Optional[Table]:
        """The table whose primary-key index holds the rows of ``select``,
        when it is a bare ``SELECT pk FROM table`` (no WHERE, join, ORDER
        BY or LIMIT)."""
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
        return table

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
        rows, where = self._target_rows(table, statement.where, params)
        for rowid, row in rows:
            # Every assignment is evaluated before the row changes.
            row_scope.row = row
            if not evaluator.truth(where, row_scope):
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
        rows, where = self._target_rows(table, statement.where, params)
        for rowid, row in rows:
            row_scope.row = row
            if evaluator.truth(where, row_scope):
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

    def _view_write_rows(
        self,
        view: _View,
        params: List[object],
        scope: Optional[Scope],
        where: Optional[ast.Expr],
        evaluator: Evaluator,
    ) -> List[Dict[str, object]]:
        """The view rows an UPDATE/DELETE acts on: those ``where`` holds
        for, all read before any trigger fires. A flattenable view is read
        arm by arm as a flattened SELECT is (:meth:`_arm_rows`), so a key
        term an arm's probe settles is not tested again on its rows."""
        lowered = [c.lower() for c in view.columns]
        if planner.view_is_flattenable(view.select):
            plan = self._view_plan(view, view.name)
            rows = list(self._arm_rows(view, plan, where, params, evaluator, scope))
            return [dict(zip(lowered, values)) for values in rows]
        names = row_names(view.name, view.columns)
        result = self._execute_select(view.select, params, outer_scope=scope)
        rows = [dict(zip(lowered, values)) for values in result.rows]
        return [row for row in rows if evaluator.truth(where, RowScope(names, scope, row))]

    def _update_view(
        self, statement: ast.Update, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "UPDATE")
        evaluator = self._evaluator(params)
        rows = self._view_write_rows(view, params, scope, statement.where, evaluator)
        names = row_names(view.name, view.columns)
        for row in rows:
            row_scope = RowScope(names, scope, row)
            new_row = dict(row)
            for column, expr in statement.assignments:
                new_row[column.lower()] = evaluator.evaluate(expr, row_scope)
            self._run_trigger(trigger, params, new_row=new_row, old_row=row)
        return ResultSet(rowcount=len(rows))

    def _delete_from_view(
        self, statement: ast.Delete, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "DELETE")
        evaluator = self._evaluator(params)
        rows = self._view_write_rows(view, params, scope, statement.where, evaluator)
        for row in rows:
            self._run_trigger(trigger, params, new_row=None, old_row=row)
        return ResultSet(rowcount=len(rows))
