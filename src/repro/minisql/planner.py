"""Query-planning decisions: UNION ALL subquery flattening.

The Maxoid COW proxy depends on SQLite's *subquery flattening*
optimisation: a COW view is ``SELECT ... FROM primary WHERE ... UNION ALL
SELECT ... FROM delta WHERE ...``, and queries over it stay efficient only
if the planner pushes the outer WHERE into the two arms instead of
materialising the whole view.

Footnote 5 of the paper documents a real SQLite limitation the authors had
to work around: *SQLite 3.8.6 does not flatten a query over a UNION ALL
view when the query has an ORDER BY clause, unless the ORDER BY columns are
a subset of the columns being queried* (3.7.11 as shipped with Android
4.3.2 never flattened such queries). The proxy's workaround adds the ORDER
BY columns to the queried columns.

This module reproduces those rules so the ablation benchmark can measure
the flattened-vs-materialised difference, and so the proxy's workaround is
actually load-bearing in this reproduction, as it was in the paper.

It also finds *sargable* primary-key predicates (:func:`pk_probe`): a
top-level ``AND`` term ``pk = <param|literal>`` or ``pk IN (<params|
literals>)`` lets a row source probe the table's primary-key index instead
of scanning it. As in SQLite, ``+pk = ?`` is not sargable, which is the
way to force a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.minisql import ast_nodes as ast


@dataclass
class PlannerStats:
    """Counters the benchmarks read.

    ``rows_scanned`` counts base-table rows a FROM source actually visited
    (every row for a scan, the matches for an index probe);
    ``index_lookups`` counts sources and ``IN (SELECT pk ...)`` subqueries
    answered from a primary-key index.
    """

    flattened_queries: int = 0
    materialized_views: int = 0
    materialized_rows: int = 0
    rows_scanned: int = 0
    index_lookups: int = 0

    def reset(self) -> None:
        self.flattened_queries = 0
        self.materialized_views = 0
        self.materialized_rows = 0
        self.rows_scanned = 0
        self.index_lookups = 0


# SQLite-version emulation levels for the flattening rule.
FLATTEN_NEVER_WITH_ORDER_BY = "3.7.11"  # Android 4.3.2's SQLite
FLATTEN_ORDER_BY_SUBSET = "3.8.6"  # the version the authors ported
FLATTEN_ALWAYS = "ideal"  # hypothetical fully-fixed planner


def _core_is_flattenable(core: ast.SelectCore) -> bool:
    """An arm of a compound view can be flattened if it is a plain
    projection+filter over a single source."""
    if core.distinct or core.group_by or core.having or core.joins:
        return False
    if core.source is None or core.source.subquery is not None:
        return False
    return True


def view_is_flattenable(select: ast.Select) -> bool:
    """True if the view body is a UNION ALL of plain cores with no
    ORDER BY/LIMIT of its own."""
    if select.order_by or select.limit is not None or select.offset is not None:
        return False
    return all(_core_is_flattenable(core) for core in select.cores)


def _column_names(expr: ast.Expr) -> Set[str]:
    """Column names referenced by an ORDER BY expression (lowercased,
    unqualified)."""
    names: Set[str] = set()
    stack: List[ast.Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Column):
            names.add(node.name.lower())
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)
        elif isinstance(node, ast.Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.FunctionCall):
            stack.extend(node.args)
    return names


def order_by_is_subset(
    order_by: List[ast.OrderItem], queried_columns: Optional[Set[str]]
) -> bool:
    """The 3.8.6 rule: every ORDER BY column must be among the queried
    columns. ``queried_columns=None`` means the query selects ``*`` (all
    columns), which always satisfies the rule."""
    if queried_columns is None:
        return True
    needed: Set[str] = set()
    for item in order_by:
        needed |= _column_names(item.expr)
    return needed <= queried_columns


def should_flatten(
    view_select: ast.Select,
    outer_order_by: List[ast.OrderItem],
    queried_columns: Optional[Set[str]],
    sqlite_emulation: str = FLATTEN_ORDER_BY_SUBSET,
) -> bool:
    """Decide whether a query over a UNION ALL view is flattened.

    ``queried_columns`` is the set of (lowercased) column names in the
    outer select list, or ``None`` for ``SELECT *``.
    """
    if not view_is_flattenable(view_select):
        return False
    if not outer_order_by:
        return True
    if sqlite_emulation == FLATTEN_NEVER_WITH_ORDER_BY:
        # 3.7.11: no flattening on UNION ALL views when ORDER BY present,
        # unless the query uses '*' as the columns.
        return queried_columns is None
    if sqlite_emulation == FLATTEN_ORDER_BY_SUBSET:
        return order_by_is_subset(outer_order_by, queried_columns)
    return True  # FLATTEN_ALWAYS


def _conjuncts(where: Optional[ast.Expr]) -> List[ast.Expr]:
    """The top-level ``AND`` terms of a WHERE clause."""
    terms: List[ast.Expr] = []
    stack = [where] if where is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary) and node.op == "AND":
            stack.extend((node.right, node.left))
        else:
            terms.append(node)
    return terms


def names_column(expr: ast.Expr, column: Optional[str], qualifiers: Set[str]) -> bool:
    """True if ``expr`` is a bare reference to ``column``, unqualified or
    qualified by one of ``qualifiers`` (all lowercased)."""
    return (
        column is not None
        and isinstance(expr, ast.Column)
        and expr.name.lower() == column
        and (expr.table is None or expr.table.lower() in qualifiers)
    )


def _is_constant(expr: ast.Expr) -> bool:
    return isinstance(expr, (ast.Param, ast.Literal))


def pk_probe(
    where: Optional[ast.Expr], column: Optional[str], qualifiers: Set[str]
) -> Optional[List[ast.Expr]]:
    """The value expressions of the first sargable term of ``where`` on
    ``column``, or None when there is none.

    ``column`` is the lowercased key column; ``qualifiers`` the lowercased
    names a qualified reference to it may use. A probe only narrows the
    candidate rows: the caller still evaluates the whole WHERE on each.
    """
    if column is None:
        return None
    for term in _conjuncts(where):
        if isinstance(term, ast.Binary) and term.op == "=":
            for key, value in ((term.left, term.right), (term.right, term.left)):
                if names_column(key, column, qualifiers) and _is_constant(value):
                    return [value]
        if (
            isinstance(term, ast.InList)
            and not term.negated
            and names_column(term.operand, column, qualifiers)
            and all(_is_constant(item) for item in term.items)
        ):
            return list(term.items)
    return None
