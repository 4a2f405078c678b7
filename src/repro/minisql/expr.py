"""Expression evaluation with SQL three-valued logic.

``NULL`` is represented by Python ``None``. Boolean results use ``1``/``0``
like SQLite, with ``None`` propagating as *unknown*; WHERE clauses treat
unknown as false.

A scope resolves column names (both unqualified and
``table.column``-qualified, lowercased) to values, falling back to an outer
scope so correlated subqueries resolve the enclosing row's columns:

- :class:`Scope` holds its bindings in a dict (joins, triggers);
- :class:`RowScope` reads one stored row in place, so a scan tests its
  WHERE without copying the row;
- :class:`ArmScope` reads a flattened UNION ALL view's column *i* from
  the arm row being tested: straight from the row where arm item *i* is a
  bare column of the arm's table, else by evaluating that item;
- :class:`ValuesScope` reads a projected row's values by position.
"""

from __future__ import annotations

import fnmatch
import functools
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SqlError, SqlNameError
from repro.minisql import ast_nodes as ast

AGGREGATE_NAMES = {"count", "sum", "avg", "total", "min", "max", "group_concat"}


def _outer_lookup(outer: Optional["Scope"], name: str) -> object:
    if outer is None:
        raise SqlNameError(f"no such column: {name}")
    return outer.lookup(name)


class Scope:
    """Column bindings for one row, chained to an optional outer scope."""

    __slots__ = ("bindings", "outer")

    def __init__(self, bindings: Dict[str, object], outer: Optional["Scope"] = None) -> None:
        self.bindings = bindings
        self.outer = outer

    def lookup(self, name: str) -> object:
        if name in self.bindings:
            return self.bindings[name]
        return _outer_lookup(self.outer, name)


def row_names(qualifier: str, columns: Iterable[str]) -> Dict[str, str]:
    """The names a row of ``columns`` answers to under ``qualifier``
    (``col`` and ``qualifier.col``, lowercased), each mapped to its
    lowercased column."""
    names: Dict[str, str] = {}
    lowered = qualifier.lower()
    for column in columns:
        key = column.lower()
        names[key] = key
        names[f"{lowered}.{key}"] = key
    return names


class RowScope(Scope):
    """One row dict of a single FROM source, read in place.

    ``names`` comes from :func:`row_names`. A scan reuses one RowScope,
    re-pointing ``row`` at each stored row, so a row its WHERE rejects
    costs no allocation."""

    __slots__ = ("names", "row")

    def __init__(
        self,
        names: Dict[str, str],
        outer: Optional[Scope],
        row: Optional[Dict[str, object]] = None,
    ) -> None:
        self.names = names
        self.outer = outer
        self.row = row

    def lookup(self, name: str) -> object:
        key = self.names.get(name)
        if key is not None:
            return self.row.get(key)  # type: ignore[union-attr]
        return _outer_lookup(self.outer, name)


class ArmScope(Scope):
    """A flattened view's row, read in place from the arm row that
    produces it.

    ``inner`` is the arm's :class:`RowScope`; view column *i* is arm item
    *i*. ``names`` maps the names (bare and qualified) of each view column
    whose item is a bare column of the arm's table to that row key, so the
    value is read straight from ``inner.row``; ``items`` maps the names of
    the other view columns to their item, evaluated against ``inner``.
    Nothing else of the arm row is visible: other names go to ``outer``,
    the enclosing query's scope."""

    __slots__ = ("names", "items", "evaluator", "inner")

    def __init__(
        self,
        names: Dict[str, str],
        items: Dict[str, ast.Expr],
        evaluator: "Evaluator",
        inner: RowScope,
        outer: Optional[Scope],
    ) -> None:
        self.names = names
        self.items = items
        self.evaluator = evaluator
        self.inner = inner
        self.outer = outer

    def lookup(self, name: str) -> object:
        key = self.names.get(name)
        if key is not None:
            return self.inner.row.get(key)  # type: ignore[union-attr]
        item = self.items.get(name)
        if item is not None:
            return self.evaluator.evaluate(item, self.inner)
        return _outer_lookup(self.outer, name)


class ValuesScope(Scope):
    """A projected row's values, read by the positions of their names."""

    __slots__ = ("positions", "values")

    def __init__(
        self, positions: Dict[str, int], values: Sequence[object], outer: Optional[Scope]
    ) -> None:
        self.positions = positions
        self.values = values
        self.outer = outer

    def lookup(self, name: str) -> object:
        position = self.positions.get(name)
        if position is not None:
            return self.values[position]
        return _outer_lookup(self.outer, name)


class _TouchDict(dict):
    """An always-empty bindings dict that raises a flag when consulted.

    Used to detect whether a subquery is *correlated*: the subquery runs
    with a tracking scope spliced between its own scopes and the outer
    row's; if the lookup chain ever reaches the tracker, the subquery read
    an outer column and its result must not be cached.
    """

    __slots__ = ("touched",)

    def __init__(self) -> None:
        super().__init__()
        self.touched = False

    def __contains__(self, key: object) -> bool:
        self.touched = True
        return False


def _to_bool(value: object) -> Optional[bool]:
    """SQL truthiness: NULL is unknown, zero/empty is false."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        # SQLite coerces text; non-numeric text is false.
        try:
            return float(value) != 0
        except ValueError:
            return False
    return bool(value)


_TYPE_RANK = {type(None): 0, int: 1, float: 1, bool: 1, str: 2, bytes: 3}


def sql_compare(a: object, b: object) -> int:
    """Total ordering over SQL values (SQLite ordering: NULL < numeric <
    text < blob). Returns -1/0/1."""
    rank_a = _TYPE_RANK.get(type(a), 4)
    rank_b = _TYPE_RANK.get(type(b), 4)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if a is None and b is None:
        return 0
    if a == b:
        return 0
    return -1 if a < b else 1  # type: ignore[operator]


def _comparison(test: Callable[[int], bool]) -> Callable[[object, object], Optional[int]]:
    """A comparison operator: ``test`` takes the :func:`sql_compare` order."""

    def compare(left: object, right: object) -> Optional[int]:
        if left is None or right is None:
            return None
        return 1 if test(sql_compare(left, right)) else 0

    return compare


@functools.lru_cache(maxsize=256)
def _like_matcher(pattern: str) -> Callable[[str], Optional[re.Match]]:
    """The compiled full-match test of one LIKE pattern.

    Case-insensitive for ASCII letters only, as SQLite's built-in LIKE is:
    ``'ä' LIKE 'Ä'`` is false."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(regex, re.IGNORECASE | re.ASCII | re.DOTALL).fullmatch


def _like(text: object, pattern: object) -> Optional[int]:
    if text is None or pattern is None:
        return None
    return 1 if _like_matcher(str(pattern))(str(text)) else 0


def _glob(text: object, pattern: object) -> Optional[int]:
    if text is None or pattern is None:
        return None
    return 1 if fnmatch.fnmatchcase(str(text), str(pattern)) else 0


def _arith(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if op == "||":
        return f"{left}{right}"
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise SqlError(f"cannot apply {op} to {type(left).__name__} and {type(right).__name__}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQLite yields NULL on division by zero
        result = left / right
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right) if result >= 0 else -(-left // right)
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise SqlError(f"unknown arithmetic operator {op}")


def _and(left: object, right: object) -> Optional[int]:
    left_truth, right_truth = _to_bool(left), _to_bool(right)
    if left_truth is False or right_truth is False:
        return 0
    return None if left_truth is None or right_truth is None else 1


def _or(left: object, right: object) -> Optional[int]:
    left_truth, right_truth = _to_bool(left), _to_bool(right)
    if left_truth is True or right_truth is True:
        return 1
    return None if left_truth is None or right_truth is None else 0


def _not(value: object) -> Optional[int]:
    truth = _to_bool(value)
    return None if truth is None else (0 if truth else 1)


def _negate(value: object) -> object:
    return None if value is None else -value  # type: ignore[operator]


#: Binary operators on two computed values; any other operator is
#: arithmetic. The compiled AND and OR short-circuit instead.
_BINARY_OPS: Dict[str, Callable[[object, object], object]] = {
    "=": _comparison((0).__eq__),
    "<>": _comparison((0).__ne__),
    "<": _comparison((0).__gt__),
    "<=": _comparison((0).__ge__),
    ">": _comparison((0).__lt__),
    ">=": _comparison((0).__le__),
    "LIKE": _like,
    "GLOB": _glob,
    "AND": _and,
    "OR": _or,
}
_UNARY_OPS: Dict[str, Callable[[object], object]] = {"NOT": _not, "-": _negate}


def apply_binary(op: str, left: object, right: object) -> object:
    """``left op right`` on two computed values."""
    return _BINARY_OPS.get(op, functools.partial(_arith, op))(left, right)


def apply_unary(op: str, value: object) -> object:
    """``op value`` on a computed value (unary ``+`` is the identity)."""
    return _UNARY_OPS.get(op, _identity)(value)


def _identity(value: object) -> object:
    return value


_SCALAR_FUNCTIONS: Dict[str, Callable[..., object]] = {}


def scalar_function(name: str):
    def decorator(fn):
        _SCALAR_FUNCTIONS[name] = fn
        return fn

    return decorator


@scalar_function("length")
def _fn_length(value: object) -> object:
    return None if value is None else len(str(value))


@scalar_function("upper")
def _fn_upper(value: object) -> object:
    return None if value is None else str(value).upper()


@scalar_function("lower")
def _fn_lower(value: object) -> object:
    return None if value is None else str(value).lower()


@scalar_function("abs")
def _fn_abs(value: object) -> object:
    return None if value is None else abs(value)  # type: ignore[arg-type]


@scalar_function("coalesce")
def _fn_coalesce(*values: object) -> object:
    for value in values:
        if value is not None:
            return value
    return None


@scalar_function("ifnull")
def _fn_ifnull(value: object, fallback: object) -> object:
    return fallback if value is None else value


@scalar_function("nullif")
def _fn_nullif(a: object, b: object) -> object:
    return None if a == b else a


@scalar_function("substr")
def _fn_substr(value: object, start: object, length: object = None) -> object:
    if value is None or start is None:
        return None
    text = str(value)
    index = int(start) - 1 if int(start) > 0 else len(text) + int(start)
    if length is None:
        return text[index:]
    return text[index : index + int(length)]


@scalar_function("replace")
def _fn_replace(value: object, old: object, new: object) -> object:
    if value is None or old is None or new is None:
        return None
    return str(value).replace(str(old), str(new))


@scalar_function("typeof")
def _fn_typeof(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, bytes):
        return "blob"
    return "text"


@scalar_function("instr")
def _fn_instr(haystack: object, needle: object) -> object:
    if haystack is None or needle is None:
        return None
    return str(haystack).find(str(needle)) + 1


def is_aggregate_call(expr: ast.Expr) -> bool:
    """True if ``expr`` is an aggregate function call (SQLite rule: min/max
    with a single argument are aggregates; with more they are scalar)."""
    if not isinstance(expr, ast.FunctionCall):
        return False
    if expr.name in ("min", "max"):
        return expr.star or len(expr.args) <= 1
    return expr.name in AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expr) -> bool:
    """Recursively detect aggregate calls (not descending into subqueries)."""
    if is_aggregate_call(expr):
        return True
    if isinstance(expr, ast.Unary):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ast.IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Between):
        return any(contains_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, ast.InList):
        return contains_aggregate(expr.operand) or any(contains_aggregate(e) for e in expr.items)
    if isinstance(expr, ast.FunctionCall):
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.CaseExpr):
        parts: List[ast.Expr] = [w for pair in expr.whens for w in pair]
        if expr.operand is not None:
            parts.append(expr.operand)
        if expr.otherwise is not None:
            parts.append(expr.otherwise)
        return any(contains_aggregate(p) for p in parts)
    return False


# ---------------------------------------------------------------------------
# Compilation: each expression node becomes one closure, built on first use
# and kept on the node, so a cached statement is compiled once per process.
# A closure takes the per-execution Evaluator and a scope; it holds nothing
# of any database, so one tree serves every Database that runs its text.
# ---------------------------------------------------------------------------

Compiled = Callable[["Evaluator", Scope], object]


def compiled(expr: ast.Expr) -> Compiled:
    """The closure that evaluates ``expr``, compiled on first use."""
    try:
        return expr._compiled  # type: ignore[attr-defined]
    except AttributeError:
        compiler = _COMPILERS.get(type(expr), _compile_unknown)
        function = expr._compiled = compiler(expr)  # type: ignore[attr-defined]
        return function


def _raising(error: SqlError) -> Compiled:
    """A closure that raises ``error`` when evaluated (not when compiled)."""

    def fail(ev: "Evaluator", scope: Scope) -> object:
        raise error

    return fail


def _compile_unknown(expr: ast.Expr) -> Compiled:
    return _raising(SqlError(f"cannot evaluate expression node {type(expr).__name__}"))


def _compile_star(expr: ast.Star) -> Compiled:
    return _raising(SqlError("* is only valid in a select list"))


def _compile_literal(expr: ast.Literal) -> Compiled:
    value = expr.value
    return lambda ev, scope: value


def _compile_param(expr: ast.Param) -> Compiled:
    index = expr.index

    def param(ev: "Evaluator", scope: Scope) -> object:
        try:
            return ev.params[index]
        except IndexError:
            raise SqlError(
                f"statement needs at least {index + 1} parameters, got {len(ev.params)}"
            )

    return param


def _compile_column(expr: ast.Column) -> Compiled:
    name = expr.qualified.lower()
    return lambda ev, scope: scope.lookup(name)


def _compile_unary(expr: ast.Unary) -> Compiled:
    operand = compiled(expr.operand)
    apply = _UNARY_OPS.get(expr.op)
    if apply is None:  # unary +
        return operand
    return lambda ev, scope: apply(operand(ev, scope))


def _compile_binary(expr: ast.Binary) -> Compiled:
    left, right = compiled(expr.left), compiled(expr.right)
    if expr.op == "AND":

        def conjunction(ev: "Evaluator", scope: Scope) -> object:
            left_truth = _to_bool(left(ev, scope))
            if left_truth is False:
                return 0
            right_truth = _to_bool(right(ev, scope))
            if right_truth is False:
                return 0
            return None if left_truth is None or right_truth is None else 1

        return conjunction
    if expr.op == "OR":

        def disjunction(ev: "Evaluator", scope: Scope) -> object:
            left_truth = _to_bool(left(ev, scope))
            if left_truth is True:
                return 1
            right_truth = _to_bool(right(ev, scope))
            if right_truth is True:
                return 1
            return None if left_truth is None or right_truth is None else 0

        return disjunction
    apply = _BINARY_OPS.get(expr.op, functools.partial(_arith, expr.op))
    return lambda ev, scope: apply(left(ev, scope), right(ev, scope))


def _compile_is_null(expr: ast.IsNull) -> Compiled:
    operand, negated = compiled(expr.operand), expr.negated
    return lambda ev, scope: 1 if (operand(ev, scope) is None) != negated else 0


def _compile_between(expr: ast.Between) -> Compiled:
    operand, low, high = compiled(expr.operand), compiled(expr.low), compiled(expr.high)
    at_least, at_most, negated = _BINARY_OPS[">="], _BINARY_OPS["<="], expr.negated

    def between(ev: "Evaluator", scope: Scope) -> object:
        value = operand(ev, scope)
        above = at_least(value, low(ev, scope))
        below = at_most(value, high(ev, scope))
        if above is None or below is None:
            return None
        return 1 if bool(above and below) != negated else 0

    return between


def _compile_in_list(expr: ast.InList) -> Compiled:
    operand, negated = compiled(expr.operand), expr.negated
    items = [compiled(item) for item in expr.items]

    def in_list(ev: "Evaluator", scope: Scope) -> object:
        value = operand(ev, scope)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(ev, scope)
            if candidate is None:
                saw_null = True
            elif sql_compare(value, candidate) == 0:
                return 0 if negated else 1
        if saw_null:
            return None
        return 1 if negated else 0

    return in_list


def _compile_in_select(expr: ast.InSelect) -> Compiled:
    operand, select, negated = compiled(expr.operand), expr.select, expr.negated

    def in_select(ev: "Evaluator", scope: Scope) -> object:
        value = operand(ev, scope)
        if value is None:
            return None
        membership, rows = ev._membership(select, scope)
        if membership is not None:
            found = value in membership
        else:
            found = any(row and sql_compare(value, row[0]) == 0 for row in rows)
        return 1 if found != negated else 0

    return in_select


def _compile_exists(expr: ast.ExistsSelect) -> Compiled:
    select, negated = expr.select, expr.negated
    return lambda ev, scope: 1 if bool(ev._run_subquery(select, scope)) != negated else 0


def _compile_scalar_select(expr: ast.ScalarSelect) -> Compiled:
    select = expr.select

    def scalar(ev: "Evaluator", scope: Scope) -> object:
        rows = ev._run_subquery(select, scope)
        return rows[0][0] if rows else None

    return scalar


def pick_extreme(name: str, values: List[object]) -> object:
    """Scalar (and aggregate) ``min``/``max`` of non-NULL values."""
    chosen = values[0]
    for value in values[1:]:
        order = sql_compare(value, chosen)
        if (name == "min" and order < 0) or (name == "max" and order > 0):
            chosen = value
    return chosen


def _compile_function(expr: ast.FunctionCall) -> Compiled:
    name = expr.name
    if is_aggregate_call(expr):
        return _raising(
            SqlError(f"aggregate function {name}() used outside of an aggregate query")
        )
    args = [compiled(arg) for arg in expr.args]
    function = _SCALAR_FUNCTIONS.get(name)
    if function is not None:
        return lambda ev, scope: function(*[arg(ev, scope) for arg in args])
    if name not in ("min", "max"):
        return _raising(SqlNameError(f"no such function: {name}"))

    def extreme(ev: "Evaluator", scope: Scope) -> object:
        values = [arg(ev, scope) for arg in args]
        return None if any(v is None for v in values) else pick_extreme(name, values)

    return extreme


def _compile_case(expr: ast.CaseExpr) -> Compiled:
    whens = [(compiled(condition), compiled(result)) for condition, result in expr.whens]
    otherwise = compiled(expr.otherwise) if expr.otherwise is not None else None
    subject = compiled(expr.operand) if expr.operand is not None else None

    def case(ev: "Evaluator", scope: Scope) -> object:
        if subject is not None:
            value = subject(ev, scope)
            for condition, result in whens:
                candidate = condition(ev, scope)
                if candidate is not None and sql_compare(value, candidate) == 0:
                    return result(ev, scope)
        else:
            for condition, result in whens:
                if _to_bool(condition(ev, scope)):
                    return result(ev, scope)
        return otherwise(ev, scope) if otherwise is not None else None

    return case


_COMPILERS: Dict[type, Callable[..., Compiled]] = {
    ast.Literal: _compile_literal,
    ast.Param: _compile_param,
    ast.Column: _compile_column,
    ast.Star: _compile_star,
    ast.Unary: _compile_unary,
    ast.Binary: _compile_binary,
    ast.IsNull: _compile_is_null,
    ast.Between: _compile_between,
    ast.InList: _compile_in_list,
    ast.InSelect: _compile_in_select,
    ast.ExistsSelect: _compile_exists,
    ast.ScalarSelect: _compile_scalar_select,
    ast.FunctionCall: _compile_function,
    ast.CaseExpr: _compile_case,
}


class Evaluator:
    """Evaluates expressions against a scope.

    ``subquery_runner`` is provided by the engine: it executes a
    :class:`~repro.minisql.ast_nodes.Select` with the current scope as the
    outer scope and returns the result rows (list of tuples).
    """

    def __init__(
        self,
        params: Sequence[object],
        subquery_runner: Optional[Callable[[ast.Select, Scope], List[tuple]]] = None,
    ) -> None:
        self.params = params
        self.subquery_runner = subquery_runner
        # Results of uncorrelated subqueries, valid for this statement
        # execution (SQLite likewise evaluates them once). Keyed by the AST
        # node identity.
        self._subquery_cache: Dict[int, List[tuple]] = {}
        # id(subquery) -> frozenset of its first-column values, the
        # IN-subquery hash-probe fast path.
        self._membership_sets: Dict[int, frozenset] = {}

    def _run_subquery(self, select: ast.Select, scope: Scope) -> List[tuple]:
        if self.subquery_runner is None:
            raise SqlError("subqueries are not available in this context")
        key = id(select)
        if key in self._subquery_cache:
            return self._subquery_cache[key]
        tracker = _TouchDict()
        tracking_scope = Scope(tracker, scope)
        rows = self.subquery_runner(select, tracking_scope)
        if not tracker.touched:
            self._subquery_cache[key] = rows
        return rows

    def _membership(
        self, select: ast.Select, scope: Scope
    ) -> Tuple[Optional[frozenset], List[tuple]]:
        """A hash set answering ``IN (select)`` for the whole statement, or
        ``(None, rows)`` when the subquery's rows must be scanned.

        Only a cached (uncorrelated) result gets a set: its row
        list is stable for the whole statement. Ints and text hash
        compatibly with SQL equality; unhashable values fall back to the
        scan.
        """
        membership = self._membership_sets.get(id(select))
        if membership is not None:
            return membership, []
        rows = self._run_subquery(select, scope)
        if self._subquery_cache.get(id(select)) is not rows:
            return None, rows
        try:
            membership = frozenset(row[0] for row in rows if row)
        except TypeError:
            return None, rows
        self._membership_sets[id(select)] = membership
        return membership, rows

    def evaluate(self, expr: ast.Expr, scope: Scope) -> object:
        return compiled(expr)(self, scope)

    def truth(self, expr: Optional[ast.Expr], scope: Scope) -> bool:
        """Evaluate a WHERE/HAVING/ON condition; unknown counts as false."""
        if expr is None:
            return True
        return _to_bool(compiled(expr)(self, scope)) is True
