"""Expression evaluation with SQL three-valued logic.

``NULL`` is represented by Python ``None``. Boolean results use ``1``/``0``
like SQLite, with ``None`` propagating as *unknown*; WHERE clauses treat
unknown as false.

A :class:`Scope` maps column names (both unqualified and
``table.column``-qualified, lowercased) to values. Scopes chain to an outer
scope so correlated subqueries resolve the enclosing row's columns.
"""

from __future__ import annotations

import fnmatch
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SqlError, SqlNameError
from repro.minisql import ast_nodes as ast

AGGREGATE_NAMES = {"count", "sum", "avg", "total", "min", "max", "group_concat"}


class Scope:
    """Column bindings for one row, chained to an optional outer scope."""

    __slots__ = ("bindings", "outer")

    def __init__(self, bindings: Dict[str, object], outer: Optional["Scope"] = None) -> None:
        self.bindings = bindings
        self.outer = outer

    def lookup(self, name: str) -> object:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.outer
        raise SqlNameError(f"no such column: {name}")

    def has(self, name: str) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return True
            scope = scope.outer
        return False


EMPTY_SCOPE = Scope({})


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


def _compare_op(op: str, left: object, right: object) -> Optional[int]:
    if left is None or right is None:
        return None
    order = sql_compare(left, right)
    result = {
        "=": order == 0,
        "<>": order != 0,
        "<": order < 0,
        "<=": order <= 0,
        ">": order > 0,
        ">=": order >= 0,
    }[op]
    return 1 if result else 0


def _like(text: object, pattern: object) -> Optional[int]:
    if text is None or pattern is None:
        return None
    regex = re.escape(str(pattern)).replace("%", ".*").replace("_", ".")
    return 1 if re.fullmatch(regex, str(text), re.IGNORECASE | re.DOTALL) else 0


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


class Evaluator:
    """Evaluates expressions against a scope.

    ``subquery_runner`` is provided by the engine: it executes a
    :class:`~repro.minisql.ast_nodes.Select` with the current scope as the
    outer scope and returns the result rows (list of tuples).
    ``index_keys`` is too: it returns the primary-key index of a table when
    a subquery is a bare ``SELECT pk FROM table``, else None.
    """

    def __init__(
        self,
        params: Sequence[object],
        subquery_runner: Optional[Callable[[ast.Select, Scope], List[tuple]]] = None,
        index_keys: Optional[Callable[[ast.Select], Optional[Iterable[object]]]] = None,
    ) -> None:
        self.params = params
        self.subquery_runner = subquery_runner
        self.index_keys = index_keys
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

        A bare ``SELECT pk FROM table`` is answered from the table's index
        keys, snapshotted once per statement, without scanning the table.
        Otherwise only a cached (uncorrelated) result gets a set: its row
        list is stable for the whole statement. Ints and text hash
        compatibly with SQL equality; unhashable values fall back to the
        scan.
        """
        membership = self._membership_sets.get(id(select))
        if membership is not None:
            return membership, []
        keys = self.index_keys(select) if self.index_keys is not None else None
        if keys is not None:
            membership = frozenset(keys)
            self._membership_sets[id(select)] = membership
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
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Param):
            try:
                return self.params[expr.index]
            except IndexError:
                raise SqlError(
                    f"statement needs at least {expr.index + 1} parameters, "
                    f"got {len(self.params)}"
                )
        if isinstance(expr, ast.Column):
            name = expr.qualified.lower()
            return scope.lookup(name)
        if isinstance(expr, ast.Unary):
            value = self.evaluate(expr.operand, scope)
            if expr.op == "NOT":
                truth = _to_bool(value)
                if truth is None:
                    return None
                return 0 if truth else 1
            if value is None:
                return None
            if expr.op == "-":
                return -value  # type: ignore[operator]
            return value
        if isinstance(expr, ast.Binary):
            return self._binary(expr, scope)
        if isinstance(expr, ast.IsNull):
            value = self.evaluate(expr.operand, scope)
            result = value is None
            if expr.negated:
                result = not result
            return 1 if result else 0
        if isinstance(expr, ast.Between):
            value = self.evaluate(expr.operand, scope)
            low = self.evaluate(expr.low, scope)
            high = self.evaluate(expr.high, scope)
            in_range = _compare_op(">=", value, low)
            upper = _compare_op("<=", value, high)
            if in_range is None or upper is None:
                return None
            result = bool(in_range and upper)
            if expr.negated:
                result = not result
            return 1 if result else 0
        if isinstance(expr, ast.InList):
            value = self.evaluate(expr.operand, scope)
            if value is None:
                return None
            found = False
            saw_null = False
            for item in expr.items:
                candidate = self.evaluate(item, scope)
                if candidate is None:
                    saw_null = True
                elif sql_compare(value, candidate) == 0:
                    found = True
                    break
            if not found and saw_null:
                return None
            result = not found if expr.negated else found
            return 1 if result else 0
        if isinstance(expr, ast.InSelect):
            value = self.evaluate(expr.operand, scope)
            if value is None:
                return None
            membership, rows = self._membership(expr.select, scope)
            if membership is not None:
                found = value in membership
            else:
                found = any(row and sql_compare(value, row[0]) == 0 for row in rows)
            result = not found if expr.negated else found
            return 1 if result else 0
        if isinstance(expr, ast.ExistsSelect):
            rows = self._run_subquery(expr.select, scope)
            result = bool(rows)
            if expr.negated:
                result = not result
            return 1 if result else 0
        if isinstance(expr, ast.ScalarSelect):
            rows = self._run_subquery(expr.select, scope)
            if not rows:
                return None
            return rows[0][0]
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr, scope)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, scope)
        if isinstance(expr, ast.Star):
            raise SqlError("* is only valid in a select list")
        raise SqlError(f"cannot evaluate expression node {type(expr).__name__}")

    def _binary(self, expr: ast.Binary, scope: Scope) -> object:
        op = expr.op
        if op == "AND":
            left = _to_bool(self.evaluate(expr.left, scope))
            if left is False:
                return 0
            right = _to_bool(self.evaluate(expr.right, scope))
            if right is False:
                return 0
            if left is None or right is None:
                return None
            return 1
        if op == "OR":
            left = _to_bool(self.evaluate(expr.left, scope))
            if left is True:
                return 1
            right = _to_bool(self.evaluate(expr.right, scope))
            if right is True:
                return 1
            if left is None or right is None:
                return None
            return 0
        left_value = self.evaluate(expr.left, scope)
        right_value = self.evaluate(expr.right, scope)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare_op(op, left_value, right_value)
        if op == "LIKE":
            return _like(left_value, right_value)
        if op == "GLOB":
            return _glob(left_value, right_value)
        return _arith(op, left_value, right_value)

    def _function(self, expr: ast.FunctionCall, scope: Scope) -> object:
        if is_aggregate_call(expr):
            raise SqlError(
                f"aggregate function {expr.name}() used outside of an aggregate query"
            )
        fn = _SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            if expr.name in ("min", "max"):
                values = [self.evaluate(a, scope) for a in expr.args]
                if any(v is None for v in values):
                    return None
                chosen = values[0]
                for value in values[1:]:
                    order = sql_compare(value, chosen)
                    if (expr.name == "min" and order < 0) or (expr.name == "max" and order > 0):
                        chosen = value
                return chosen
            raise SqlNameError(f"no such function: {expr.name}")
        args = [self.evaluate(a, scope) for a in expr.args]
        return fn(*args)

    def _case(self, expr: ast.CaseExpr, scope: Scope) -> object:
        if expr.operand is not None:
            subject = self.evaluate(expr.operand, scope)
            for condition, result in expr.whens:
                candidate = self.evaluate(condition, scope)
                if candidate is not None and sql_compare(subject, candidate) == 0:
                    return self.evaluate(result, scope)
        else:
            for condition, result in expr.whens:
                if _to_bool(self.evaluate(condition, scope)):
                    return self.evaluate(result, scope)
        if expr.otherwise is not None:
            return self.evaluate(expr.otherwise, scope)
        return None

    def truth(self, expr: Optional[ast.Expr], scope: Scope) -> bool:
        """Evaluate a WHERE/HAVING/ON condition; unknown counts as false."""
        if expr is None:
            return True
        return _to_bool(self.evaluate(expr, scope)) is True
