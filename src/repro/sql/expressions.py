"""Expression compilation with SQL semantics.

:class:`Compiler` turns an expression AST into a Python closure over one
input row (a tuple).  The executor compiles each expression once per
operator per statement execution and then calls the closure for every
row, so the per-row cost is the work SQL asks for and nothing else:

* column references resolve to slot positions at compile time;
* ``?`` parameters and literals are constants, and a constant operand of
  a comparison has its coercions done once (an ISO string compared with
  a date is parsed once, not once per row);
* the operator is chosen at compile time, not dispatched per row.

The closures implement three-valued logic (NULL-aware AND/OR/NOT),
NULL-propagating arithmetic and comparisons, LIKE pattern matching,
scalar function dispatch, CASE, CAST and subquery forms (scalar, IN,
EXISTS).

Errors stay lazy: an unknown or ambiguous column, a missing parameter or
an unknown function compiles to a closure that raises when it is called,
so a statement whose rows never reach the expression succeeds, exactly
as an evaluator that walks the tree per row would behave.

Correlated subqueries see enclosing rows through a :class:`Scope` chain.
A name that does not resolve in the local header is looked up in the
enclosing scopes at compile time; a subquery is compiled each time it
runs, so the enclosing row's value is a constant of that compilation.
"""

from __future__ import annotations

import datetime
import operator
import re
from typing import Any, Callable, Optional

from repro.errors import CatalogError, SqlError
from repro.sql import ast
from repro.sql.functions import SCALAR_FUNCTIONS, is_aggregate
from repro.sql.types import TYPE_SYNONYMS, coerce, comparable

#: A compiled expression: input row -> value.
RowFn = Callable[[tuple], Any]


class Header:
    """The column layout of an intermediate relation.

    Each slot is a ``(binding, column_name)`` pair; *binding* is the
    table alias (or None for computed columns).  Lookup resolves both
    qualified (``t.c``) and bare (``c``) references, raising on
    ambiguity as a real engine would.
    """

    def __init__(self, slots: list[tuple[Optional[str], str]]):
        self.slots = slots
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for position, (binding, column) in enumerate(slots):
            lowered = column.lower()
            self._by_name.setdefault(lowered, []).append(position)
            if binding is not None:
                self._by_qualified[(binding.lower(), lowered)] = position

    def resolve(self, name: str, table: Optional[str] = None) -> Optional[int]:
        """Slot position for a column reference, or None when unknown."""
        lowered = name.lower()
        if table is not None:
            return self._by_qualified.get((table.lower(), lowered))
        positions = self._by_name.get(lowered)
        if not positions:
            return None
        if len(positions) > 1:
            raise CatalogError(f"ambiguous column reference {name!r}")
        return positions[0]

    def positions_for_binding(self, binding: str) -> list[int]:
        """All slots belonging to one table binding (for ``t.*``)."""
        lowered = binding.lower()
        return [i for i, (b, _) in enumerate(self.slots)
                if b is not None and b.lower() == lowered]

    def __add__(self, other: "Header") -> "Header":
        return Header(self.slots + other.slots)

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def column_names(self) -> list[str]:
        return [column for _, column in self.slots]


class Scope:
    """An enclosing row visible to a correlated subquery, chained to the
    scopes around it."""

    __slots__ = ("header", "row", "outer")

    def __init__(self, header: Header, row: tuple,
                 outer: Optional["Scope"] = None):
        self.header = header
        self.row = row
        self.outer = outer


_LIKE_CACHE: dict[Any, re.Pattern] = {}
#: Patterns come from user input (bound parameters included), so the
#: cache is emptied once it holds this many, like the statement cache.
_LIKE_CACHE_LIMIT = 512


def _like_regex(pattern: Any) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex_parts = ["^"]
        for char in str(pattern):
            if char == "%":
                regex_parts.append(".*")
            elif char == "_":
                regex_parts.append(".")
            else:
                regex_parts.append(re.escape(char))
        regex_parts.append("$")
        compiled = re.compile("".join(regex_parts), re.IGNORECASE | re.DOTALL)
        if len(_LIKE_CACHE) > _LIKE_CACHE_LIMIT:
            _LIKE_CACHE.clear()
        _LIKE_CACHE[pattern] = compiled
    return compiled


def like_match(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_``; NULL operands yield NULL."""
    if value is None or pattern is None:
        return None
    return _like_regex(pattern).match(str(value)) is not None


_COMPARE_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: ``constant OP value`` rewritten as ``value SWAPPED[OP] constant``.
_SWAPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: Types whose values of the same type always compare with Python's own
#: operators exactly as :func:`_compare` would.
_PLAIN_TYPES = frozenset({int, float, str, bool, datetime.date})


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """NULL-propagating comparison."""
    if left is None or right is None:
        return None
    left, right = _coerce_date_pair(left, right)
    if not comparable(left, right):
        # Mixed types never compare equal but are not an error for =/<>,
        # mirroring permissive engines; ordering comparisons do raise.
        if op == "=":
            return False
        if op == "<>":
            return True
        raise SqlError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    return _COMPARE_OPS[op](left, right)


def _iso_date(text: str) -> Optional[datetime.date]:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        return None


def _coerce_date_pair(left: Any, right: Any) -> tuple[Any, Any]:
    """Promote an ISO string to a date when compared against a date
    column, the way SQL engines implicitly cast date literals."""
    if isinstance(left, datetime.date) and isinstance(right, str):
        parsed = _iso_date(right)
        return (left, right) if parsed is None else (left, parsed)
    if isinstance(right, datetime.date) and isinstance(left, str):
        parsed = _iso_date(left)
        return (left, right) if parsed is None else (parsed, right)
    return left, right


def _constant_test(op: str, constant: Any,
                   constant_first: bool = False) -> Callable[[Any], Optional[bool]]:
    """``_compare(op, value, constant)`` as a one-argument test, or
    ``_compare(op, constant, value)`` when *constant_first*, with the
    constant's type check and date parse done once."""
    if constant is None:
        return lambda value: None
    test = _COMPARE_OPS[_SWAPPED[op] if constant_first else op]
    fast_type = type(constant) if type(constant) in _PLAIN_TYPES else None
    as_date = _iso_date(constant) if type(constant) is str else None
    date_type = datetime.date if as_date is not None else None

    def check(value: Any) -> Optional[bool]:
        if type(value) is fast_type:
            return test(value, constant)
        if type(value) is date_type:
            return test(value, as_date)
        if value is None:
            return None
        other = constant
        if as_date is not None and isinstance(value, datetime.date):
            other = as_date
        if constant_first:
            return _compare(op, other, value)
        return _compare(op, value, other)
    return check


def _arith(op: str, left: Any, right: Any) -> Any:
    """NULL-propagating arithmetic and string concatenation."""
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if not isinstance(left, (int, float)) or isinstance(left, bool) or \
            not isinstance(right, (int, float)) or isinstance(right, bool):
        raise SqlError(f"operator {op!r} requires numeric operands, "
                       f"got {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise SqlError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and result.is_integer():
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise SqlError("modulo by zero")
        return left % right
    raise SqlError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


def failing(error: type[Exception], message: str) -> RowFn:
    """A compiled expression that fails only when a row reaches it."""
    def fail(row: tuple) -> Any:
        raise error(message)
    return fail


def _constant(value: Any) -> RowFn:
    return lambda row: value


_NOT_CONSTANT = object()


class Compiler:
    """Compiles expressions over rows laid out by *header*.

    *outer* is the chain of enclosing rows a correlated subquery sees;
    *params* carries positional ``?`` bindings; *run_subquery* is a
    callable ``(select, scope) -> list[tuple]`` supplied by the executor.
    *aggregates* maps ``id(FunctionCall)`` of each aggregate to the slot
    holding its per-group value, for expressions evaluated after GROUP BY
    over rows extended with those values.
    """

    def __init__(self, header: Header, outer: Optional[Scope],
                 params: list[Any],
                 run_subquery: Callable[[ast.Select, Scope], list[tuple]],
                 aggregates: Optional[dict[int, int]] = None):
        self.header = header
        self.outer = outer
        self.aggregates = aggregates or {}
        self._params = params
        self._run_subquery = run_subquery

    def compile(self, node: ast.Expression) -> RowFn:
        method = _COMPILERS.get(type(node))
        if method is None:
            return failing(SqlError, f"cannot evaluate {type(node).__name__}")
        return method(self, node)

    def constant_value(self, node: ast.Expression) -> Any:
        """The value of a literal or bound parameter, else _NOT_CONSTANT."""
        if type(node) is ast.Literal:
            return node.value
        if type(node) is ast.Param and node.index < len(self._params):
            return self._params[node.index]
        return _NOT_CONSTANT

    def slot(self, node: ast.Expression) -> Optional[int]:
        """The local slot a column reference reads, or None."""
        if type(node) is not ast.ColumnRef:
            return None
        try:
            return self.header.resolve(node.name, node.table)
        except CatalogError:
            return None

    # -- leaf nodes -----------------------------------------------------------

    def _literal(self, node: ast.Literal) -> RowFn:
        return _constant(node.value)

    def _column_ref(self, node: ast.ColumnRef) -> RowFn:
        scope_header, scope_row, outer = self.header, None, self.outer
        while True:
            try:
                position = scope_header.resolve(node.name, node.table)
            except CatalogError as exc:
                return failing(CatalogError, str(exc))
            if position is not None:
                if scope_row is None:
                    return operator.itemgetter(position)
                return _constant(scope_row[position])
            if outer is None:
                qualified = f"{node.table}.{node.name}" if node.table else node.name
                return failing(CatalogError, f"unknown column {qualified!r}")
            scope_header, scope_row, outer = outer.header, outer.row, outer.outer

    def _param(self, node: ast.Param) -> RowFn:
        if node.index >= len(self._params):
            return failing(SqlError, f"missing value for parameter {node.index + 1}")
        return _constant(self._params[node.index])

    def _star(self, node: ast.Star) -> RowFn:
        return failing(SqlError, "* is only valid in a select list or COUNT(*)")

    # -- operators ---------------------------------------------------------------

    def _unary(self, node: ast.Unary) -> RowFn:
        operand = self.compile(node.operand)
        op = node.op
        if op == "NOT":
            def negate(row: tuple) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                return value is not True
            return negate

        def sign(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlError(f"unary {op} requires a number, got {value!r}")
            return -value if op == "-" else value
        return sign

    def _binary(self, node: ast.Binary) -> RowFn:
        op = node.op
        if op in _COMPARE_OPS:
            return self._comparison(node)
        left = self.compile(node.left)
        right = self.compile(node.right)
        if op == "AND":
            def conjunction(row: tuple) -> Optional[bool]:
                left_value = left(row)
                if left_value is False:
                    return False
                right_value = right(row)
                if right_value is False:
                    return False
                if left_value is None or right_value is None:
                    return None
                return left_value is True and right_value is True
            return conjunction
        if op == "OR":
            def disjunction(row: tuple) -> Optional[bool]:
                left_value = left(row)
                if left_value is True:
                    return True
                right_value = right(row)
                if right_value is True:
                    return True
                if left_value is None or right_value is None:
                    return None
                return False
            return disjunction
        return lambda row: _arith(op, left(row), right(row))

    def _comparison(self, node: ast.Binary) -> RowFn:
        op = node.op
        right_constant = self.constant_value(node.right)
        if right_constant is not _NOT_CONSTANT:
            left = self.compile(node.left)
            check = _constant_test(op, right_constant)
            return lambda row: check(left(row))
        left_constant = self.constant_value(node.left)
        if left_constant is not _NOT_CONSTANT:
            right = self.compile(node.right)
            check = _constant_test(op, left_constant, constant_first=True)
            return lambda row: check(right(row))
        left = self.compile(node.left)
        right = self.compile(node.right)
        return lambda row: _compare(op, left(row), right(row))

    def _is_null(self, node: ast.IsNull) -> RowFn:
        operand = self.compile(node.operand)
        if node.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _between(self, node: ast.Between) -> RowFn:
        operand = self.compile(node.operand)
        low = self.compile(node.low)
        high = self.compile(node.high)
        negated = node.negated

        def between(row: tuple) -> Optional[bool]:
            value = operand(row)
            lower_ok = _compare(">=", value, low(row))
            upper_ok = _compare("<=", value, high(row))
            # x BETWEEN lo AND hi is x >= lo AND x <= hi, so one false
            # bound decides even when the other is NULL.
            if lower_ok is False or upper_ok is False:
                return negated
            if lower_ok is None or upper_ok is None:
                return None
            return not negated
        return between

    def _like(self, node: ast.Like) -> RowFn:
        operand = self.compile(node.operand)
        negated = node.negated
        pattern = self.constant_value(node.pattern)
        if pattern is None:
            def like_null(row: tuple) -> None:
                operand(row)
                return None
            return like_null
        if pattern is not _NOT_CONSTANT:
            match = _like_regex(pattern).match

            def like(row: tuple) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                return (match(str(value)) is not None) != negated
            return like
        compiled = self.compile(node.pattern)

        def like_dynamic(row: tuple) -> Optional[bool]:
            result = like_match(operand(row), compiled(row))
            if result is None:
                return None
            return (not result) if negated else result
        return like_dynamic

    def _in_list(self, node: ast.InList) -> RowFn:
        operand = self.compile(node.operand)
        found, missing = (not node.negated), node.negated
        items = [self.compile(item) for item in node.items]

        def in_list(row: tuple) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif _compare("=", value, candidate) is True:
                    return found
            return None if saw_null else missing
        return in_list

    # -- subqueries ---------------------------------------------------------------

    def _subquery(self, select: ast.Select) -> Callable[[tuple], list[tuple]]:
        """``row -> rows`` of *select* run with *row* as its enclosing scope."""
        run, header, outer = self._run_subquery, self.header, self.outer
        return lambda row: run(select, Scope(header, row, outer))

    def _in_subquery(self, node: ast.InSubquery) -> RowFn:
        operand = self.compile(node.operand)
        rows_for = self._subquery(node.subquery)
        found, missing = (not node.negated), node.negated

        def in_subquery(row: tuple) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for candidate_row in rows_for(row):
                candidate = candidate_row[0]
                if candidate is None:
                    saw_null = True
                elif _compare("=", value, candidate) is True:
                    return found
            return None if saw_null else missing
        return in_subquery

    def _exists(self, node: ast.Exists) -> RowFn:
        rows_for = self._subquery(node.subquery)
        negated = node.negated
        return lambda row: bool(rows_for(row)) != negated

    def _scalar_subquery(self, node: ast.ScalarSubquery) -> RowFn:
        rows_for = self._subquery(node.subquery)

        def scalar(row: tuple) -> Any:
            rows = rows_for(row)
            if not rows:
                return None
            if len(rows) > 1:
                raise SqlError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise SqlError("scalar subquery must return exactly one column")
            return rows[0][0]
        return scalar

    # -- CASE, CAST, functions --------------------------------------------------

    def _case(self, node: ast.Case) -> RowFn:
        arms = [(self.compile(when.condition), self.compile(when.result))
                for when in node.whens]
        default = (self.compile(node.default) if node.default is not None
                   else _constant(None))
        if node.operand is None:
            def searched(row: tuple) -> Any:
                for condition, result in arms:
                    if condition(row) is True:
                        return result(row)
                return default(row)
            return searched
        subject = self.compile(node.operand)

        def simple(row: tuple) -> Any:
            value = subject(row)
            for condition, result in arms:
                if _compare("=", value, condition(row)) is True:
                    return result(row)
            return default(row)
        return simple

    def _cast(self, node: ast.Cast) -> RowFn:
        operand = self.compile(node.operand)
        target = TYPE_SYNONYMS.get(node.type_name)
        if target is None:
            message = f"CAST to unknown type {node.type_name!r}"

            def unknown_type(row: tuple) -> Any:
                operand(row)
                raise SqlError(message)
            return unknown_type
        return lambda row: coerce(operand(row), target)

    def _function_call(self, node: ast.FunctionCall) -> RowFn:
        if is_aggregate(node.name):
            position = self.aggregates.get(id(node))
            if position is None:
                return failing(SqlError, f"aggregate {node.name} used "
                                         f"outside GROUP BY context")
            return operator.itemgetter(position)
        fn = SCALAR_FUNCTIONS.get(node.name)
        if fn is None:
            return failing(SqlError, f"unknown function {node.name}")
        args = [self.compile(arg) for arg in node.args]
        if len(args) == 1:
            only = args[0]
            return lambda row: fn(only(row))
        return lambda row: fn(*[arg(row) for arg in args])


_COMPILERS: dict[type, Callable[[Compiler, Any], RowFn]] = {
    ast.Literal: Compiler._literal,
    ast.ColumnRef: Compiler._column_ref,
    ast.Param: Compiler._param,
    ast.Star: Compiler._star,
    ast.Unary: Compiler._unary,
    ast.Binary: Compiler._binary,
    ast.IsNull: Compiler._is_null,
    ast.Between: Compiler._between,
    ast.Like: Compiler._like,
    ast.InList: Compiler._in_list,
    ast.InSubquery: Compiler._in_subquery,
    ast.Exists: Compiler._exists,
    ast.ScalarSubquery: Compiler._scalar_subquery,
    ast.Case: Compiler._case,
    ast.Cast: Compiler._cast,
    ast.FunctionCall: Compiler._function_call,
}


def collect_aggregates(expression: Optional[ast.Expression]) -> list[ast.FunctionCall]:
    """All aggregate FunctionCall nodes inside *expression* (not descending
    into subqueries, which are evaluated in their own scope)."""
    found: list[ast.FunctionCall] = []

    def walk(node: Any) -> None:
        if node is None:
            return
        if isinstance(node, ast.FunctionCall):
            if is_aggregate(node.name):
                found.append(node)
                return  # nested aggregates are invalid; don't descend
            for arg in node.args:
                walk(arg)
            return
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return
        if isinstance(node, ast.Unary):
            walk(node.operand)
        elif isinstance(node, ast.Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.Case):
            walk(node.operand)
            for when in node.whens:
                walk(when.condition)
                walk(when.result)
            walk(node.default)

    walk(expression)
    return found
