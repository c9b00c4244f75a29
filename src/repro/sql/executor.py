"""Statement execution for the relational engine.

The :class:`Executor` runs parsed statements against an engine's storage.
SELECT processing follows the textbook pipeline::

    row source (planner) -> WHERE -> GROUP BY/aggregate -> HAVING
        -> projection -> DISTINCT -> ORDER BY -> LIMIT/OFFSET

Every expression an operator evaluates per row is compiled once, when
the operator starts, into a closure over the row tuple
(:class:`~repro.sql.expressions.Compiler`).  Correlated subqueries run
with the enclosing row as their outer :class:`~repro.sql.expressions.Scope`.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional

from repro.errors import CatalogError, IntegrityError, SqlError
from repro.sql import ast
from repro.sql.expressions import (Compiler, Header, RowFn, Scope,
                                   collect_aggregates, failing)
from repro.sql.functions import AGGREGATE_FUNCTIONS, CountAggregate
from repro.sql.planner import (DerivedTable, HashJoin, IndexLookup,
                               NestedLoopJoin, Planner, RowSource, TableScan)
from repro.sql.result import ResultSet

Relation = tuple[Header, list[tuple]]
#: ``(input_row, output_row) -> sort key`` for one ORDER BY item.
KeyFn = Callable[[tuple, tuple], Any]

_EMPTY_HEADER = Header([])
_EMPTY_ENV_ROW: tuple = ()


class Executor:
    """Executes statements against an engine exposing ``table_for(name)``."""

    def __init__(self, engine, params: Optional[list[Any]] = None):
        self._engine = engine
        self._planner = Planner(engine)
        self._params = params or []
        #: Number of index lookups chosen by the planner during this
        #: statement — surfaced for tests and benchmarks.
        self.index_lookups = 0

    # ------------------------------------------------------------------ API --

    def execute(self, statement: ast.Statement) -> ResultSet:
        """Execute any supported statement, returning a :class:`ResultSet`."""
        if isinstance(statement, (ast.Select, ast.Union)):
            header, rows = self.execute_query(statement, outer=None)
            return ResultSet(columns=header.column_names, rows=rows)
        if isinstance(statement, ast.Insert):
            return ResultSet.empty(self._insert(statement))
        if isinstance(statement, ast.Update):
            return ResultSet.empty(self._update(statement))
        if isinstance(statement, ast.Delete):
            return ResultSet.empty(self._delete(statement))
        raise SqlError(f"executor cannot run {type(statement).__name__}")

    def execute_query(self, statement: ast.Statement,
                      outer: Optional[Scope]) -> Relation:
        """Execute a SELECT or UNION tree, returning header + rows."""
        if isinstance(statement, ast.Union):
            return self._execute_union(statement, outer)
        assert isinstance(statement, ast.Select)
        return self._execute_select(statement, outer)

    def _compiler(self, header: Header, outer: Optional[Scope],
                  aggregates: Optional[dict[int, int]] = None) -> Compiler:
        return Compiler(header, outer, self._params, self._run_subquery,
                        aggregates)

    # -------------------------------------------------------------- subquery --

    def _run_subquery(self, select: ast.Select, outer: Scope) -> list[tuple]:
        __, rows = self._execute_select(select, outer)
        return rows

    # ----------------------------------------------------------------- UNION --

    def _execute_union(self, union: ast.Union,
                       outer: Optional[Scope]) -> Relation:
        left_header, left_rows = self.execute_query(union.left, outer)
        right_header, right_rows = self.execute_query(union.right, outer)
        if len(left_header) != len(right_header):
            raise SqlError("UNION operands have different column counts")
        rows = list(left_rows) + list(right_rows)
        if not union.all:
            rows = _dedupe(rows)
        names = left_header.column_names
        header = Header([(None, name) for name in names])
        if union.order_by:
            # The output row is also the row ORDER BY expressions see.
            key_fns = self._order_key_fns(union.order_by,
                                          self._compiler(header, outer), names)
            rows = _sort_rows(rows, [[key(row, row) for key in key_fns]
                                     for row in rows], union.order_by)
        if union.limit is not None:
            limit = self._constant_int(union.limit, "LIMIT")
            rows = rows[:limit]
        return header, rows

    # ---------------------------------------------------------------- SELECT --

    def _execute_select(self, select: ast.Select,
                        outer: Optional[Scope]) -> Relation:
        plan = self._planner.plan(select)
        if plan.used_index:
            self.index_lookups += 1
        if plan.source is None:
            input_header = _EMPTY_HEADER
            input_rows: list[tuple] = [_EMPTY_ENV_ROW]
        else:
            input_header, input_rows = self._materialize(plan.source, outer)
        compiler = self._compiler(input_header, outer)
        if plan.residual_where is not None:
            predicate = compiler.compile(plan.residual_where)
            input_rows = [row for row in input_rows if predicate(row) is True]

        names = self._output_columns(select, input_header)
        aggregates = self._collect_select_aggregates(select)
        if select.group_by or aggregates:
            rows, keys = self._aggregate(select, compiler, input_rows,
                                         aggregates, names)
        else:
            rows, keys = self._project(select, compiler, input_rows, names)

        if select.distinct:
            rows, keys = _dedupe_keyed(rows, keys)
        if select.order_by:
            rows = _sort_rows(rows, keys, select.order_by)

        if select.offset is not None:
            rows = rows[self._constant_int(select.offset, "OFFSET"):]
        if select.limit is not None:
            rows = rows[:self._constant_int(select.limit, "LIMIT")]
        return Header([(None, name) for name in names]), rows

    # -- projection ------------------------------------------------------------

    def _output_columns(self, select: ast.Select,
                        input_header: Header) -> list[str]:
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                if item.expression.table is None:
                    names.extend(input_header.column_names)
                else:
                    positions = input_header.positions_for_binding(
                        item.expression.table)
                    if not positions:
                        raise CatalogError(
                            f"unknown table {item.expression.table!r} in select list")
                    names.extend(input_header.slots[i][1] for i in positions)
            elif item.alias:
                names.append(item.alias)
            else:
                names.append(_derive_name(item.expression))
        return names

    def _projector(self, select: ast.Select,
                   compiler: Compiler) -> Callable[[tuple], tuple]:
        """``row -> output row`` for the select list."""
        header = compiler.header
        columns: list[RowFn] = []
        slots: list[Optional[int]] = []
        for item in select.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                positions = (range(len(header)) if expression.table is None
                             else header.positions_for_binding(expression.table))
                columns.extend(operator.itemgetter(i) for i in positions)
                slots.extend(positions)
            else:
                columns.append(compiler.compile(expression))
                slots.append(compiler.slot(expression))
        if len(slots) > 1 and None not in slots:
            return operator.itemgetter(*slots)
        if len(columns) == 1:
            only = columns[0]
            return lambda row: (only(row),)
        return lambda row: tuple([column(row) for column in columns])

    def _project(self, select: ast.Select, compiler: Compiler,
                 input_rows: list[tuple], names: list[str]
                 ) -> tuple[list[tuple], list[list[Any]]]:
        """Project rows; returns (output rows, their ORDER BY keys).

        A bare ``SELECT *`` passes the input rows through unchanged."""
        items = select.items
        if (len(items) == 1 and isinstance(items[0].expression, ast.Star)
                and items[0].expression.table is None):
            rows = input_rows
        else:
            project = self._projector(select, compiler)
            rows = [project(row) for row in input_rows]
        keys: list[list[Any]] = []
        if select.order_by:
            key_fns = self._order_key_fns(select.order_by, compiler, names)
            keys = [[key(row, output) for key in key_fns]
                    for row, output in zip(input_rows, rows)]
        return rows, keys

    # -- aggregation ------------------------------------------------------------

    def _collect_select_aggregates(self,
                                   select: ast.Select) -> list[ast.FunctionCall]:
        found: list[ast.FunctionCall] = []
        for item in select.items:
            if not isinstance(item.expression, ast.Star):
                found.extend(collect_aggregates(item.expression))
        found.extend(collect_aggregates(select.having))
        for order in select.order_by:
            found.extend(collect_aggregates(order.expression))
        return found

    def _aggregate(self, select: ast.Select, compiler: Compiler,
                   input_rows: list[tuple],
                   aggregate_nodes: list[ast.FunctionCall], names: list[str]
                   ) -> tuple[list[tuple], list[list[Any]]]:
        input_header = compiler.header
        group_key = self._key_fn(
            [self._resolve_group_alias(expr, select, input_header)
             for expr in select.group_by], compiler)
        feeds = [self._feed(node, compiler) for node in aggregate_nodes]

        # key -> (first input row, accumulators, [(feed, accumulator.add)])
        groups: dict[tuple, tuple[tuple, list, list]] = {}

        def new_group(row: tuple) -> tuple[tuple, list, list]:
            accumulators = [self._make_accumulator(node)
                            for node in aggregate_nodes]
            return row, accumulators, [
                (feed, accumulator.add)
                for feed, accumulator in zip(feeds, accumulators)]

        for row in input_rows:
            key = group_key(row)
            state = groups.get(key)
            if state is None:
                state = groups[key] = new_group(row)
            for feed, add in state[2]:
                add(feed(row))

        if not select.group_by and not groups:
            # Aggregates over an empty input still yield one row.
            groups[()] = new_group(tuple([None] * len(input_header)))

        # After grouping, each group is its first input row extended with
        # the group's aggregate values, which compiled aggregate
        # references read by slot.
        width = len(input_header)
        grouped = self._compiler(
            input_header, compiler.outer,
            {id(node): width + i for i, node in enumerate(aggregate_nodes)})
        having = (grouped.compile(select.having)
                  if select.having is not None else None)
        project = self._projector(select, grouped)
        key_fns = self._order_key_fns(select.order_by, grouped, names)
        rows: list[tuple] = []
        keys: list[list[Any]] = []
        for representative, accumulators, __ in groups.values():
            row = representative + tuple([accumulator.result()
                                          for accumulator in accumulators])
            if having is not None and having(row) is not True:
                continue
            output = project(row)
            rows.append(output)
            keys.append([key(row, output) for key in key_fns])
        return rows, keys

    def _resolve_group_alias(self, expression: ast.Expression,
                             select: ast.Select,
                             input_header: Header) -> ast.Expression:
        """Allow ``GROUP BY alias`` by substituting the aliased select
        expression when the name does not resolve against the input."""
        if not (isinstance(expression, ast.ColumnRef)
                and expression.table is None):
            return expression
        try:
            if input_header.resolve(expression.name) is not None:
                return expression
        except CatalogError:
            return expression  # ambiguous in input: keep SQL's normal error
        lowered = expression.name.lower()
        for item in select.items:
            if item.alias and item.alias.lower() == lowered:
                return item.expression
        return expression

    def _make_accumulator(self, node: ast.FunctionCall):
        cls = AGGREGATE_FUNCTIONS[node.name]
        if cls is CountAggregate:
            count_star = bool(node.args) and isinstance(node.args[0], ast.Star) \
                or not node.args
            return CountAggregate(distinct=node.distinct, count_star=count_star)
        return cls(distinct=node.distinct)

    def _feed(self, node: ast.FunctionCall, compiler: Compiler) -> RowFn:
        """``row -> value`` an aggregate's accumulator is fed per row."""
        if AGGREGATE_FUNCTIONS[node.name] is CountAggregate and (
                not node.args or isinstance(node.args[0], ast.Star)):
            return lambda row: 1
        if not node.args:
            return failing(SqlError,
                           f"aggregate {node.name} requires an argument")
        return compiler.compile(node.args[0])

    # -- ordering ----------------------------------------------------------------

    def _order_key_fns(self, order_by: list[ast.OrderItem],
                       compiler: Compiler, names: list[str]) -> list[KeyFn]:
        """One ``(input_row, output_row) -> key`` function per ORDER BY item.

        Resolution order per SQL custom: output ordinal (integer literal,
        not a boolean), then output alias, then any expression over the
        input row.
        """
        key_fns: list[KeyFn] = []
        for item in order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                position = expr.value - 1
                if 0 <= position < len(names):
                    key_fns.append(_output_key(position))
                else:
                    key_fns.append(_input_key(failing(
                        SqlError, f"ORDER BY position {expr.value} out of range")))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                lowered = expr.name.lower()
                matches = [i for i, name in enumerate(names)
                           if name.lower() == lowered]
                if len(matches) == 1:
                    key_fns.append(_output_key(matches[0]))
                    continue
            key_fns.append(_input_key(compiler.compile(expr)))
        return key_fns

    # ------------------------------------------------------------- row sources --

    def _materialize(self, source: RowSource,
                     outer: Optional[Scope]) -> Relation:
        if isinstance(source, TableScan):
            table = self._engine.table_for(source.table)
            header = Header([(source.binding, name)
                             for name in table.schema.column_names])
            return header, table.row_tuples()
        if isinstance(source, IndexLookup):
            return self._materialize_index_lookup(source, outer)
        if isinstance(source, DerivedTable):
            sub_header, sub_rows = self.execute_query(source.select, outer)
            header = Header([(source.binding, name)
                             for name in sub_header.column_names])
            return header, sub_rows
        if isinstance(source, HashJoin):
            return self._materialize_hash_join(source, outer)
        if isinstance(source, NestedLoopJoin):
            return self._materialize_nested_loop(source, outer)
        raise SqlError(f"cannot materialize {type(source).__name__}")

    def _materialize_index_lookup(self, source: IndexLookup,
                                  outer: Optional[Scope]) -> Relation:
        table = self._engine.table_for(source.table)
        header = Header([(source.binding, name)
                         for name in table.schema.column_names])
        key = self._key_fn(source.keys,
                           self._compiler(_EMPTY_HEADER, outer))(_EMPTY_ENV_ROW)
        index = table.index_on(source.columns)
        if index is None:  # index dropped between planning and execution
            return header, table.row_tuples()
        row_ids = sorted(index.lookup(key))
        return header, [tuple(table.row(row_id)) for row_id in row_ids]

    def _key_fn(self, expressions: list[ast.Expression],
                compiler: Compiler) -> Callable[[tuple], tuple]:
        """``row -> tuple`` of the compiled *expressions*."""
        parts = [compiler.compile(expr) for expr in expressions]
        if not parts:
            return lambda row: ()
        if len(parts) == 1:
            only = parts[0]
            return lambda row: (only(row),)
        return lambda row: tuple([part(row) for part in parts])

    def _materialize_hash_join(self, source: HashJoin,
                               outer: Optional[Scope]) -> Relation:
        left_header, left_rows = self._materialize(source.left, outer)
        right_header, right_rows = self._materialize(source.right, outer)
        header = left_header + right_header
        right_width = len(right_header)

        right_key = self._key_fn(source.right_keys,
                                 self._compiler(right_header, outer))
        buckets: dict[tuple, list[tuple]] = {}
        for row in right_rows:
            key = right_key(row)
            if None in key:
                continue
            buckets.setdefault(key, []).append(row)

        left_key = self._key_fn(source.left_keys,
                                self._compiler(left_header, outer))
        out: list[tuple] = []
        null_pad = tuple([None] * right_width)
        for row in left_rows:
            key = left_key(row)
            matches = buckets.get(key, []) if None not in key else []
            if matches:
                for right_row in matches:
                    out.append(row + right_row)
            elif source.kind == "LEFT":
                out.append(row + null_pad)
        return header, out

    def _materialize_nested_loop(self, source: NestedLoopJoin,
                                 outer: Optional[Scope]) -> Relation:
        left_header, left_rows = self._materialize(source.left, outer)
        right_header, right_rows = self._materialize(source.right, outer)

        condition = source.condition
        drop_right_positions: list[int] = []
        if source.using:
            condition, drop_right_positions = self._using_condition(
                source.using, left_header, right_header)

        header = left_header + right_header
        right_width = len(right_header)
        left_width = len(left_header)
        out: list[tuple] = []

        if condition is None:
            def matches(combined: tuple) -> bool:
                return True
        else:
            compiled = self._compiler(header, outer).compile(condition)

            def matches(combined: tuple) -> bool:
                return compiled(combined) is True

        if source.kind in ("INNER", "CROSS"):
            for left_row in left_rows:
                for right_row in right_rows:
                    combined = left_row + right_row
                    if matches(combined):
                        out.append(combined)
        elif source.kind == "LEFT":
            null_pad = tuple([None] * right_width)
            for left_row in left_rows:
                found = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if matches(combined):
                        out.append(combined)
                        found = True
                if not found:
                    out.append(left_row + null_pad)
        elif source.kind == "RIGHT":
            null_pad = tuple([None] * left_width)
            for right_row in right_rows:
                found = False
                for left_row in left_rows:
                    combined = left_row + right_row
                    if matches(combined):
                        out.append(combined)
                        found = True
                if not found:
                    out.append(null_pad + right_row)
        else:  # pragma: no cover - parser restricts kinds
            raise SqlError(f"unsupported join kind {source.kind!r}")

        if drop_right_positions:
            keep = [i for i in range(len(header))
                    if i not in drop_right_positions]
            header = Header([header.slots[i] for i in keep])
            out = [tuple(row[i] for i in keep) for row in out]
        return header, out

    def _using_condition(self, using: list[str], left_header: Header,
                         right_header: Header
                         ) -> tuple[Optional[ast.Expression], list[int]]:
        """Build the implicit equality condition for JOIN ... USING and the
        combined-header positions of the right-side duplicates to drop."""
        conjuncts: list[ast.Expression] = []
        drop: list[int] = []
        left_width = len(left_header)
        for column in using:
            left_position = left_header.resolve(column)
            right_position = right_header.resolve(column)
            if left_position is None or right_position is None:
                raise CatalogError(f"USING column {column!r} missing from a side")
            left_binding = left_header.slots[left_position][0]
            right_binding = right_header.slots[right_position][0]
            conjuncts.append(ast.Binary(
                "=",
                ast.ColumnRef(name=column, table=left_binding),
                ast.ColumnRef(name=column, table=right_binding)))
            drop.append(left_width + right_position)
        condition = conjuncts[0]
        for conjunct in conjuncts[1:]:
            condition = ast.Binary("AND", condition, conjunct)
        return condition, drop

    # --------------------------------------------------------------------- DML --

    def _insert(self, statement: ast.Insert) -> int:
        table = self._engine.table_for(statement.table)
        schema = table.schema
        if statement.columns is not None:
            positions = [schema.column_index(name) for name in statement.columns]
        else:
            positions = list(range(len(schema.columns)))

        def widen(values: list[Any]) -> list[Any]:
            if len(values) != len(positions):
                raise IntegrityError(
                    f"INSERT supplies {len(values)} values for "
                    f"{len(positions)} columns")
            row: list[Any] = [None] * len(schema.columns)
            for index, column in enumerate(schema.columns):
                if column.default is not None:
                    row[index] = column.default
            for position, value in zip(positions, values):
                row[position] = value
            return row

        count = 0
        if statement.rows is not None:
            compiler = self._compiler(_EMPTY_HEADER, None)
            for value_row in statement.rows:
                values = [compiler.compile(expr)(_EMPTY_ENV_ROW)
                          for expr in value_row]
                table.insert(widen(values))
                count += 1
        else:
            assert statement.select is not None
            __, rows = self.execute_query(statement.select, outer=None)
            for row in rows:
                table.insert(widen(list(row)))
                count += 1
        return count

    def _row_compiler(self, table_name: str) -> Compiler:
        """Compiler over the rows of one base table, for UPDATE/DELETE."""
        schema = self._engine.table_for(table_name).schema
        return self._compiler(Header([(table_name, name)
                                      for name in schema.column_names]), None)

    def _update(self, statement: ast.Update) -> int:
        table = self._engine.table_for(statement.table)
        schema = table.schema
        compiler = self._row_compiler(statement.table)
        where = (compiler.compile(statement.where)
                 if statement.where is not None else None)
        assignments = [(schema.column_index(a.column), compiler.compile(a.value))
                       for a in statement.assignments]
        touched: list[tuple[int, list[Any]]] = []
        for row_id, row in table.scan():
            current = tuple(row)
            if where is not None and where(current) is not True:
                continue
            new_row = list(row)
            for position, value in assignments:
                new_row[position] = value(current)
            touched.append((row_id, new_row))
        for row_id, new_row in touched:
            table.update(row_id, new_row)
        return len(touched)

    def _delete(self, statement: ast.Delete) -> int:
        table = self._engine.table_for(statement.table)
        where = (self._row_compiler(statement.table).compile(statement.where)
                 if statement.where is not None else None)
        doomed = [row_id for row_id, row in table.scan()
                  if where is None or where(tuple(row)) is True]
        for row_id in doomed:
            table.delete(row_id)
        return len(doomed)

    # ----------------------------------------------------------------- helpers --

    def _constant_int(self, expression: ast.Expression, label: str) -> int:
        value = self._compiler(_EMPTY_HEADER, None).compile(expression)(
            _EMPTY_ENV_ROW)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SqlError(f"{label} requires a non-negative integer")
        return value


def _derive_name(expression: ast.Expression) -> str:
    """Output column name for an unaliased select item."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        if not expression.args:
            return f"{expression.name}(*)"
        if len(expression.args) == 1 and isinstance(expression.args[0], ast.Star):
            return f"{expression.name}(*)"
        if len(expression.args) == 1 and isinstance(expression.args[0],
                                                    ast.ColumnRef):
            return f"{expression.name}({expression.args[0].name})"
        return f"{expression.name}(...)"
    if isinstance(expression, ast.Literal):
        return str(expression.value)
    return "expr"


def _null_aware_key(value: Any):
    """Sort key placing NULLs first and ordering mixed values stably."""
    return (value is not None, value)


def _output_key(position: int) -> KeyFn:
    return lambda row, output: output[position]


def _input_key(compiled: RowFn) -> KeyFn:
    return lambda row, output: compiled(row)


def _sort_rows(rows: list[tuple], keys: list[list[Any]],
               order_by: list[ast.OrderItem]) -> list[tuple]:
    """*rows* ordered by their parallel ORDER BY *keys*."""
    order = list(range(len(rows)))
    # Stable-sort from the least-significant key to the most.
    for position in range(len(order_by) - 1, -1, -1):
        order.sort(key=lambda i: _null_aware_key(keys[i][position]),
                   reverse=not order_by[position].ascending)
    return [rows[i] for i in order]


def _dedupe(rows: list[tuple]) -> list[tuple]:
    seen: set[tuple] = set()
    result: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result


def _dedupe_keyed(rows: list[tuple], keys: list[list[Any]]
                  ) -> tuple[list[tuple], list[list[Any]]]:
    """First occurrence of each row, with its keys when there are any."""
    if not keys:
        return _dedupe(rows), keys
    seen: set[tuple] = set()
    kept_rows: list[tuple] = []
    kept_keys: list[list[Any]] = []
    for row, key in zip(rows, keys):
        if row not in seen:
            seen.add(row)
            kept_rows.append(row)
            kept_keys.append(key)
    return kept_rows, kept_keys
