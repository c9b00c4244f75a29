"""Differential property test: WHERE predicates against stdlib sqlite3.

Hypothesis builds predicates over nullable INT columns from AND/OR/NOT,
IS [NOT] NULL, the six comparisons, [NOT] BETWEEN, [NOT] IN lists with
NULL items, and ``+``/``-``/``*`` arithmetic.  The engine and SQLite
must select the same multiset of rows for every predicate.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.engine import Database

COLUMNS = ("k", "x", "y", "z")

small = st.integers(min_value=-4, max_value=4)
cells = st.one_of(st.none(), small)
tables = st.lists(st.tuples(cells, cells, cells), max_size=12)


def _literal(value):
    return "NULL" if value is None else f"({value})"


operands = st.recursive(
    st.one_of(st.sampled_from(COLUMNS), cells.map(_literal)),
    lambda inner: st.tuples(inner, st.sampled_from("+-*"), inner).map(
        lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"),
    max_leaves=4)


def _comparison(parts):
    left, op, right = parts
    return f"{left} {op} {right}"


def _between(parts):
    operand, low, high, negated = parts
    keyword = "NOT BETWEEN" if negated else "BETWEEN"
    return f"{operand} {keyword} {low} AND {high}"


def _in_list(parts):
    operand, items, negated = parts
    keyword = "NOT IN" if negated else "IN"
    return f"{operand} {keyword} ({', '.join(items)})"


atoms = st.one_of(
    st.tuples(operands, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
              operands).map(_comparison),
    st.tuples(operands, st.booleans()).map(
        lambda parts: f"{parts[0]} IS {'NOT ' if parts[1] else ''}NULL"),
    st.tuples(operands, operands, operands, st.booleans()).map(_between),
    st.tuples(operands, st.lists(operands, min_size=1, max_size=4),
              st.booleans()).map(_in_list),
)

predicates = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"),
        inner.map(lambda predicate: f"NOT ({predicate})")),
    max_leaves=6)


def _selected(execute, predicate):
    return sorted(execute(f"SELECT k, x, y, z FROM t WHERE {predicate}"),
                  key=repr)


@given(rows=tables, predicate=predicates)
@settings(max_examples=300, deadline=None)
def test_where_selects_the_same_rows_as_sqlite(rows, predicate):
    keyed = [(k, *row) for k, row in enumerate(rows)]
    engine = Database("differential")
    engine.execute("CREATE TABLE t (k INT PRIMARY KEY, x INT, y INT, z INT)")
    lite = sqlite3.connect(":memory:")
    try:
        lite.execute("CREATE TABLE t (k INT PRIMARY KEY, x INT, y INT, z INT)")
        for row in keyed:
            engine.execute("INSERT INTO t VALUES (?, ?, ?, ?)", list(row))
            lite.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        expected = _selected(lambda sql: lite.execute(sql).fetchall(),
                             predicate)
    finally:
        lite.close()
    assert _selected(lambda sql: engine.execute(sql).rows,
                     predicate) == expected, predicate
