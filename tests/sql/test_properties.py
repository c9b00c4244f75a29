"""Property-based tests for the relational engine (hypothesis)."""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.engine import Database
from repro.sql.expressions import like_match

names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"),
                           max_codepoint=0x7F),
    min_size=1, max_size=12)
ints = st.integers(min_value=-10**6, max_value=10**6)
maybe_ints = st.one_of(st.none(), ints)


def fresh_db():
    db = Database("prop")
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, s VARCHAR(20))")
    return db


@given(rows=st.lists(st.tuples(ints, maybe_ints, names), max_size=30,
                     unique_by=lambda r: r[0]))
@settings(max_examples=40, deadline=None)
def test_insert_select_roundtrip(rows):
    """Everything inserted comes back unchanged via SELECT *."""
    db = fresh_db()
    for k, v, s in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?)", [k, v, s])
    result = db.execute("SELECT * FROM t")
    assert sorted(result.rows) == sorted(rows)


@given(rows=st.lists(st.tuples(ints, ints), max_size=30,
                     unique_by=lambda r: r[0]))
@settings(max_examples=40, deadline=None)
def test_order_by_is_sorted(rows):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v])
    result = db.execute("SELECT v FROM t ORDER BY v")
    values = [r[0] for r in result.rows]
    assert values == sorted(values)


@given(rows=st.lists(st.tuples(ints, maybe_ints), max_size=30,
                     unique_by=lambda r: r[0]))
@settings(max_examples=40, deadline=None)
def test_aggregates_match_python(rows):
    """COUNT/SUM/MIN/MAX agree with Python over non-NULL values."""
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v])
    non_null = [v for __, v in rows if v is not None]
    row = db.execute("SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM t").first()
    assert row[0] == len(non_null)
    assert row[1] == (sum(non_null) if non_null else None)
    assert row[2] == (min(non_null) if non_null else None)
    assert row[3] == (max(non_null) if non_null else None)


@given(rows=st.lists(st.tuples(ints, ints), max_size=25,
                     unique_by=lambda r: r[0]),
       threshold=ints)
@settings(max_examples=40, deadline=None)
def test_where_partition(rows, threshold):
    """WHERE v < t and WHERE v >= t partition the non-NULL rows."""
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v])
    below = db.execute("SELECT COUNT(*) FROM t WHERE v < ?",
                       [threshold]).scalar()
    at_or_above = db.execute("SELECT COUNT(*) FROM t WHERE v >= ?",
                             [threshold]).scalar()
    assert below + at_or_above == len(rows)


@given(rows=st.lists(st.tuples(ints, ints), max_size=20,
                     unique_by=lambda r: r[0]))
@settings(max_examples=30, deadline=None)
def test_distinct_matches_set(rows):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v % 5])
    result = db.execute("SELECT DISTINCT v FROM t")
    assert len(result.rows) == len({v % 5 for __, v in rows})


@given(rows=st.lists(st.tuples(ints, ints), min_size=1, max_size=20,
                     unique_by=lambda r: r[0]))
@settings(max_examples=30, deadline=None)
def test_delete_then_count_zero(rows):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v])
    deleted = db.execute("DELETE FROM t").rowcount
    assert deleted == len(rows)
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0


@given(rows=st.lists(st.tuples(ints, ints), max_size=20,
                     unique_by=lambda r: r[0]))
@settings(max_examples=30, deadline=None)
def test_transaction_rollback_identity(rows):
    """Arbitrary mutations inside BEGIN..ROLLBACK leave no trace."""
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", [k, v])
    before = sorted(db.execute("SELECT * FROM t").rows)
    db.execute("BEGIN")
    db.execute("DELETE FROM t WHERE v > 0")
    db.execute("UPDATE t SET v = v - 1")
    db.execute("ROLLBACK")
    assert sorted(db.execute("SELECT * FROM t").rows) == before


@given(value=names, pattern=names)
@settings(max_examples=60, deadline=None)
def test_like_without_wildcards_is_case_insensitive_equality(value, pattern):
    assert like_match(value, pattern) == (value.lower() == pattern.lower())


@given(value=names)
@settings(max_examples=40, deadline=None)
def test_like_percent_matches_everything(value):
    assert like_match(value, "%") is True


@given(prefix=names, rest=names)
@settings(max_examples=40, deadline=None)
def test_like_prefix(prefix, rest):
    assert like_match(prefix + rest, prefix + "%") is True


def test_like_cache_stays_bounded_under_distinct_patterns():
    """Every distinct pattern, bound parameters included, lands in the
    LIKE cache; the cache empties itself instead of growing forever."""
    from repro.sql import expressions

    for number in range(10_000):
        assert like_match(f"p{number}x", f"p{number}%") is True
    assert len(expressions._LIKE_CACHE) <= 513
    assert like_match("abc", "A_C") is True
