"""The executor's C-level kernels equal their per-row references.

Each kernel decides from its input alone — a page's value types, whether a
hash join's build keys are unique — whether it may run as one builtin
pipeline (``map``, ``compress``, ``dict(zip(…))``, ``itemgetter``) or must
take the per-row path.  Each property feeds pages that go both ways and
compares against a per-row reference at page sizes 1, 7 and 1 024: the
selection kernel, literal comparisons and LIKE (results and the exact
``TypeMismatchError`` text), the result tail (DISTINCT and ORDER BY) and the
hash join (INNER, LEFT and RIGHT, with and without a residual, NULL and
composite keys) against a nested loop.  An INNER join builds on whichever
input turns out smaller on each execution (ties: the right one); the
reference orders its output the same way, so a build side picked by the
wrong rule — or an outer join that flips at all — shows as a different
row order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine.batch import ColumnBatch, true_positions
from repro.engine.executor import SelectExecutor
from repro.engine.expressions import (
    _COMPARATORS,
    _RAW_COMPARE,
    Env,
    _comparison_const,
    _like_literal,
    _like_regex,
    _text,
)
from repro.engine.plan import HashJoin, Planner
from repro.engine.plan.nodes import walk
from repro.errors import TypeMismatchError
from repro.sql import parse_select

PAGE_SIZES = (1, 7, 1024)

mixed_values = st.lists(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.sampled_from((0.5, -1.0, 2.0)),
        st.text("ab.*", max_size=3),
    ),
    max_size=40,
)


def paged(kernel, values: list, size: int) -> list:
    """``kernel`` (a batch evaluator) over ``values`` cut into pages."""
    out: list = []
    for start in range(0, len(values), size):
        page = values[start : start + size]
        out.extend(kernel(ColumnBatch([page], len(page)), Env()))
    return out


def outcome(compute):
    """A computation's result, or its ``TypeMismatchError`` text."""
    try:
        return compute()
    except TypeMismatchError as exc:
        return ("raises", str(exc))


def column(batch, env):
    return batch.columns[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((True, False, None, 1, 0)), max_size=40))
def test_true_positions_is_v_is_true(values):
    assert true_positions(values) == [i for i, v in enumerate(values) if v is True]


@settings(max_examples=300, deadline=None)
@given(
    mixed_values,
    st.sampled_from(sorted(_COMPARATORS)),
    st.one_of(st.integers(-2, 2), st.sampled_from((0.5, "a", "b.", True))),
)
def test_literal_comparison_matches_the_per_row_path(values, op, const):
    # The per-row path: a value of the constant's class (any number, for a
    # number) takes the raw operator, any other the guarded comparator.
    raw, compare = _RAW_COMPARE[op], _COMPARATORS[op]
    fast = (int, float) if type(const) in (int, float) else (type(const),)
    expected = outcome(
        lambda: [
            None if v is None else raw(v, const) if type(v) in fast else compare(v, const)
            for v in values
        ]
    )
    kernel = _comparison_const(column, op, const)
    for size in PAGE_SIZES:
        assert outcome(lambda: paged(kernel, values, size)) == expected, size


like_patterns = st.one_of(
    st.text("ab.*%_", max_size=4),
    st.text("ab.*", max_size=3).map(lambda p: p + "%"),
    st.text("ab.*", max_size=3).map(lambda p: "%" + p),
    st.sampled_from(("", "%", "a_", "_%", "%%", "a.*", "*")),
)


@settings(max_examples=300, deadline=None)
@given(mixed_values, like_patterns, st.booleans())
def test_like_literal_matches_the_regex_loop(values, pattern, negated):
    def reference() -> list:
        out = []
        for v in values:
            if v is None:
                out.append(None)
                continue
            matched = _like_regex(_text(pattern)).match(_text(v)) is not None
            out.append(matched is not negated)
        return out

    expected = outcome(reference)
    kernel = _like_literal(column, pattern, negated)
    for size in PAGE_SIZES:
        assert outcome(lambda: paged(kernel, values, size)) == expected, size


@pytest.mark.parametrize("pattern", ["a.", "a*", ".%", "%", "ab%", "a"])
def test_like_fast_patterns_on_text_pages(pattern):
    values = ["a.", "a*", "ab", "abc", "", "a", "A.", "xa."]
    kernel = _like_literal(column, pattern, False)
    regex = _like_regex(pattern)
    assert paged(kernel, values, 7) == [regex.match(v) is not None for v in values]


# -- the result tail --------------------------------------------------------------

small_rows = st.lists(
    st.tuples(st.sampled_from((None, 0, 1, 2)), st.sampled_from((None, 0, 1, 2))),
    max_size=30,
)


def _rank(value):
    return (value is None, value)


@settings(max_examples=150, deadline=None)
@given(small_rows, st.booleans(), st.booleans())
def test_distinct_and_order_by_match_a_row_reference(rows, descending, distinct):
    database = Database()
    database.execute("create table t (a integer, b integer)")
    for row in rows:
        database.table("t").insert_row(row)
    direction = "desc" if descending else "asc"
    keyword = "distinct " if distinct else ""
    # The ORDER BY key is not in the select list: DISTINCT keeps each row's
    # first key.
    sql = f"select {keyword}a from t order by b {direction}"
    pairs = [((a,), b) for a, b in rows]
    if distinct:
        first: dict = {}
        for row, key in pairs:
            first.setdefault(row, key)
        pairs = list(first.items())
    pairs.sort(key=lambda pair: _rank(pair[1]), reverse=descending)
    expected = [row for row, _ in pairs]
    plain = f"select {keyword}a, b from t"
    expected_plain = list(dict.fromkeys(rows)) if distinct else rows
    for size in PAGE_SIZES:
        assert database.prepare(sql, batch_size=size).execute().rows == expected
        got = database.prepare(plain, batch_size=size).execute().rows
        assert got == expected_plain


# -- hash join ----------------------------------------------------------------------

keys = st.sampled_from((None, 0, 1, 2, 3))
join_rows = st.lists(
    st.tuples(keys, keys, st.one_of(st.none(), st.integers(0, 3))), max_size=25
)


def join_world(left: list, right: list) -> Database:
    database = Database()
    database.execute("create table l (k1 integer, k2 integer, v integer)")
    database.execute("create table r (k1 integer, k2 integer, v integer)")
    for row in left:
        database.table("l").insert_row(row)
    for row in right:
        database.table("r").insert_row(row)
    return database


def run_join(database: Database, sql: str, size: int) -> list:
    """``sql``'s rows, every hash join free to build on the smaller input
    (which the executor allows INNER joins only)."""
    executor = SelectExecutor(database, batch_size=size)
    block = Planner(executor).plan_block(parse_select(sql))
    executor.optimizer.optimize(block)
    joins = [n for n in walk(block.source_root) if isinstance(n, HashJoin)]
    assert joins
    for join in joins:
        join.build_side = "smaller"
    return list(executor.compile_plan(block.source_root, None).rows(Env(subq={})))


def inner_loop(left, right, matches) -> list:
    """An INNER hash join's output order: probe order, all matches of one
    probe row in build order; the left input builds exactly when it is
    smaller than the right one."""
    if len(left) < len(right):
        return [l + r for r in right for l in left if matches(l, r)]
    return [l + r for l in left for r in right if matches(l, r)]


def nested_loop(left, right, kind, composite, residual) -> list:
    """The reference: every pair tested row by row, in the hash join's
    output order (an outer join always probes with its left input; a RIGHT
    join's unmatched build rows last)."""

    def matches(l, r) -> bool:
        width = 2 if composite else 1
        if any(l[i] is None or r[i] is None or l[i] != r[i] for i in range(width)):
            return False
        return not residual or (l[2] is not None and r[2] is not None and l[2] <= r[2])

    if kind == "INNER":
        return inner_loop(left, right, matches)
    out, matched = [], set()
    for l in left:
        hits = [j for j, r in enumerate(right) if matches(l, r)]
        matched.update(hits)
        out.extend(l + right[j] for j in hits)
        if not hits and kind == "LEFT":
            out.append(l + (None,) * 3)
    if kind == "RIGHT":
        out.extend((None,) * 3 + r for j, r in enumerate(right) if j not in matched)
    return out


def join_sql(kind: str, composite: bool, residual: bool) -> str:
    condition = "l.k1 = r.k1"
    if composite:
        condition += " and l.k2 = r.k2"
    if residual:
        condition += " and l.v <= r.v"
    return f"select * from l {kind.lower()} join r on {condition}"


@settings(max_examples=120, deadline=None)
@given(
    join_rows,
    join_rows,
    st.sampled_from(("INNER", "LEFT", "RIGHT")),
    st.booleans(),
    st.booleans(),
)
def test_hash_join_matches_a_nested_loop(left, right, kind, composite, residual):
    database = join_world(left, right)
    sql = join_sql(kind, composite, residual)
    expected = nested_loop(left, right, kind, composite, residual)
    for size in PAGE_SIZES:
        assert run_join(database, sql, size) == expected, size
    assert database.query(sql).rows == expected


def test_a_duplicate_key_first_seen_in_a_later_page():
    # Build keys 0..6 fill the first 7-row page uniquely; the second page
    # repeats key 0 and adds a NULL: the build converts to buckets there.
    # The left input is the larger one, so the INNER join builds right too.
    right = [(k, 0, k) for k in range(7)] + [(0, 0, 9), (None, 0, 1)]
    left = [(0, 0, 0), (6, 0, 0), (None, 0, 0), (5, 0, 0)]
    left += [(3, 0, v) for v in range(6)]
    database = join_world(left, right)
    for kind in ("INNER", "LEFT", "RIGHT"):
        sql = join_sql(kind, False, False)
        expected = nested_loop(left, right, kind, False, False)
        assert run_join(database, sql, 7) == expected, kind


def test_a_full_length_take_list_that_is_not_the_identity():
    # One probe page of two rows: the first matches two build rows, the
    # second none — a take list of page length that is not the identity.
    right = [(1, 0, 0), (1, 0, 1)]
    left = [(1, 0, 5), (2, 0, 6)]
    database = join_world(left, right)
    for kind in ("INNER", "LEFT", "RIGHT"):
        for residual in (False, True):
            sql = join_sql(kind, False, residual)
            expected = nested_loop(left, right, kind, False, residual)
            assert run_join(database, sql, 7) == expected, (kind, residual)


# -- the run-time build side ---------------------------------------------------------


def _key(l, r) -> bool:
    return l[0] is not None and l[0] == r[0]


@pytest.mark.parametrize(
    "left_size, right_size",
    [(3, 3), (7, 7), (8, 8), (0, 4), (4, 0), (0, 0), (6, 8), (8, 6), (7, 8)],
)
def test_build_side_edges(left_size, right_size):
    # Every row matches every row of the other side, so the output order
    # says which input built: ties and empty inputs build right.
    left = [(1, 0, v) for v in range(left_size)]
    right = [(1, 0, 10 + v) for v in range(right_size)]
    database = join_world(left, right)
    sql = join_sql("INNER", False, False)
    expected = inner_loop(left, right, _key)
    for size in PAGE_SIZES:
        assert run_join(database, sql, size) == expected, size
    for kind in ("LEFT", "RIGHT"):  # never flip, whichever side is smaller
        sql = join_sql(kind, False, False)
        expected = nested_loop(left, right, kind, False, False)
        for size in PAGE_SIZES:
            assert run_join(database, sql, size) == expected, (kind, size)


def test_a_derived_input_is_measured_by_its_output():
    # l holds more rows than r, but the derived table keeps fewer: it builds.
    left = [(k % 3, 0, k) for k in range(12)]
    right = [(k % 3, 0, 20 + k) for k in range(5)]
    database = join_world(left, right)
    sql = (
        "select * from (select * from l where v < 4) d"
        " join r on d.k1 = r.k1"
    )
    kept = [row for row in left if row[2] < 4]
    expected = inner_loop(kept, right, _key)
    assert expected != [l + r for l in kept for r in right if _key(l, r)]
    for size in PAGE_SIZES:
        assert run_join(database, sql, size) == expected, size


def test_a_nested_join_input_is_measured_by_its_output():
    # (l ⋈ r) yields fewer rows than m, so the outer join builds on it.
    left = [(k, 0, k) for k in range(4)]
    right = [(k, 0, 10 + k) for k in range(2, 9)]
    middle = [(k % 4, 0, 30 + k) for k in range(9)]
    database = join_world(left, right)
    database.execute("create table m (k1 integer, k2 integer, v integer)")
    for row in middle:
        database.table("m").insert_row(row)
    sql = "select * from l join r on l.k1 = r.k1 join m on r.k1 = m.k1"
    inner = inner_loop(left, right, _key)
    expected = inner_loop(inner, middle, lambda lr, m: lr[3] == m[0])
    assert len(inner) < len(middle)
    assert expected != [lr + m for lr in inner for m in middle if lr[3] == m[0]]
    for size in PAGE_SIZES:
        assert run_join(database, sql, size) == expected, size
    assert database.query(sql).rows == expected


def test_a_prepared_join_flips_its_build_side_as_the_rows_change():
    left = [(k % 3, 0, k) for k in range(3)]
    right = [(k % 3, 0, 10 + k) for k in range(6)]
    database = join_world(left, right)
    sql = join_sql("INNER", False, False)
    prepared = database.prepare(sql, batch_size=7)

    def joins() -> list:
        block = prepared._arms()[1][0].block
        return [n for n in walk(block.source_root) if isinstance(n, HashJoin)]

    def built_left() -> list:  # r probes: its order
        return [l + r for r in right for l in left if _key(l, r)]

    def built_right() -> list:  # l probes: its order
        return [l + r for l in left for r in right if _key(l, r)]

    (join,) = joins()
    assert join.build_side == "smaller"
    first = prepared.execute().rows
    assert first == built_left() != built_right()
    for v in range(3, 12):
        database.table("l").insert_row((v % 3, 0, v))
        left.append((v % 3, 0, v))
    assert joins() == [join]  # one plan, and the rows decide again
    second = prepared.execute().rows
    assert second == built_right() != built_left()
    assert second == database.prepare(sql, batch_size=7).execute().rows
