"""Aggregate accumulator tests (SQL NULL semantics, page-at-a-time fold)."""

import pytest

from repro.engine import Database
from repro.engine.aggregates import aggregate_factory, is_aggregate_name
from repro.errors import ExpressionError, TypeMismatchError


def run(name, values, star=False, distinct=False, pages=1):
    """Fold ``values`` split into ``pages`` consecutive slices, one call each."""
    aggregate = aggregate_factory(name, star=star, distinct=distinct)()
    size = -(-len(values) // pages) if values else 1
    for start in range(0, max(len(values), 1), size):
        aggregate.fold(values[start : start + size])
    return aggregate.result()


class TestCount:
    def test_count_skips_nulls(self):
        assert run("count", [1, None, 2, None]) == 2

    def test_count_star_counts_everything(self):
        assert run("count", [1, None, 2], star=True) == 3

    def test_count_empty_is_zero(self):
        assert run("count", []) == 0

    def test_count_distinct(self):
        assert run("count", [1, 1, 2, None, 2], distinct=True) == 2

    def test_count_distinct_star_invalid(self):
        with pytest.raises(ExpressionError):
            aggregate_factory("count", star=True, distinct=True)


class TestSumAvg:
    def test_sum(self):
        assert run("sum", [1, 2, 3]) == 6

    def test_sum_skips_nulls(self):
        assert run("sum", [1, None, 2]) == 3

    def test_sum_empty_is_null(self):
        assert run("sum", []) is None

    def test_sum_all_nulls_is_null(self):
        assert run("sum", [None, None]) is None

    def test_avg(self):
        assert run("avg", [1, 2, 3]) == 2.0

    def test_avg_skips_nulls(self):
        assert run("avg", [2, None, 4]) == 3.0

    def test_avg_empty_is_null(self):
        assert run("avg", []) is None

    def test_sum_distinct(self):
        assert run("sum", [1, 1, 2], distinct=True) == 3

    def test_avg_distinct(self):
        assert run("avg", [2, 2, 4], distinct=True) == 3.0

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("sum", ["x"])

    @pytest.mark.parametrize("name", ["sum", "avg"])
    @pytest.mark.parametrize("bad", ["x", True])
    def test_bad_value_mid_slice_rejected(self, name, bad):
        with pytest.raises(TypeMismatchError, match=rf"{name}\(\) requires numeric"):
            run(name, [1, 2.5, None, bad, 4])

    def test_floats_add_left_to_right(self):
        # sum() on 3.12 and math.fsum both give 1.0 here; scan order gives 0.0.
        values = [1e16, 1.0, -1e16]
        assert repr(run("sum", values)) == repr(0.0)
        assert repr(run("avg", values)) == repr(0.0)


class TestMinMax:
    def test_min_max_numbers(self):
        assert run("min", [3, 1, 2]) == 1
        assert run("max", [3, 1, 2]) == 3

    def test_min_max_text(self):
        assert run("min", ["b", "a", "c"]) == "a"
        assert run("max", ["b", "a", "c"]) == "c"

    def test_min_max_skip_nulls(self):
        assert run("min", [None, 5, None, 3]) == 3

    def test_min_max_empty_is_null(self):
        assert run("min", []) is None
        assert run("max", []) is None

    def test_min_max_mix_int_and_float(self):
        assert run("min", [3, 1.5, 2]) == 1.5
        assert run("max", [3, 1.5, 2]) == 3

    def test_first_extreme_wins(self):
        assert type(run("min", [2.0, 1.0, 1, 3], pages=2)) is float
        assert type(run("max", [3, 1, 3.0], pages=3)) is int

    @pytest.mark.parametrize("name", ["min", "max"])
    @pytest.mark.parametrize("values", [[2, "b"], [2, True], ["a", None, False]])
    def test_incomparable_values_rejected(self, name, values):
        with pytest.raises(TypeMismatchError, match="cannot compare"):
            run(name, values)
        with pytest.raises(TypeMismatchError, match="cannot compare"):
            run(name, values, pages=len(values))


class TestPages:
    CASES = [
        ("count", [1, None, 2, None, 3], False, False),
        ("count", [1, None, 2, None, 3], True, False),
        ("count", [1, 1, None, 2, 1], False, True),
        ("sum", [0.1, 0.2, None, 0.3, 1e16, 1.0], False, False),
        ("sum", [1, 2, 2, None, 1], False, True),
        ("avg", [0.1, 0.7, None, 0.3, 2], False, False),
        ("avg", [2, 2, 4, 4.0], False, True),
        ("min", ["b", None, "a", "c"], False, False),
        ("max", [1, 2.5, None, 2], False, True),
    ]

    @pytest.mark.parametrize("name, values, star, distinct", CASES)
    def test_split_fold_matches_one_fold(self, name, values, star, distinct):
        whole = run(name, values, star=star, distinct=distinct)
        for pages in range(2, len(values) + 1):
            split = run(name, values, star=star, distinct=distinct, pages=pages)
            assert repr(split) == repr(whole)


class TestExecutorFold:
    @pytest.fixture()
    def db(self):
        database = Database()
        database.execute("create table t (k text, v integer, w double precision)")
        return database

    def test_ungrouped_aggregates_over_empty_table_yield_one_row(self, db):
        result = db.query(
            "select count(*), count(v), sum(v), avg(w), min(k), max(v) from t"
        )
        assert result.rows == [(0, 0, None, None, None, None)]

    def test_null_group_key_forms_its_own_group(self, db):
        db.execute(
            "insert into t values ('a', 1, 0.5), (null, 2, null), ('a', 3, 1.5), "
            "(null, null, 2.5), ('b', 5, null)"
        )
        result = db.query(
            "select k, count(*), count(v), sum(v), avg(w) from t group by k"
        )
        assert result.rows == [
            ("a", 2, 2, 4, 1.0),
            (None, 2, 1, 2, 2.5),
            ("b", 1, 1, 5, None),
        ]


class TestFactory:
    def test_is_aggregate_name(self):
        for name in ("count", "SUM", "Avg", "min", "max"):
            assert is_aggregate_name(name)
        assert not is_aggregate_name("lower")

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExpressionError):
            aggregate_factory("median")
