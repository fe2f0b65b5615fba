"""Expression evaluation tests, driven through single-row queries.

Using ``select <expr> from t`` against a one-row table exercises the full
compile/evaluate path with real column bindings.
"""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, ExpressionError, TypeMismatchError


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table t (i integer, f double, s text, b boolean, n integer)")
    database.execute("insert into t values (7, 2.5, 'hello', true, null)")
    return database


def value(db, expression):
    return db.query(f"select {expression} from t").scalar()


class TestArithmetic:
    def test_basic_operations(self, db):
        assert value(db, "i + 1") == 8
        assert value(db, "i - 10") == -3
        assert value(db, "i * 2") == 14
        assert value(db, "f * 2") == 5.0

    def test_integer_division_truncates_toward_zero(self, db):
        assert value(db, "7 / 2") == 3
        assert value(db, "-7 / 2") == -3

    def test_float_division(self, db):
        assert value(db, "f / 2") == 1.25

    def test_modulo(self, db):
        assert value(db, "i % 3") == 1
        assert value(db, "-7 % 3") == -1

    def test_division_by_zero_raises(self, db):
        with pytest.raises(ExecutionError):
            value(db, "i / 0")

    def test_unary_minus(self, db):
        assert value(db, "-i") == -7

    def test_null_propagates(self, db):
        assert value(db, "n + 1") is None
        assert value(db, "1 + n") is None
        assert value(db, "-n") is None

    def test_arithmetic_on_text_rejected(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "s + 1")


class TestComparisons:
    def test_numeric_comparisons(self, db):
        assert value(db, "i > 5") is True
        assert value(db, "i >= 7") is True
        assert value(db, "i < 7") is False
        assert value(db, "i <= 6") is False
        assert value(db, "i = 7") is True
        assert value(db, "i <> 7") is False

    def test_int_float_comparable(self, db):
        assert value(db, "i > f") is True

    def test_text_comparison(self, db):
        assert value(db, "s = 'hello'") is True
        assert value(db, "s < 'z'") is True

    def test_null_comparison_is_unknown(self, db):
        assert value(db, "n = 1") is None
        assert value(db, "1 < n") is None

    def test_mixed_type_comparison_rejected(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "s = 1")


class TestThreeValuedLogic:
    def test_and_truth_table(self, db):
        assert value(db, "true and true") is True
        assert value(db, "true and false") is False
        assert value(db, "false and (n = 1)") is False  # F AND U = F
        assert value(db, "(n = 1) and false") is False  # U AND F = F
        assert value(db, "(n = 1) and true") is None    # U AND T = U
        assert value(db, "(n = 1) and (n = 2)") is None

    def test_or_truth_table(self, db):
        assert value(db, "false or false") is False
        assert value(db, "true or (n = 1)") is True     # T OR U = T
        assert value(db, "(n = 1) or true") is True     # U OR T = T
        assert value(db, "(n = 1) or false") is None    # U OR F = U

    def test_not(self, db):
        assert value(db, "not false") is True
        assert value(db, "not (n = 1)") is None

    def test_and_short_circuits_left_to_right(self, db):
        # The right operand would divide by zero; the false left operand
        # must prevent its evaluation (this is what makes rewritten-query
        # compliance checks cheap after filters).
        assert value(db, "false and (1 / 0 > 0)") is False

    def test_or_short_circuits(self, db):
        assert value(db, "true or (1 / 0 > 0)") is True


class TestPredicates:
    def test_like(self, db):
        assert value(db, "s like 'he%'") is True
        assert value(db, "s like 'h_llo'") is True
        assert value(db, "s like 'ello'") is False
        assert value(db, "s not like 'xx%'") is True

    def test_like_is_anchored(self, db):
        assert value(db, "s like 'ell'") is False

    def test_like_escapes_regex_metacharacters(self, db):
        db.execute("update t set s = 'a.c'")
        assert value(db, "s like 'a.c'") is True
        assert value(db, "s like 'abc'") is False

    def test_like_null_is_unknown(self, db):
        assert value(db, "n like 'x'") is None

    def test_between(self, db):
        assert value(db, "i between 5 and 10") is True
        assert value(db, "i between 8 and 10") is False
        assert value(db, "i not between 8 and 10") is True
        assert value(db, "n between 1 and 2") is None

    def test_in_list(self, db):
        assert value(db, "i in (1, 7, 9)") is True
        assert value(db, "i in (1, 2)") is False
        assert value(db, "i not in (1, 2)") is True

    def test_in_list_null_semantics(self, db):
        assert value(db, "i in (1, n)") is None       # no match + NULL → U
        assert value(db, "i in (7, n)") is True       # match wins
        assert value(db, "n in (1, 2)") is None
        assert value(db, "i not in (1, n)") is None   # NOT U = U

    def test_is_null(self, db):
        assert value(db, "n is null") is True
        assert value(db, "i is null") is False
        assert value(db, "i is not null") is True

    def test_case_searched(self, db):
        assert value(db, "case when i > 5 then 'big' else 'small' end") == "big"
        assert value(db, "case when i > 9 then 'big' end") is None

    def test_case_simple(self, db):
        assert value(db, "case i when 7 then 'seven' else 'other' end") == "seven"

    def test_case_unknown_condition_skipped(self, db):
        assert value(db, "case when n = 1 then 'x' else 'y' end") == "y"


class TestEqualityRule:
    """``CASE x WHEN v`` and ``x IN (…)`` compare with ``=``: NULL never
    matches, and a type mismatch raises as ``=`` does."""

    def test_simple_case_never_matches_null(self, db):
        assert value(db, "case n when null then 1 else 2 end") == 2

    def test_simple_case_type_mismatch_raises(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "case i when 'seven' then 1 else 2 end")

    def test_in_list_applies_the_type_rule_of_equals(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "i = true")
        with pytest.raises(TypeMismatchError):
            value(db, "i in (true)")
        with pytest.raises(TypeMismatchError):
            value(db, "i in (1, 'x')")
        assert value(db, "i in (7, 'x')") is True  # the first match wins
        with pytest.raises(TypeMismatchError):
            value(db, "i in (f, s)")

    def test_in_subquery_applies_the_type_rule_of_equals(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "i in (select b from t)")
        with pytest.raises(TypeMismatchError):
            value(db, "i in (select u.b from t u where u.i = t.i)")
        assert value(db, "i in (select u.i from t u where u.i = t.i)") is True
        assert value(db, "i not in (select n from t)") is None


class TestMaskedEvaluation:
    """Each operand runs only on the rows SQL's short circuit reaches it on,
    counted here through a ``complieswith`` UDF over ten rows."""

    @pytest.fixture()
    def world(self):
        from repro.core.masks import complies_with
        from repro.engine.types import BitString

        database = Database()
        database.execute("create table m (k integer, policy bit varying)")
        for k in range(10):
            database.table("m").insert_row((k, BitString.from_bits("1" if k % 2 else "0")))
        database.register_function("complieswith", complies_with)
        return database

    def calls(self, world, sql):
        world.reset_function_counters()
        rows = world.query(sql).rows
        return rows, world.function_calls("complieswith")

    def test_case_when_runs_only_on_undecided_rows(self, world):
        rows, calls = self.calls(
            world,
            "select case when k < 3 then 'low' "
            "when complieswith(b'1', policy) then 'ok' else 'denied' end from m",
        )
        assert calls == 7
        assert [r[0] for r in rows] == ["low"] * 3 + ["ok", "denied"] * 3 + ["ok"]

    def test_case_then_runs_only_on_rows_its_when_decided(self, world):
        rows, calls = self.calls(
            world, "select case when k >= 8 then complieswith(b'1', policy) end from m"
        )
        assert calls == 2
        assert [r[0] for r in rows] == [None] * 8 + [False, True]

    def test_in_items_stop_at_the_first_match(self, world):
        rows, calls = self.calls(
            world, "select true in (k < 5, complieswith(b'1', policy)) from m"
        )
        assert calls == 5
        assert [r[0] for r in rows] == [True] * 5 + [True, False] * 2 + [True]


class TestCastAndConcat:
    def test_cast_text_to_int(self, db):
        assert value(db, "cast('42' as integer)") == 42

    def test_cast_int_to_text(self, db):
        assert value(db, "cast(i as text)") == "7"

    def test_cast_to_double(self, db):
        assert value(db, "cast('2.5' as double precision)") == 2.5

    def test_cast_null_stays_null(self, db):
        assert value(db, "cast(n as text)") is None

    def test_invalid_cast_raises(self, db):
        with pytest.raises(TypeMismatchError):
            value(db, "cast('abc' as integer)")

    def test_text_concatenation(self, db):
        assert value(db, "s || '!'") == "hello!"

    def test_concat_null_is_null(self, db):
        assert value(db, "s || cast(n as text)") is None

    def test_bitstring_concatenation(self, db):
        result = value(db, "b'10' || b'01'")
        assert result.bits() == "1001"


class TestColumnsAndErrors:
    def test_unknown_column_raises(self, db):
        with pytest.raises((ExpressionError, ExecutionError, Exception)):
            db.query("select nope from t")

    def test_qualified_reference(self, db):
        assert db.query("select t.i from t").scalar() == 7

    def test_alias_qualified_reference(self, db):
        assert db.query("select u.i from t u").scalar() == 7

    def test_original_name_hidden_behind_alias(self, db):
        with pytest.raises(Exception):
            db.query("select t.i from t u")
