"""Scalar function registry tests, including the UDF call counters."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.functions import FunctionRegistry, MemoizedFunction
from repro.engine.types import BitString
from repro.errors import ExpressionError, TypeMismatchError


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestBuiltins:
    def test_abs(self, registry):
        assert registry.call("abs", (-4,)) == 4

    def test_round_with_digits(self, registry):
        assert registry.call("round", (3.14159, 2)) == 3.14

    def test_floor_ceil(self, registry):
        assert registry.call("floor", (3.7,)) == 3
        assert registry.call("ceil", (3.2,)) == 4

    def test_lower_upper_trim(self, registry):
        assert registry.call("lower", ("AbC",)) == "abc"
        assert registry.call("upper", ("AbC",)) == "ABC"
        assert registry.call("trim", ("  x  ",)) == "x"

    def test_length_of_text(self, registry):
        assert registry.call("length", ("hello",)) == 5

    def test_substr_is_one_based(self, registry):
        assert registry.call("substr", ("abcdef", 2, 3)) == "bcd"
        assert registry.call("substr", ("abcdef", 4)) == "def"

    def test_replace(self, registry):
        assert registry.call("replace", ("aXbX", "X", "-")) == "a-b-"

    def test_concat_skips_nulls(self, registry):
        assert registry.call("concat", ("a", None, "b")) == "ab"

    def test_coalesce(self, registry):
        assert registry.call("coalesce", (None, None, 3)) == 3
        assert registry.call("coalesce", (None,)) is None

    def test_nullif(self, registry):
        assert registry.call("nullif", (1, 1)) is None
        assert registry.call("nullif", (1, 2)) == 1

    def test_greatest_least(self, registry):
        assert registry.call("greatest", (1, 5, 3)) == 5
        assert registry.call("least", (1, 5, 3)) == 1

    def test_type_errors_surface(self, registry):
        with pytest.raises(TypeMismatchError):
            registry.call("abs", ("not a number",))


class TestStrictness:
    def test_strict_function_returns_null_on_null_arg(self, registry):
        assert registry.call("abs", (None,)) is None

    def test_strict_null_shortcut_not_counted(self, registry):
        registry.call("abs", (None,))
        assert registry.call_count("abs") == 0
        registry.call("abs", (1,))
        assert registry.call_count("abs") == 1

    def test_non_strict_function_sees_nulls(self, registry):
        registry.register("always42", lambda *a: 42, strict=False)
        assert registry.call("always42", (None,)) == 42


class TestRegistration:
    def test_register_and_call_udf(self, registry):
        registry.register("twice", lambda v: v * 2)
        assert registry.call("twice", (21,)) == 42

    def test_names_are_case_insensitive(self, registry):
        registry.register("MyFunc", lambda: 1)
        assert "myfunc" in registry
        assert registry.call("MYFUNC", ()) == 1

    def test_unknown_function_raises(self, registry):
        with pytest.raises(ExpressionError):
            registry.call("no_such_function", ())

    def test_unregister(self, registry):
        registry.register("gone", lambda: 1)
        registry.unregister("gone")
        assert "gone" not in registry

    def test_replace_existing(self, registry):
        registry.register("f", lambda: 1)
        registry.register("f", lambda: 2)
        assert registry.call("f", ()) == 2


class TestCounters:
    def test_counts_accumulate(self, registry):
        registry.register("cw", lambda a, b: True)
        for _ in range(5):
            registry.call("cw", (1, 2))
        assert registry.call_count("cw") == 5

    def test_reset_counters(self, registry):
        registry.register("cw", lambda: True)
        registry.call("cw", ())
        registry.reset_counters()
        assert registry.call_count("cw") == 0

    def test_unknown_function_count_is_zero(self, registry):
        assert registry.call_count("missing") == 0


class TestMemoAccounting:
    def test_unhashable_argument_is_charged_as_a_miss(self, registry):
        registry.register("size", MemoizedFunction(len))
        costs = Counter()
        assert registry.call("size", ([1, 2],), costs) == 2
        assert registry.call("size", ([1, 2],), costs) == 2
        assert costs == Counter({"size": 2, "memo.miss": 2})


# -- call_batch against a per-row reference fold --------------------------------

_SHARED = (BitString(5, 4), BitString(9, 4), 7, "x", [1])
_VALUES = st.one_of(
    st.sampled_from(_SHARED),  # identity duplicates across rows
    st.builds(BitString, st.sampled_from([5, 9]), st.just(4)),  # equal, distinct
    st.none(),
    st.integers(0, 3),
    st.builds(list, st.lists(st.integers(0, 1), max_size=2)),  # unhashable
)


#: What a compiled constant argument repeats on every row: a literal, a
#: ``BitString`` literal, a bound parameter (any value) or a NULL constant.
_CONSTANTS = st.one_of(
    st.sampled_from(_SHARED),
    st.builds(BitString, st.sampled_from([5, 9]), st.just(4)),
    _VALUES,
    st.none(),
)


@st.composite
def _pages(draw, constants: bool = True):
    """``(columns, length, constant)``: a page of argument columns, some of
    them (with ``constants``) one value repeated and flagged constant."""
    width = draw(st.integers(0, 3))
    length = draw(st.integers(0, 12))
    column = st.lists(_VALUES, min_size=length, max_size=length)
    columns, constant = [], []
    for _ in range(width):
        fixed = constants and draw(st.booleans())
        columns.append([draw(_CONSTANTS)] * length if fixed else draw(column))
        constant.append(fixed)
    return columns, length, tuple(constant)


def _rows(columns, length):
    return list(zip(*columns)) if columns else [()] * length


def _reference(func, strict, memo, columns, length, costs):
    """The per-row fold ``call_batch`` must agree with: each row its own
    strictness check, charge and memo lookup."""
    out = []
    for args in _rows(columns, length):
        if strict and any(arg is None for arg in args):
            out.append(None)
            continue
        costs["f"] += 1
        if memo is None:
            out.append(func(*args))
            continue
        try:
            hit = args in memo
        except TypeError:
            costs["memo.miss"] += 1
            out.append(func(*args))
            continue
        costs["memo.hit" if hit else "memo.miss"] += 1
        if not hit:
            memo[args] = func(*args)
        out.append(memo[args])
    return out


def _pure(*args):
    return repr(args)


@settings(max_examples=300, deadline=None)
@given(warm=_pages(constants=False), page=_pages(), strict=st.booleans())
def test_memoized_batch_matches_per_row_fold(warm, page, strict):
    registry = FunctionRegistry()
    registry.register("f", MemoizedFunction(_pure), strict=strict)
    memo: dict = {}
    _reference(_pure, strict, memo, *warm[:2], Counter())
    registry.call_batch("f", *warm[:2], Counter())
    columns, length, constant = page
    expected, costs = Counter(), Counter()
    assert registry.call_batch("f", columns, length, costs, constant) == _reference(
        _pure, strict, memo, columns, length, expected
    )
    assert costs == expected
    assert costs["memo.hit"] + costs["memo.miss"] == costs["f"]


@settings(max_examples=150, deadline=None)
@given(page=_pages(), strict=st.booleans())
def test_impure_udf_sees_every_live_row_in_order(page, strict):
    seen: list = []

    def impure(*args):
        seen.append(args)
        return len(seen)

    registry = FunctionRegistry()
    registry.register("f", impure, strict=strict)
    columns, length, constant = page
    costs = Counter()
    results = registry.call_batch("f", columns, length, costs, constant)
    live = [
        args for args in _rows(columns, length)
        if not (strict and any(arg is None for arg in args))
    ]
    assert len(seen) == len(live) == costs["f"]
    assert all(x is y for got, row in zip(seen, live) for x, y in zip(got, row))
    seen.clear()
    expected = Counter()
    assert results == _reference(impure, strict, None, columns, length, expected)
    assert costs == expected


def test_constant_mask_keys_the_memo_on_the_policy_column_alone():
    """``complieswith(b'<mask>', policy)``'s shape: a constant first column,
    a varying second one; a NULL constant answers the page NULL uncharged."""
    calls: list = []
    registry = FunctionRegistry()
    registry.register("f", MemoizedFunction(lambda *args: calls.append(args) or 1))
    mask, policies = BitString(5, 4), [BitString(9, 4), BitString(9, 4), None, 7]
    costs = Counter()
    results = registry.call_batch("f", [[mask] * 4, policies], 4, costs, (True, False))
    assert results == [1, 1, None, 1]
    assert calls == [(mask, BitString(9, 4)), (mask, 7)]
    assert costs == Counter({"f": 3, "memo.miss": 2, "memo.hit": 1})
    costs = Counter()
    assert registry.call_batch("f", [[None] * 4, policies], 4, costs, (True, False)) == [None] * 4
    assert costs == Counter()
