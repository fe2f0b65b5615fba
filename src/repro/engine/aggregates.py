"""Aggregate function implementations.

Each aggregate is an accumulator class with ``fold(values)`` / ``result()``.
The executor folds a page at a time: one ``fold`` call per group per page,
with that group's slice of the argument column in scan order (``count(*)``
is handed any sequence of the group's length).  SQL semantics are followed:
NULL inputs are skipped; ``count(*)`` counts rows; ``sum``/``avg``/``min``/
``max`` over an empty (or all-NULL) group return NULL while ``count``
returns 0.  ``DISTINCT`` variants deduplicate values before accumulation.
Totals are added left to right, never with ``sum()``/``math.fsum`` (whose
float rounding differs); ``min``/``max`` refuse values WHERE's ``<`` refuses.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ExpressionError, TypeMismatchError
from .types import require_orderable


class Accumulator:
    """Base accumulator."""

    def fold(self, values: Sequence) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class CountAggregate(Accumulator):
    """``count(expr)`` — number of non-NULL inputs."""

    def __init__(self) -> None:
        self.count = 0

    def fold(self, values: Sequence) -> None:
        self.count += len(values) - values.count(None)

    def result(self) -> int:
        return self.count


class CountStarAggregate(Accumulator):
    """``count(*)`` — number of rows, NULLs included."""

    def __init__(self) -> None:
        self.count = 0

    def fold(self, values: Sequence) -> None:
        self.count += len(values)

    def result(self) -> int:
        return self.count


def _require_number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"{name}() requires numeric input, got {value!r}")
    return value


class SumAggregate(Accumulator):
    """``sum(expr)``."""

    def __init__(self) -> None:
        self.total: float | int = 0
        self.seen = False

    def fold(self, values: Sequence) -> None:
        total, seen = self.total, self.seen
        for value in values:
            if value is None:
                continue
            kind = type(value)
            if kind is not int and kind is not float:
                _require_number(value, "sum")
            total += value
            seen = True
        self.total, self.seen = total, seen

    def result(self) -> object:
        return self.total if self.seen else None


class AvgAggregate(Accumulator):
    """``avg(expr)``."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def fold(self, values: Sequence) -> None:
        total, count = self.total, self.count
        for value in values:
            if value is None:
                continue
            kind = type(value)
            if kind is not int and kind is not float:
                _require_number(value, "avg")
            total += value
            count += 1
        self.total, self.count = total, count

    def result(self) -> object:
        if self.count == 0:
            return None
        return self.total / self.count


class _ExtremeAggregate(Accumulator):
    """``min``/``max``: ``pick`` over the best so far and the new values is
    the left-to-right scan (first extreme wins), after the inputs pass the
    comparability rule of ``<``."""

    pick: Callable

    def __init__(self) -> None:
        self.best: object = None

    def fold(self, values: Sequence) -> None:
        present = [value for value in values if value is not None]
        if not present:
            return
        if self.best is not None:
            present.insert(0, self.best)
        require_orderable(present)
        self.best = self.pick(present)

    def result(self) -> object:
        return self.best


class MinAggregate(_ExtremeAggregate):
    """``min(expr)``."""

    pick = min


class MaxAggregate(_ExtremeAggregate):
    """``max(expr)``."""

    pick = max


class DistinctAggregate(Accumulator):
    """Wraps another aggregate, feeding it each distinct non-NULL value once."""

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def fold(self, values: Sequence) -> None:
        seen = self.seen
        fresh = []
        for value in values:
            if value is None or value in seen:
                continue
            seen.add(value)
            fresh.append(value)
        self.inner.fold(fresh)

    def result(self) -> object:
        return self.inner.result()


_FACTORIES: dict[str, Callable[[], Accumulator]] = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
}


def aggregate_factory(
    name: str, star: bool = False, distinct: bool = False
) -> Callable[[], Accumulator]:
    """The zero-argument constructor of an aggregate call's accumulator,
    resolved once so that each new group pays only the construction.

    Args:
        name: Aggregate name (case-insensitive).
        star: True for ``count(*)``.
        distinct: True for ``agg(DISTINCT expr)``.
    """
    key = name.lower()
    if key == "count" and star:
        if distinct:
            raise ExpressionError("count(distinct *) is not valid SQL")
        return CountStarAggregate
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise ExpressionError(f"unknown aggregate function {name!r}") from None
    if distinct:
        return lambda: DistinctAggregate(factory())
    return factory


def is_aggregate_name(name: str) -> bool:
    """True when ``name`` denotes one of the supported aggregates."""
    return name.lower() in _FACTORIES
