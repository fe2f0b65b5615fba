"""Aggregate function implementations.

Each aggregate is an accumulator class with ``add(value)`` / ``result()``.
SQL semantics are followed: NULL inputs are skipped; ``count(*)`` counts
rows; ``sum``/``avg``/``min``/``max`` over an empty (or all-NULL) group
return NULL while ``count`` returns 0.  ``DISTINCT`` variants deduplicate
values before accumulation.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ExpressionError, TypeMismatchError


class Accumulator:
    """Base accumulator."""

    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class CountAggregate(Accumulator):
    """``count(expr)`` — number of non-NULL inputs."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: object) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class CountStarAggregate(Accumulator):
    """``count(*)`` — number of rows, NULLs included."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: object) -> None:
        self.count += 1

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

    def add(self, value: object) -> None:
        if value is None:
            return
        self.total += _require_number(value, "sum")
        self.seen = True

    def result(self) -> object:
        return self.total if self.seen else None


class AvgAggregate(Accumulator):
    """``avg(expr)``."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: object) -> None:
        if value is None:
            return
        self.total += _require_number(value, "avg")
        self.count += 1

    def result(self) -> object:
        if self.count == 0:
            return None
        return self.total / self.count


class MinAggregate(Accumulator):
    """``min(expr)``."""

    def __init__(self) -> None:
        self.best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> object:
        return self.best


class MaxAggregate(Accumulator):
    """``max(expr)``."""

    def __init__(self) -> None:
        self.best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> object:
        return self.best


class DistinctAggregate(Accumulator):
    """Wraps another aggregate, feeding it each distinct non-NULL value once."""

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()
        self.saw_row = False

    def add(self, value: object) -> None:
        self.saw_row = True
        if value is None:
            # count(*) distinct is not valid SQL; NULLs never reach inner
            # aggregates anyway, matching the non-distinct behaviour.
            self.inner.add(None)
            return
        if value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> object:
        return self.inner.result()


_FACTORIES: dict[str, Callable[[], Accumulator]] = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
}


def make_aggregate(name: str, star: bool = False, distinct: bool = False) -> Accumulator:
    """Build an accumulator for an aggregate call.

    Args:
        name: Aggregate name (case-insensitive).
        star: True for ``count(*)``.
        distinct: True for ``agg(DISTINCT expr)``.
    """
    key = name.lower()
    if key == "count" and star:
        if distinct:
            raise ExpressionError("count(distinct *) is not valid SQL")
        return CountStarAggregate()
    try:
        aggregate = _FACTORIES[key]()
    except KeyError:
        raise ExpressionError(f"unknown aggregate function {name!r}") from None
    if distinct:
        return DistinctAggregate(aggregate)
    return aggregate


def is_aggregate_name(name: str) -> bool:
    """True when ``name`` denotes one of the supported aggregates."""
    return name.lower() in _FACTORIES
