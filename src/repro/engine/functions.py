"""Scalar function registry and per-execution cost ledgers.

The engine ships with a small set of builtins and lets callers register
user-defined functions — the enforcement framework registers
``complieswith`` here, mirroring the paper's PostgreSQL C UDF (Section 6.3).

Figure 6 of the paper measures exactly "the number of times function
compliesWith is invoked to check the compliance of a query action signature
with a policy".  Each execution charges its invocations — and its memo,
policy-bitmap and index events — to its own ledger (a ``Counter`` on its
:class:`~repro.engine.expressions.Env`), and whoever created the ledger
folds it into the database's :class:`CostTotal` when the run ends.
An invocation is charged per row but dispatched once per page
(:meth:`FunctionRegistry.call_batch`): a memoized — pure — function
evaluates each distinct argument once a page, keyed on the arguments that
vary (a literal or a parameter repeats one object down the page).
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import Callable, Iterable, Iterator

from ..errors import ExpressionError, TypeMismatchError


class CostTotal:
    """The database's running cost total: every finished execution's
    ledger plus the calls made outside any execution (locked, monotonic)."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._lock = threading.Lock()

    def charge(self, costs: "Counter | None", key: str, count: int = 1) -> None:
        """Charge ``count`` of ``key`` to ``costs``, the running execution's
        ledger; outside any execution (``None``), to this total directly."""
        if not count:
            return
        if costs is not None:
            costs[key] += count
        else:
            with self._lock:
                self._counts[key] += count

    @contextmanager
    def ledger(self, costs: "Counter | None") -> Iterator[Counter]:
        """The ledger an execution charges: its caller's ``costs``, or a
        fresh one folded in here when the run ends (or raises)."""
        ledger = Counter() if costs is None else costs
        try:
            yield ledger
        finally:
            if costs is None:
                with self._lock:
                    self._counts.update(ledger)

    def __getitem__(self, key: str) -> int:
        with self._lock:
            return self._counts[key]

    def reset(self, keys: Iterable[str]) -> None:
        with self._lock:
            for key in keys:
                self._counts.pop(key, None)


@dataclass
class RegisteredFunction:
    """A registered scalar function: ``func`` receives evaluated arguments,
    SQL NULL as ``None``.  A ``strict`` one (the default, like PostgreSQL
    STRICT functions) is not invoked when an argument is NULL: the result
    is NULL and the invocation is *not* counted."""

    name: str
    func: Callable[..., object]
    strict: bool = True


class MemoizedFunction:
    """A pure scalar function wrapped with a bounded argument→result memo.

    Register the *wrapper* rather than swapping registry entries on every
    change: :meth:`FunctionRegistry.call_batch` charges every invocation
    before delegating here, so memo hits are still counted — Figure 6
    counts how often the rewritten query *invokes* ``complieswith``, not
    how often its bit arithmetic runs.  Each invocation also charges ``memo.hit`` or
    ``memo.miss``; one with an unhashable argument is a miss, uncached.

    The memo is guarded by a lock so concurrent query threads can share it:
    lookups and the clear-on-overflow sequence would otherwise interleave
    (a reader could observe a cache another thread is mid-way through
    clearing).  A page takes it once
    for its lookups and once more to store what it missed; the wrapped
    function runs outside it — it is pure, so a racing duplicate
    computation is harmless while holding the lock across it would serialize
    every policy check.
    """

    __slots__ = ("func", "maxsize", "_cache", "_lock")

    def __init__(self, func: Callable[..., object], maxsize: int = 4096):
        self.func = func
        self.maxsize = maxsize
        self._cache: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def results(
        self, columns: list, constant: tuple, length: int, total: CostTotal, costs
    ) -> list:
        """``func(*row)`` for each of the ``length`` rows of ``columns``.
        Rows are grouped by the identity of their varying arguments at C
        speed (a ``constant`` column repeats one object and keys nothing)
        and only one row a group is hashed by value; the misses charged are
        the distinct values the memo lacked when the page started plus
        every row with an unhashable argument, the other rows are hits."""
        varying = [c for c, fixed in zip(columns, constant) if not fixed] or columns[:1]
        ids = [map(id, column) for column in varying]
        keys = list(ids[0] if len(ids) == 1 else zip(*ids)) or [()] * length
        distinct = {
            key: tuple(column[i] for column in columns)
            for key, i in dict(zip(keys, range(length))).items()
        }
        found: dict = {}
        missing: dict[tuple, list] = {}  # argument value -> identity keys
        unhashable: set = set()
        with self._lock:
            for key, args in distinct.items():
                try:
                    found[key] = self._cache[args]
                except KeyError:
                    missing.setdefault(args, []).append(key)
                except TypeError:
                    unhashable.add(key)
        found.update((key, self.func(*distinct[key])) for key in unhashable)
        computed = {args: self.func(*args) for args in missing}
        found.update((key, computed[args]) for args in missing for key in missing[args])
        if computed:
            with self._lock:
                for args, result in computed.items():
                    if len(self._cache) >= self.maxsize:
                        self._cache.clear()
                    self._cache[args] = result
        misses = len(computed) + sum(map(unhashable.__contains__, keys))
        total.charge(costs, "memo.hit", length - misses)
        total.charge(costs, "memo.miss", misses)
        return list(map(found.__getitem__, keys))

    def clear(self) -> None:
        """Drop every memoized result (call when the inputs' meaning shifts)."""
        with self._lock:
            self._cache.clear()

    def cached_results(self) -> int:
        """Number of argument tuples currently memoized."""
        with self._lock:
            return len(self._cache)


class FunctionRegistry:
    """Name → scalar function mapping; invocations are charged by name to
    ``cost_total``, the database's (a registry of its own gets its own)."""

    def __init__(self, cost_total: CostTotal | None = None) -> None:
        self.cost_total = cost_total if cost_total is not None else CostTotal()
        self._functions: dict[str, RegisteredFunction] = {}
        _install_builtins(self)

    def register(
        self, name: str, func: Callable[..., object], strict: bool = True
    ) -> None:
        """Register (or replace) a scalar function under ``name``."""
        key = name.lower()
        self._functions[key] = RegisteredFunction(key, func, strict)

    def unregister(self, name: str) -> None:
        """Remove a function; unknown names are ignored."""
        self._functions.pop(name.lower(), None)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def get(self, name: str) -> RegisteredFunction:
        """Look up a function, raising :class:`ExpressionError` when missing."""
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise ExpressionError(f"unknown function {name!r}") from None

    def call(self, name: str, args: tuple, costs: "Counter | None" = None) -> object:
        """Invoke a registered function on one row of evaluated arguments:
        :meth:`call_batch` on a one-row page."""
        return self.call_batch(name, [[arg] for arg in args], 1, costs)[0]

    def call_batch(
        self, name: str, columns: list, length: int,
        costs: "Counter | None" = None, constant: "tuple[bool, ...] | None" = None,
    ) -> list:
        """Invoke a registered function on a page of ``length`` rows whose
        evaluated arguments are ``columns``, one result per row.  A strict
        function's rows with a NULL argument answer NULL uncharged; every
        other row is one invocation charged to ``costs``.  A
        :class:`MemoizedFunction` (pure) evaluates each distinct argument
        once a page; any other function is called per row, in row order.
        ``constant`` flags the columns that repeat one object on every row
        (a literal, a bound parameter): they need no NULL scan and key no
        memo lookup."""
        registered = self.get(name)
        constant = constant or (False,) * len(columns)
        nulls: set[int] = set()
        for column, fixed in zip(columns, constant) if registered.strict else ():
            if fixed and length and column[0] is None:
                return [None] * length
            if not fixed:
                nulls.update(compress(range(length), map(is_, column, repeat(None))))
        if nulls:
            live = [i for i in range(length) if i not in nulls]
            page = [[column[i] for i in live] for column in columns]
            results = iter(self.call_batch(name, page, len(live), costs, constant))
            return [None if i in nulls else next(results) for i in range(length)]
        self.cost_total.charge(costs, registered.name, length)
        func = registered.func
        if type(func) is MemoizedFunction:
            return func.results(columns, constant, length, self.cost_total, costs)
        rows = zip(*columns) if columns else [()] * length
        return [func(*row) for row in rows]

    # -- instrumentation ---------------------------------------------------------

    def call_count(self, name: str) -> int:
        """How many times ``name`` was invoked since the last reset."""
        return self.cost_total[name.lower()]

    def reset_counters(self) -> None:
        """Zero every function's invocation counter."""
        self.cost_total.reset(self._functions)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _as_number(value: object, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"{context} requires a numeric argument, got {value!r}")
    return value


def _install_builtins(registry: FunctionRegistry) -> None:
    registry.register("abs", lambda v: abs(_as_number(v, "abs")))
    registry.register("round", _round)
    registry.register("floor", lambda v: math.floor(_as_number(v, "floor")))
    registry.register("ceil", lambda v: math.ceil(_as_number(v, "ceil")))
    registry.register("sqrt", lambda v: math.sqrt(_as_number(v, "sqrt")))
    registry.register("power", lambda b, e: _as_number(b, "power") ** _as_number(e, "power"))
    registry.register("mod", lambda a, b: int(_as_number(a, "mod")) % int(_as_number(b, "mod")))
    registry.register("length", _length)
    registry.register("lower", lambda v: _as_text(v, "lower").lower())
    registry.register("upper", lambda v: _as_text(v, "upper").upper())
    registry.register("trim", lambda v: _as_text(v, "trim").strip())
    registry.register("substr", _substr)
    registry.register("substring", _substr)
    registry.register("replace", _replace)
    registry.register("concat", _concat, strict=False)
    registry.register("coalesce", _coalesce, strict=False)
    registry.register("nullif", lambda a, b: None if a == b else a, strict=False)
    registry.register("greatest", lambda *vs: max(vs))
    registry.register("least", lambda *vs: min(vs))
    registry.register("sign", lambda v: (v > 0) - (v < 0))


def _as_text(value: object, context: str) -> str:
    if not isinstance(value, str):
        raise TypeMismatchError(f"{context} requires a text argument, got {value!r}")
    return value


def _round(value: object, digits: object = 0) -> float:
    return round(_as_number(value, "round"), int(_as_number(digits, "round")))


def _length(value: object) -> int:
    if isinstance(value, str):
        return len(value)
    if hasattr(value, "__len__"):
        return len(value)  # BitString supports len()
    raise TypeMismatchError(f"length() requires text or bits, got {value!r}")


def _substr(value: object, start: object, count: object = None) -> str:
    text = _as_text(value, "substr")
    begin = int(_as_number(start, "substr")) - 1  # SQL substr is 1-based
    if count is None:
        return text[max(begin, 0) :]
    return text[max(begin, 0) : max(begin, 0) + int(_as_number(count, "substr"))]


def _replace(value: object, old: object, new: object) -> str:
    return _as_text(value, "replace").replace(
        _as_text(old, "replace"), _as_text(new, "replace")
    )


def _concat(*values: object) -> str:
    return "".join(str(v) for v in values if v is not None)


def _coalesce(*values: object) -> object:
    for value in values:
        if value is not None:
            return value
    return None
