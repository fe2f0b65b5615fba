"""Expression compilation: AST → column-batch evaluators.

Every expression compiles once per statement preparation into an evaluator
``fn(batch, env) -> list`` producing one value per row of a
:class:`~repro.engine.batch.ColumnBatch`; a single row is a batch of one.
``env`` carries parameters, the outer rows of correlated subqueries, the
per-execution subquery cache and cost ledger.  SQL three-valued logic uses
``None`` as the UNKNOWN/NULL marker.

Short-circuit semantics are preserved by **masked evaluation**: wherever SQL
evaluates an operand only when the earlier ones left the answer open — the
right side of ``AND``/``OR``, of a comparison or of arithmetic after a
non-NULL left side, a CASE's WHENs and THENs, an IN list's later items, a
LIKE pattern or an IN subquery after a non-NULL operand — that operand runs
only on the row subset still undecided (:func:`_masked`).  That is what
makes the paper's rewritten queries cheap: the original filter predicate is
evaluated before the appended ``compliesWith`` conjuncts, so filtered-out
tuples never pay a policy check (Section 6.3's analysis of Figure 6 depends
on this behaviour), however the rows happen to be paged.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

from ..errors import (
    AmbiguousColumnError,
    CatalogError,
    ExecutionError,
    ExpressionError,
    TypeMismatchError,
)
from ..sql import ast
from ..sql.printer import print_expression
from .aggregates import is_aggregate_name
from .batch import ColumnBatch
from .schema import RowShape
from .types import BitString, SqlType, compare_guard, comparable


class Env:
    """Per-evaluation environment: outer rows, parameters, caches, trace.

    ``params`` maps parameter keys (1-based ints for positional/numbered
    placeholders, lower-cased strings for named ones) to bound values; it is
    threaded unchanged into subquery environments so one prepared plan can be
    executed under many bindings.

    ``subq`` is the per-execution cache of uncorrelated-subquery results,
    keyed by plan identity.  It lives on the environment — not on the plan —
    so a single prepared plan can run on many threads at once without the
    executions seeing (or clobbering) each other's cached results.

    ``trace`` is the execution's :class:`~repro.obs.tracing.Trace` (or
    ``None``, the default and the fast path): when present, plan nodes
    report per-node row counts into it for EXPLAIN ANALYZE.  Like ``params``
    it is owned by one execution on one thread, so threading it into
    subquery environments shares no state across executions; so does
    ``costs``, the execution's cost ledger (``None``: outside any execution).
    """

    __slots__ = ("outer_row", "outer_env", "params", "subq", "trace", "costs")

    def __init__(
        self,
        outer_row: tuple | None = None,
        outer_env: "Env | None" = None,
        params: "dict[int | str, object] | None" = None,
        subq: "dict[int, list[tuple]] | None" = None,
        trace=None,
        costs=None,
    ):
        self.outer_row = outer_row
        self.outer_env = outer_env
        self.params = params
        self.subq = subq
        self.trace = trace
        self.costs = costs


#: A compiled expression: one value per row of the input batch.
BatchExpr = Callable[[ColumnBatch, Env], Sequence]

#: The source name of the extra columns an aggregated block's group batch
#: carries: one per aggregate call, named by its :func:`aggregate_key`.  No
#: FROM binding can be called this, so only an aggregate call resolves there.
AGGREGATE_SOURCE = "<aggregate>"


class Scope:
    """A lexical scope: the row shape of a query block plus its parent.

    ``depth`` 0 is the innermost block.  Column resolution walks outward,
    which is how correlated subqueries see their enclosing query's columns.
    """

    def __init__(self, shape: RowShape, parent: "Scope | None" = None):
        self.shape = shape
        self.parent = parent

    def resolve(self, name: str, table: str | None) -> tuple[int, int]:
        """Return ``(depth, index)`` for a column reference.

        Depth 0 means the current block's row; depth *k* means the row of the
        *k*-th enclosing block (reached through ``env.outer_*``).  An
        *ambiguous* reference in an inner block must not silently bind to an
        enclosing block, so only unknown-column failures walk outward.
        """
        scope: Scope | None = self
        depth = 0
        while scope is not None:
            try:
                binding = scope.shape.resolve(name, table)
            except AmbiguousColumnError:
                raise
            except CatalogError:
                scope = scope.parent
                depth += 1
                continue
            return depth, binding.index
        qualified = f"{table}.{name}" if table else name
        raise ExpressionError(f"unknown column {qualified!r}")


class ExpressionCompiler:
    """Compiles AST expressions against a scope into batch evaluators.

    Args:
        scope: Lexical scope used to resolve column references.
        registry: Scalar-function registry (for :class:`ast.FunctionCall`).
        executor: The :class:`~repro.engine.executor.SelectExecutor` that
            plans nested SELECTs; ``None`` where subqueries are not allowed.
    """

    def __init__(self, scope: Scope, registry, executor=None):
        self.scope = scope
        self.registry = registry
        self.executor = executor

    # -- entry point -------------------------------------------------------------

    def compile(self, expr: ast.Expression) -> BatchExpr:
        """Compile ``expr`` to an evaluator ``fn(batch, env) -> list``."""
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise ExpressionError(f"cannot compile {type(expr).__name__}")
        return method(expr)

    # -- leaves ----------------------------------------------------------------

    def _compile_Literal(self, expr: ast.Literal) -> BatchExpr:
        value = expr.value
        return lambda batch, env: [value] * batch.length

    def _compile_BitStringLiteral(self, expr: ast.BitStringLiteral) -> BatchExpr:
        value = BitString.from_bits(expr.bits)
        return lambda batch, env: [value] * batch.length

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> BatchExpr:
        depth, index = self.scope.resolve(expr.name, expr.table)
        if depth == 0:
            return lambda batch, env: batch.columns[index]

        # An outer reference is constant within one execution of this block.
        def outer_ref(batch: ColumnBatch, env: Env) -> list:
            if not batch.length:
                return []
            current = env
            for _ in range(depth - 1):
                if current.outer_env is None:
                    raise ExecutionError("correlated reference without outer row")
                current = current.outer_env
            if current.outer_row is None:
                raise ExecutionError("correlated reference without outer row")
            return [current.outer_row[index]] * batch.length

        return outer_ref

    def _compile_Parameter(self, expr: ast.Parameter) -> BatchExpr:
        key = expr.key
        placeholder = expr.placeholder

        def parameter(batch: ColumnBatch, env: Env) -> list:
            if not batch.length:
                return []
            if env.params is None:
                raise ExecutionError(
                    f"no parameters bound (placeholder {placeholder})"
                )
            try:
                value = env.params[key]
            except KeyError:
                raise ExecutionError(
                    f"no value bound for parameter {placeholder}"
                ) from None
            return [value] * batch.length

        return parameter

    def _compile_Star(self, expr: ast.Star) -> BatchExpr:
        raise ExpressionError("'*' is only valid in a select list or count(*)")

    # -- operators --------------------------------------------------------------

    def _compile_UnaryOp(self, expr: ast.UnaryOp) -> BatchExpr:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            # Predicate operands produce real bools; `not v` short-cuts the
            # _as_bool type check for them without changing its errors.
            return lambda batch, env: [
                None
                if v is None
                else (not v)
                if v.__class__ is bool
                else (not _as_bool(v))
                for v in operand(batch, env)
            ]
        if expr.op == "-":
            return lambda batch, env: [
                None if v is None else -_number(v) for v in operand(batch, env)
            ]
        if expr.op == "+":
            return operand
        raise ExpressionError(f"unknown unary operator {expr.op!r}")

    def _compile_BinaryOp(self, expr: ast.BinaryOp) -> BatchExpr:
        if expr.op == "AND":
            return self._kleene(expr, decisive=False)
        if expr.op == "OR":
            return self._kleene(expr, decisive=True)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        const = _constant_operand(expr.right)
        if expr.op in _COMPARATORS:
            if const is not _NO_CONST:
                return _comparison_const(left, expr.op, const)
            return _null_propagating(left, right, _COMPARATORS[expr.op])
        if expr.op in _ARITHMETIC:
            if const is not _NO_CONST:
                return _arithmetic_const(left, expr.op, const)
            return _null_propagating(left, right, _ARITHMETIC[expr.op])
        if expr.op == "||":

            def concat(batch: ColumnBatch, env: Env) -> list:
                lhs = left(batch, env)
                rhs = right(batch, env)
                out: list = [None] * len(lhs)
                for i, (l, r) in enumerate(zip(lhs, rhs)):
                    if l is None or r is None:
                        continue
                    if isinstance(l, BitString) and isinstance(r, BitString):
                        out[i] = l + r
                    else:
                        out[i] = _text(l) + _text(r)
                return out

            return concat
        raise ExpressionError(f"unknown binary operator {expr.op!r}")

    def _kleene(self, expr: ast.BinaryOp, decisive: bool) -> BatchExpr:
        """Kleene ``AND`` (``decisive`` False) or ``OR`` (True): the right
        operand runs only on the rows the left one did not decide."""
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        def connective(batch: ColumnBatch, env: Env) -> list:
            lhs = left(batch, env)
            out: list = [None] * len(lhs)
            undecided = []
            for i, v in enumerate(lhs):
                if v is not None and _as_bool(v) is decisive:
                    out[i] = decisive
                else:
                    undecided.append(i)
            for i, r in zip(undecided, _masked(right, batch, env, undecided)):
                if r is not None and _as_bool(r) is decisive:
                    out[i] = decisive
                elif lhs[i] is not None and r is not None:
                    out[i] = not decisive
            return out

        return connective

    # -- predicates --------------------------------------------------------------

    def _compile_IsNull(self, expr: ast.IsNull) -> BatchExpr:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda batch, env: [
                v is not None for v in operand(batch, env)
            ]
        return lambda batch, env: [v is None for v in operand(batch, env)]

    def _compile_Between(self, expr: ast.Between) -> BatchExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(batch: ColumnBatch, env: Env) -> list:
            # All three operands are evaluated on every row, NULL or not.
            values = operand(batch, env)
            lows = low(batch, env)
            highs = high(batch, env)
            out: list = [None] * len(values)
            for i, (v, lo, hi) in enumerate(zip(values, lows, highs)):
                if v is None or lo is None or hi is None:
                    continue
                result = comparable(lo) <= comparable(v) <= comparable(hi)
                out[i] = (not result) if negated else result
            return out

        return between

    def _compile_Like(self, expr: ast.Like) -> BatchExpr:
        operand = self.compile(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal):
            return _like_literal(operand, expr.pattern.value, negated)
        pattern = self.compile(expr.pattern)

        def like(batch: ColumnBatch, env: Env) -> list:
            values = operand(batch, env)
            out: list = [None] * len(values)
            present = [i for i, v in enumerate(values) if v is not None]
            for i, p in zip(present, _masked(pattern, batch, env, present)):
                if p is not None:
                    matched = _like_regex(_text(p)).match(_text(values[i]))
                    out[i] = (matched is None) if negated else (matched is not None)
            return out

        return like

    def _compile_InList(self, expr: ast.InList) -> BatchExpr:
        operand = self.compile(expr.operand)
        negated = expr.negated
        if all(isinstance(item, ast.Literal) for item in expr.items):
            members = _membership([item.value for item in expr.items], negated)
            return lambda batch, env: members(operand(batch, env))
        items = [self.compile(item) for item in expr.items]

        def in_list(batch: ColumnBatch, env: Env) -> list:
            # x IN (a, b) is x = a OR x = b: each item runs only on the rows
            # no earlier item matched.
            values = operand(batch, env)
            out: list = [None] * len(values)
            undecided = [i for i, v in enumerate(values) if v is not None]
            unknown: set[int] = set()
            for item in items:
                missed = []
                for i, c in zip(undecided, _masked(item, batch, env, undecided)):
                    if c is None:
                        unknown.add(i)
                        missed.append(i)
                    elif _sql_equals(values[i], c):
                        out[i] = not negated
                    else:
                        missed.append(i)
                undecided = missed
            for i in undecided:
                if i not in unknown:
                    out[i] = negated
            return out

        return in_list

    def _compile_InSubquery(self, expr: ast.InSubquery) -> BatchExpr:
        operand = self.compile(expr.operand)
        prepared = self._plan_subquery(expr.subquery)
        negated = expr.negated

        def in_subquery(batch: ColumnBatch, env: Env) -> list:
            values = operand(batch, env)
            out: list = [None] * len(values)
            present = [i for i, v in enumerate(values) if v is not None]
            if not present:
                return out  # a NULL operand never runs the subquery
            if not prepared.correlated:  # one membership set per execution
                memo = {} if env.subq is None else env.subq
                key = (id(prepared), negated)  # beside the rows, at id(prepared)
                if key not in memo:
                    rows = prepared.rows(_inner_env(env))
                    memo[key] = _membership([row[0] for row in rows], negated)
                return memo[key](values)
            results = _subquery_results(prepared, batch.take(present), env)
            for i, rows in zip(present, results):
                out[i] = _member(values[i], [row[0] for row in rows], negated)
            return out

        return in_subquery

    def _compile_Exists(self, expr: ast.Exists) -> BatchExpr:
        prepared = self._plan_subquery(expr.subquery)
        negated = expr.negated
        return lambda batch, env: [
            bool(rows) is not negated
            for rows in _subquery_results(prepared, batch, env)
        ]

    def _compile_ScalarSubquery(self, expr: ast.ScalarSubquery) -> BatchExpr:
        prepared = self._plan_subquery(expr.subquery)
        return lambda batch, env: [
            _scalar(rows) for rows in _subquery_results(prepared, batch, env)
        ]

    def _plan_subquery(self, select: ast.Select):
        if self.executor is None:
            raise ExpressionError("subqueries are not allowed in this context")
        return self.executor.prepare_block(select, self.scope)

    # -- calls ------------------------------------------------------------------------

    def _compile_FunctionCall(self, expr: ast.FunctionCall) -> BatchExpr:
        if is_aggregate_name(expr.name):
            return self._aggregate_column(expr)
        registry = self.registry
        name = expr.name
        args = [self.compile(arg) for arg in expr.args]
        constant = tuple(isinstance(arg, _CONSTANTS) for arg in expr.args)

        def call(batch: ColumnBatch, env: Env) -> list:
            # Arguments are evaluated on every row; call_batch applies
            # strictness and charges invocations (complieswith accounting).
            columns = [arg(batch, env) for arg in args]
            return registry.call_batch(name, columns, batch.length, env.costs, constant)

        return call

    def _aggregate_column(self, expr: ast.FunctionCall) -> BatchExpr:
        """An aggregate call reads its column of the group batch."""
        key = aggregate_key(expr)
        for binding in self.scope.shape.bindings:
            if binding.source == AGGREGATE_SOURCE and binding.name == key:
                index = binding.index
                return lambda batch, env: batch.columns[index]
        raise ExpressionError(
            f"aggregate {expr.name}() is not allowed in this clause"
        )

    def _compile_Cast(self, expr: ast.Cast) -> BatchExpr:
        operand = self.compile(expr.operand)
        target = SqlType.from_name(expr.type_name)
        return lambda batch, env: [
            _cast_value(v, target) for v in operand(batch, env)
        ]

    def _compile_CaseWhen(self, expr: ast.CaseWhen) -> BatchExpr:
        subject = self.compile(expr.operand) if expr.operand is not None else None
        whens = [
            (self.compile(condition), self.compile(result))
            for condition, result in expr.whens
        ]
        else_result = (
            self.compile(expr.else_result) if expr.else_result is not None else None
        )

        def case(batch: ColumnBatch, env: Env) -> list:
            out: list = [None] * batch.length
            subjects = subject(batch, env) if subject is not None else None
            undecided = list(range(batch.length))
            # Each WHEN runs on the rows no earlier WHEN decided, each THEN
            # (and the ELSE) only on the rows it answers.
            for condition, result in whens:
                if not undecided:
                    break
                verdicts = _masked(condition, batch, env, undecided)
                if subjects is None:
                    hits = [v is not None and _as_bool(v) for v in verdicts]
                else:  # CASE x WHEN v: x = v
                    hits = [
                        v is not None
                        and subjects[i] is not None
                        and _sql_equals(subjects[i], v)
                        for i, v in zip(undecided, verdicts)
                    ]
                chosen = [i for i, hit in zip(undecided, hits) if hit]
                undecided = [i for i, hit in zip(undecided, hits) if not hit]
                for i, value in zip(chosen, _masked(result, batch, env, chosen)):
                    out[i] = value
            if else_result is not None:
                for i, value in zip(
                    undecided, _masked(else_result, batch, env, undecided)
                ):
                    out[i] = value
            return out

        return case


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def evaluate_constant(expression: ast.Expression, registry, costs=None) -> object:
    """Evaluate a row-independent expression — an INSERT value, a column
    default, a literal subtree the optimizer folds — as a zero-width batch
    of one row, so its value matches runtime evaluation bit for bit."""
    compiled = ExpressionCompiler(Scope(RowShape([])), registry).compile(expression)
    return compiled(ColumnBatch([], 1), Env(costs=costs))[0]


def aggregate_key(call: ast.FunctionCall) -> str:
    """Canonical text key used to deduplicate aggregate calls within a query."""
    return print_expression(call)


def _masked(
    fn: BatchExpr, batch: ColumnBatch, env: Env, indices: list[int]
) -> Sequence:
    """``fn`` evaluated on the rows at ascending ``indices`` only: one value
    per index.

    Rows an earlier operand already decided never reach ``fn``, so
    data-dependent errors and UDF invocation counts are those of a
    row-at-a-time short circuit.
    """
    if len(indices) == batch.length:
        return fn(batch, env)
    if not indices:
        return []
    return fn(batch.take(indices), env)


def _null_propagating(
    left: BatchExpr, right: BatchExpr, operate: Callable[[object, object], object]
) -> BatchExpr:
    """A binary operator that is NULL when either side is: the right operand
    runs only on the rows whose left value is not NULL."""

    def binary(batch: ColumnBatch, env: Env) -> list:
        lhs = left(batch, env)
        out: list = [None] * len(lhs)
        present = [i for i, v in enumerate(lhs) if v is not None]
        for i, r in zip(present, _masked(right, batch, env, present)):
            if r is not None:
                out[i] = operate(lhs[i], r)
        return out

    return binary


def _inner_env(env: Env, outer_row: tuple | None = None) -> Env:
    """The environment a nested SELECT runs in below ``env``."""
    return Env(
        outer_row=outer_row,
        outer_env=env,
        params=env.params,
        subq=env.subq,
        trace=env.trace,
        costs=env.costs,
    )


def _subquery_results(prepared, batch: ColumnBatch, env: Env) -> list:
    """A nested SELECT's result rows for each row of ``batch``.

    A correlated SELECT runs once per row, with that row as its outer row;
    an uncorrelated one runs once (its result is cached per execution in
    ``env.subq``) and every row shares it.
    """
    if not batch.length:
        return []
    if prepared.correlated:
        return [prepared.rows(_inner_env(env, row)) for row in batch.to_rows()]
    return [prepared.rows(_inner_env(env))] * batch.length


def _scalar(rows: list[tuple]) -> object:
    if not rows:
        return None
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    return rows[0][0]


def _member(value: object, candidates: list, negated: bool) -> object:
    """``value IN (candidates)`` as ``value = c1 OR value = c2 OR …``: the
    first match wins, and a NULL candidate turns a miss into unknown."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif _sql_equals(value, candidate):
            return not negated
    return None if saw_null else negated


def _membership(candidates: list, negated: bool) -> Callable[[Sequence], list]:
    """:func:`_member` over a fixed candidate list, for a column of values
    (NULL in, NULL out).

    A value of the one kind every non-NULL candidate shares is answered by a
    set lookup: no comparison can raise, so any match is the first match.
    Any other value walks the candidates, raising ``=``'s type error.
    """
    present = [c for c in candidates if c is not None]
    kinds = {_kind(c) for c in present}
    if len(kinds) != 1:
        return lambda values: [
            None if v is None else _member(v, candidates, negated) for v in values
        ]
    (kind,) = kinds
    classes = (int, float) if kind is float else (kind,)
    members = set(present)
    hit = not negated
    miss = None if len(present) < len(candidates) else negated
    return lambda values: [
        None
        if v is None
        else (hit if v in members else miss)
        if v.__class__ in classes
        else _member(v, candidates, negated)
        for v in values
    ]


def _kind(value: object) -> type:
    """What ``=`` compares a value as: every number alike, else its type."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float
    return type(value)


def _like_literal(operand: BatchExpr, pattern: object, negated: bool) -> BatchExpr:
    """LIKE against a literal pattern: one regex for the whole batch, or
    over an all-text page one ``map`` of ``==`` (a pattern without ``%`` or
    ``_``) or ``str.startswith`` (one trailing ``%``, no ``_``)."""
    test = None
    if pattern.__class__ is str and "_" not in pattern:
        if "%" not in pattern:
            test, needle = operator.eq, pattern
        elif pattern.find("%") == len(pattern) - 1:
            test, needle = str.startswith, pattern[:-1]

    def like(batch: ColumnBatch, env: Env) -> list:
        values = operand(batch, env)
        if test is not None and {str}.issuperset(map(type, values)):
            matched = map(test, values, repeat(needle))
            return list(map(operator.not_, matched) if negated else matched)
        if pattern is None:
            return [None] * len(values)
        out: list = [None] * len(values)
        regex = None
        for i, v in enumerate(values):
            if v is None:
                continue
            if regex is None:
                # Compiled on the first present row, not at build time, so a
                # non-text pattern raises only when a row reaches it.
                regex = _like_regex(_text(pattern))
            matched = regex.match(v if v.__class__ is str else _text(v)) is not None
            out[i] = (not matched) if negated else matched
        return out

    return like


#: Sentinel distinguishing "no constant operand" from a NULL literal.
_NO_CONST = object()

#: Leaves that evaluate to one object repeated on every row of a batch.
_CONSTANTS = (ast.Literal, ast.BitStringLiteral, ast.Parameter)


def _constant_operand(expr: ast.Expression) -> object:
    """The Python value of a literal operand, or ``_NO_CONST``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.BitStringLiteral):
        return BitString.from_bits(expr.bits)
    return _NO_CONST


def _comparison_const(left: BatchExpr, op: str, const: object) -> BatchExpr:
    """Comparison against a literal: one raw operator ``map`` per page.

    The literal is side-effect-free, so skipping masked evaluation of the
    right operand cannot change UDF counts or error order.  A page whose
    values all share the constant's class (any number, for a number) takes
    the unguarded operator; any other page (a NULL, a ``bool``, a mismatch)
    goes row by row, a mismatch through the guarded comparator for its
    exact ``TypeMismatchError``.
    """
    if const is None:
        # NULL literal: the result is NULL for every row, but the left
        # operand is still evaluated (it may carry counted UDF calls).
        return lambda batch, env: [None] * len(left(batch, env))
    raw = _RAW_COMPARE[op]
    compare = _COMPARATORS[op]
    fast = {int, float} if const.__class__ in (int, float) else {const.__class__}

    def comparison(batch: ColumnBatch, env: Env) -> list:
        values = left(batch, env)
        if fast.issuperset(map(type, values)):
            return list(map(raw, values, repeat(const)))
        return [
            None
            if v is None
            else raw(v, const)
            if v.__class__ in fast
            else compare(v, const)
            for v in values
        ]

    return comparison


def _arithmetic_const(left: BatchExpr, op: str, const: object) -> BatchExpr:
    """Arithmetic with a literal operand, mirroring the comparison path."""
    operate = _ARITHMETIC[op]
    if const is None:
        return lambda batch, env: [None] * len(left(batch, env))
    if const.__class__ is int or const.__class__ is float:
        raw = _RAW_ARITH[op]
        return lambda batch, env: [
            None
            if v is None
            else raw(v, const)
            if v.__class__ is int or v.__class__ is float
            else operate(v, const)
            for v in left(batch, env)
        ]
    # Non-numeric literal: every present row fails; operate() checks the
    # left value first.
    return lambda batch, env: [
        None if v is None else operate(v, const) for v in left(batch, env)
    ]


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------


def _as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeMismatchError(f"expected a boolean, got {value!r}")


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"expected a number, got {value!r}")
    return value


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeMismatchError(f"expected text, got {value!r}")
    return value


def _cmp(op: Callable[[object, object], bool]) -> Callable[[object, object], bool]:
    def compare(left: object, right: object) -> bool:
        compare_guard(comparable(left), comparable(right))
        return op(left, right)

    return compare


_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": _cmp(operator.eq),
    "<>": _cmp(operator.ne),
    "<": _cmp(operator.lt),
    "<=": _cmp(operator.le),
    ">": _cmp(operator.gt),
    ">=": _cmp(operator.ge),
}

#: ``=`` on two non-NULL values, type rule included: also what IN lists, IN
#: subqueries and simple CASE match with.
_sql_equals = _COMPARATORS["="]

#: Unguarded operator implementations for the constant-operand fast path.
#: Applied only after the element's type has been checked against the
#: constant's, so the type guards in ``_COMPARATORS``/``_ARITHMETIC`` are
#: provably redundant on this path.  ``repro.fuzz.inject``'s ``ge-as-gt``
#: patches this table.
_RAW_COMPARE: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _int_div(a: float, b: float) -> float | int:
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # SQL integer division truncates toward zero.
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def _mod(a: float, b: float) -> float | int:
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        remainder = abs(a) % abs(b)
        return remainder if a >= 0 else -remainder
    return a % b


_RAW_ARITH: dict[str, Callable[[float, float], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _int_div,
    "%": _mod,
}


def _arith(op: Callable[[float, float], object]) -> Callable[[object, object], object]:
    def operate(left: object, right: object) -> object:
        return op(_number(left), _number(right))

    return operate


_ARITHMETIC: dict[str, Callable[[object, object], object]] = {
    symbol: _arith(op) for symbol, op in _RAW_ARITH.items()
}


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


def _cast_value(value: object, target: SqlType) -> object:
    if value is None:
        return None
    try:
        if target is SqlType.INTEGER or target is SqlType.TIMESTAMP:
            if isinstance(value, str):
                return int(value.strip())
            if isinstance(value, bool):
                return int(value)
            return int(value)
        if target is SqlType.DOUBLE:
            if isinstance(value, str):
                return float(value.strip())
            return float(value)
        if target is SqlType.TEXT:
            if isinstance(value, BitString):
                return value.bits()
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)
        if target is SqlType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("t", "true", "1", "yes"):
                    return True
                if lowered in ("f", "false", "0", "no"):
                    return False
            raise ValueError(value)
        if target is SqlType.BIT_VARYING:
            if isinstance(value, BitString):
                return value
            if isinstance(value, str):
                return BitString.from_bits(value)
            raise ValueError(value)
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(
            f"cannot cast {value!r} to {target.value}"
        ) from exc
    raise TypeMismatchError(f"unsupported cast target {target.value}")
