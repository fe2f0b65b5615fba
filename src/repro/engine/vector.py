"""Vectorized expression evaluation over :class:`~repro.engine.batch.ColumnBatch`.

A :class:`VectorCompiler` turns an AST expression into a batch evaluator
``fn(batch, env) -> list`` producing one value per row.  The fast path
evaluates column-at-a-time; any node the compiler does not vectorize —
subqueries, CASE, aggregate references — falls back to the row-at-a-time
closure from :class:`~repro.engine.expressions.ExpressionCompiler` applied
over the batch's materialized tuples, so vectorizing never changes what an
expression *means*, only how many Python frames it costs.

Short-circuit semantics are preserved by **masked evaluation**: for
``AND``/``OR``, comparisons and arithmetic, the right operand is evaluated
only on the row subset the left operand did not already decide — exactly
the rows the row-at-a-time Kleene closures would have evaluated it on.
That is not a stylistic point: a residual ``complieswith`` conjunct behind
``a > 5 AND complieswith(...)`` must invoke the UDF only for rows passing
``a > 5``, or the Figure-6 check counts would depend on whether an
expression took the vectorized path or the row closures.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from ..sql import ast
from .batch import ColumnBatch
from .expressions import (
    CompiledExpr,
    Env,
    ExpressionCompiler,
    _ARITHMETIC,
    _COMPARATORS,
    _as_bool,
    _cast_value,
    _comparable,
    _int_div,
    _like_regex,
    _mod,
    _number,
    _text,
)
from .types import BitString, SqlType

#: Unguarded operator implementations for the constant-operand fast path.
#: Applied only after the element's type has been checked against the
#: constant's, so the type guards in ``_COMPARATORS``/``_ARITHMETIC`` are
#: provably redundant on this path.
_RAW_COMPARE: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_RAW_ARITH: dict[str, Callable[[float, float], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _int_div,
    "%": _mod,
}

#: Sentinel distinguishing "no constant operand" from a NULL literal.
_NO_CONST = object()


def _constant_operand(expr: ast.Expression) -> object:
    """The Python value of a literal operand, or ``_NO_CONST``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.BitStringLiteral):
        return BitString.from_bits(expr.bits)
    return _NO_CONST

#: A batch evaluator: one value per row of the input batch.
VectorExpr = Callable[[ColumnBatch, Env], Sequence]


class VectorCompiler:
    """Compiles AST expressions into batch evaluators.

    Wraps a row-at-a-time :class:`ExpressionCompiler` (same scope, same
    registry, same subquery planner) for the fallback path; the two
    compilers therefore agree on name resolution, correlation tracking and
    error reporting.
    """

    def __init__(self, row_compiler: ExpressionCompiler):
        self.rows = row_compiler
        self.registry = row_compiler.registry

    # -- entry points -----------------------------------------------------------

    def compile(self, expr: ast.Expression) -> VectorExpr:
        """Compile ``expr``; vectorized when possible, row fallback otherwise."""
        vector = self._vector(expr)
        if vector is not None:
            return vector
        return self._fallback(expr)

    def vectorizes(self, expr: ast.Expression) -> bool:
        """True when ``expr`` compiles to the columnar fast path."""
        return self._vector(expr) is not None

    def _fallback(self, expr: ast.Expression) -> VectorExpr:
        """Per-row evaluation of the row closure over materialized tuples."""
        closure = self.rows.compile(expr)

        def rowwise(batch: ColumnBatch, env: Env) -> list:
            return [closure(row, env) for row in batch.iter_rows()]

        return rowwise

    # -- dispatch --------------------------------------------------------------

    def _vector(self, expr: ast.Expression) -> VectorExpr | None:
        method = getattr(self, f"_vector_{type(expr).__name__}", None)
        if method is None:
            return None
        return method(expr)

    # -- leaves ----------------------------------------------------------------

    def _vector_Literal(self, expr: ast.Literal) -> VectorExpr:
        value = expr.value
        return lambda batch, env: [value] * batch.length

    def _vector_BitStringLiteral(self, expr: ast.BitStringLiteral) -> VectorExpr:
        value = BitString.from_bits(expr.bits)
        return lambda batch, env: [value] * batch.length

    def _vector_ColumnRef(self, expr: ast.ColumnRef) -> VectorExpr:
        depth, index = self.rows.scope.resolve(expr.name, expr.table)
        if depth == 0:
            return lambda batch, env: batch.columns[index]
        # Outer references are constant within one execution of this block:
        # evaluate the row closure once (it ignores its row argument) and
        # broadcast.
        return self._broadcast(self.rows.compile(expr))

    def _vector_Parameter(self, expr: ast.Parameter) -> VectorExpr:
        return self._broadcast(self.rows.compile(expr))

    @staticmethod
    def _broadcast(closure: CompiledExpr) -> VectorExpr:
        def broadcast(batch: ColumnBatch, env: Env) -> list:
            if batch.length == 0:
                return []
            return [closure((), env)] * batch.length

        return broadcast

    # -- operators --------------------------------------------------------------

    def _vector_UnaryOp(self, expr: ast.UnaryOp) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None:
            return None
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
        return None

    def _vector_BinaryOp(self, expr: ast.BinaryOp) -> VectorExpr | None:
        if expr.op == "AND":
            return self._vector_and(expr)
        if expr.op == "OR":
            return self._vector_or(expr)
        left = self._vector(expr.left)
        right = self._vector(expr.right)
        if left is None or right is None:
            return None
        if expr.op in _COMPARATORS:
            const = _constant_operand(expr.right)
            if const is not _NO_CONST:
                return self._comparison_const(left, expr.op, const)
            compare = _COMPARATORS[expr.op]

            def comparison(batch: ColumnBatch, env: Env) -> list:
                lhs = left(batch, env)
                present = [i for i, v in enumerate(lhs) if v is not None]
                rhs = _masked(right, batch, env, present, len(lhs))
                out: list = [None] * len(lhs)
                for i in present:
                    r = rhs[i]
                    if r is not None:
                        out[i] = compare(_comparable(lhs[i]), _comparable(r))
                return out

            return comparison
        if expr.op in _ARITHMETIC:
            const = _constant_operand(expr.right)
            if const is not _NO_CONST:
                return self._arithmetic_const(left, expr.op, const)
            operate = _ARITHMETIC[expr.op]

            def arithmetic(batch: ColumnBatch, env: Env) -> list:
                lhs = left(batch, env)
                present = [i for i, v in enumerate(lhs) if v is not None]
                rhs = _masked(right, batch, env, present, len(lhs))
                out: list = [None] * len(lhs)
                for i in present:
                    r = rhs[i]
                    if r is not None:
                        out[i] = operate(lhs[i], r)
                return out

            return arithmetic
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
        return None

    @staticmethod
    def _comparison_const(left: VectorExpr, op: str, const: object) -> VectorExpr:
        """Comparison against a literal: one raw operator call per row.

        The literal is side-effect-free, so skipping masked evaluation of
        the right operand cannot change UDF counts or error order.  Rows
        whose type matches the constant's take the unguarded operator; any
        mismatch drops to the guarded comparator for the exact
        ``TypeMismatchError`` the row closure would raise.
        """
        if const is None:
            # NULL literal: the result is NULL for every row, but the left
            # operand is still evaluated (it may carry counted UDF calls).
            return lambda batch, env: [None] * len(left(batch, env))
        raw = _RAW_COMPARE[op]
        compare = _COMPARATORS[op]
        if const.__class__ is int or const.__class__ is float:

            def compare_numeric(batch: ColumnBatch, env: Env) -> list:
                return [
                    None
                    if v is None
                    else raw(v, const)
                    if v.__class__ is int or v.__class__ is float
                    else compare(_comparable(v), const)
                    for v in left(batch, env)
                ]

            return compare_numeric
        fast_type = const.__class__

        def compare_typed(batch: ColumnBatch, env: Env) -> list:
            return [
                None
                if v is None
                else raw(v, const)
                if v.__class__ is fast_type
                else compare(_comparable(v), const)
                for v in left(batch, env)
            ]

        return compare_typed

    @staticmethod
    def _arithmetic_const(left: VectorExpr, op: str, const: object) -> VectorExpr:
        """Arithmetic with a literal operand, mirroring the comparison path."""
        operate = _ARITHMETIC[op]
        if const is None:
            return lambda batch, env: [None] * len(left(batch, env))
        if const.__class__ is int or const.__class__ is float:
            raw = _RAW_ARITH[op]

            def arith_numeric(batch: ColumnBatch, env: Env) -> list:
                return [
                    None
                    if v is None
                    else raw(v, const)
                    if v.__class__ is int or v.__class__ is float
                    else operate(v, const)
                    for v in left(batch, env)
                ]

            return arith_numeric

        # Non-numeric literal: every present row fails; operate() checks the
        # left value first, preserving the row closure's error order.
        def arith_bad(batch: ColumnBatch, env: Env) -> list:
            return [
                None if v is None else operate(v, const)
                for v in left(batch, env)
            ]

        return arith_bad

    def _vector_and(self, expr: ast.BinaryOp) -> VectorExpr | None:
        left = self._vector(expr.left)
        right = self._vector(expr.right)
        if left is None or right is None:
            return None

        def kleene_and(batch: ColumnBatch, env: Env) -> list:
            lhs = left(batch, env)
            out: list = [None] * len(lhs)
            undecided = []
            for i, v in enumerate(lhs):
                if v is not None and not _as_bool(v):
                    out[i] = False
                else:
                    undecided.append(i)
            rhs = _masked(right, batch, env, undecided, len(lhs))
            for i in undecided:
                r = rhs[i]
                if r is not None and not _as_bool(r):
                    out[i] = False
                elif lhs[i] is None or r is None:
                    out[i] = None
                else:
                    out[i] = True
            return out

        return kleene_and

    def _vector_or(self, expr: ast.BinaryOp) -> VectorExpr | None:
        left = self._vector(expr.left)
        right = self._vector(expr.right)
        if left is None or right is None:
            return None

        def kleene_or(batch: ColumnBatch, env: Env) -> list:
            lhs = left(batch, env)
            out: list = [None] * len(lhs)
            undecided = []
            for i, v in enumerate(lhs):
                if v is not None and _as_bool(v):
                    out[i] = True
                else:
                    undecided.append(i)
            rhs = _masked(right, batch, env, undecided, len(lhs))
            for i in undecided:
                r = rhs[i]
                if r is not None and _as_bool(r):
                    out[i] = True
                elif lhs[i] is None or r is None:
                    out[i] = None
                else:
                    out[i] = False
            return out

        return kleene_or

    # -- predicates --------------------------------------------------------------

    def _vector_IsNull(self, expr: ast.IsNull) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None:
            return None
        if expr.negated:
            return lambda batch, env: [
                v is not None for v in operand(batch, env)
            ]
        return lambda batch, env: [v is None for v in operand(batch, env)]

    def _vector_Between(self, expr: ast.Between) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        low = self._vector(expr.low)
        high = self._vector(expr.high)
        if operand is None or low is None or high is None:
            return None
        negated = expr.negated

        def between(batch: ColumnBatch, env: Env) -> list:
            # The row closure evaluates all three operands unconditionally,
            # so full (unmasked) evaluation preserves its semantics.
            values = operand(batch, env)
            lows = low(batch, env)
            highs = high(batch, env)
            out: list = [None] * len(values)
            for i, (v, lo, hi) in enumerate(zip(values, lows, highs)):
                if v is None or lo is None or hi is None:
                    continue
                result = _comparable(lo) <= _comparable(v) <= _comparable(hi)
                out[i] = (not result) if negated else result
            return out

        return between

    def _vector_Like(self, expr: ast.Like) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None or not isinstance(expr.pattern, ast.Literal):
            return None
        pattern_value = expr.pattern.value
        negated = expr.negated

        def like(batch: ColumnBatch, env: Env) -> list:
            values = operand(batch, env)
            if pattern_value is None:
                return [None] * len(values)
            out: list = [None] * len(values)
            regex = None
            for i, v in enumerate(values):
                if v is None:
                    continue
                if regex is None:
                    # Compiled on the first present row, not at build time,
                    # so a non-text pattern raises exactly when (and only
                    # when) the row closure would have.
                    regex = _like_regex(_text(pattern_value))
                matched = (
                    regex.match(v if v.__class__ is str else _text(v))
                    is not None
                )
                out[i] = (not matched) if negated else matched
            return out

        return like

    def _vector_InList(self, expr: ast.InList) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None or not all(
            isinstance(item, ast.Literal) for item in expr.items
        ):
            return None
        candidates = [item.value for item in expr.items]
        negated = expr.negated

        def in_list(batch: ColumnBatch, env: Env) -> list:
            out: list = [None] * batch.length
            for i, value in enumerate(operand(batch, env)):
                if value is None:
                    continue
                saw_null = False
                matched = False
                for candidate in candidates:
                    if candidate is None:
                        saw_null = True
                    elif candidate == value:
                        matched = True
                        break
                if matched:
                    out[i] = not negated
                elif not saw_null:
                    out[i] = negated
            return out

        return in_list

    def _vector_InSubquery(self, expr: ast.InSubquery) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None:
            return None
        prepared = self.rows._plan_subquery(expr.subquery)
        if prepared.correlated:
            return None  # per-row environments: stay on the row path
        negated = expr.negated

        def in_subquery(batch: ColumnBatch, env: Env) -> list:
            values = operand(batch, env)
            out: list = [None] * len(values)
            if all(v is None for v in values):
                # The row closure never executes the subquery when every
                # probe value is NULL; neither do we (same check counts).
                return out
            inner_env = Env(
                outer_env=env, params=env.params,
                subq=env.subq, trace=env.trace,
            )
            candidates = [row[0] for row in prepared.rows(inner_env)]
            saw_null = None in candidates
            members = set(candidates)
            for i, value in enumerate(values):
                if value is None:
                    continue
                if value in members:
                    out[i] = not negated
                elif not saw_null:
                    out[i] = negated
            return out

        return in_subquery

    # -- calls -------------------------------------------------------------------

    def _vector_FunctionCall(self, expr: ast.FunctionCall) -> VectorExpr | None:
        from .aggregates import is_aggregate_name

        if is_aggregate_name(expr.name):
            return None  # aggregate references stay on the row path
        args = [self._vector(arg) for arg in expr.args]
        if any(arg is None for arg in args):
            return None
        registry = self.registry
        name = expr.name

        def call(batch: ColumnBatch, env: Env) -> list:
            # Arguments are evaluated unconditionally (like the row closure);
            # registry.call still applies strictness and counts invocations,
            # so complieswith accounting matches the row closure's.
            columns = [arg(batch, env) for arg in args]
            if not columns:
                return [registry.call(name, ()) for _ in range(batch.length)]
            return [registry.call(name, row) for row in zip(*columns)]

        return call

    def _vector_Cast(self, expr: ast.Cast) -> VectorExpr | None:
        operand = self._vector(expr.operand)
        if operand is None:
            return None
        target = SqlType.from_name(expr.type_name)
        return lambda batch, env: [
            _cast_value(v, target) for v in operand(batch, env)
        ]


def _masked(
    fn: VectorExpr, batch: ColumnBatch, env: Env, indices: list[int], length: int
) -> list:
    """Evaluate ``fn`` only on ``indices`` rows; other slots stay ``None``.

    This is what keeps vectorized evaluation order-equivalent to the row
    closures: rows the left operand already decided never reach the right
    operand, so data-dependent errors and UDF invocation counts match the
    row closures' short-circuit behaviour.
    """
    if len(indices) == length:
        return fn(batch, env)
    if not indices:
        return [None] * length
    values = fn(batch.take(indices), env)
    out: list = [None] * length
    for slot, value in zip(indices, values):
        out[slot] = value
    return out
