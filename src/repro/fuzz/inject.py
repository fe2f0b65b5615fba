"""Deliberate bugs, for validating that the fuzzer catches them.

A differential oracle is only trustworthy if it *fails* when the system
under test is broken.  :func:`inject_bug` patches a known defect into the
production pipeline for the duration of a ``with`` block — one in
enforcement (the rewriter forgets a compliance conjunct), one in the
executor (``>=`` against a literal evaluates as ``>``); running the fuzzer
under either must produce disagreements (and minimized repro files),
otherwise the oracle is vacuous.  The second is the one an
oracle that ran its expectation on the engine's own executor could not
see.  Used by the acceptance tests and by the CLI's ``--inject-bug`` flag.
"""

from __future__ import annotations

import dataclasses
import operator
from contextlib import contextmanager

from ..core import monitor as monitor_module
from ..core.admin import COMPLIES_WITH
from ..engine import expressions as expressions_module
from ..sql import ast

#: Injectable defects, by name.
BUGS = ("drop-conjunct", "ge-as-gt")


def _is_compliance_conjunct(expression: ast.Expression) -> bool:
    return (
        isinstance(expression, ast.FunctionCall)
        and expression.name.lower() == COMPLIES_WITH
    )


def _split_conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.BinaryOp) and expression.op.lower() == "and":
        return _split_conjuncts(expression.left) + _split_conjuncts(
            expression.right
        )
    return [expression]


def _conjoin(parts: list[ast.Expression]) -> ast.Expression | None:
    if not parts:
        return None
    combined = parts[0]
    for part in parts[1:]:
        combined = ast.BinaryOp("AND", combined, part)
    return combined


def _drop_one_compliance_conjunct(select: ast.Select) -> ast.Select:
    """Remove the last ``complieswith`` conjunct of the outer WHERE clause.

    This models the classic rewriting bug of forgetting one base binding:
    the query then leaks rows of one table that its policies exclude.  If
    the outer block carries no compliance conjunct (e.g. the only signed
    binding sits in a subquery), the select is returned unchanged — some
    generated cases will not trip the bug, which is exactly the situation
    a fuzzer exists to cover by volume.
    """
    if select.where is None:
        return select
    conjuncts = _split_conjuncts(select.where)
    for index in range(len(conjuncts) - 1, -1, -1):
        if _is_compliance_conjunct(conjuncts[index]):
            kept = conjuncts[:index] + conjuncts[index + 1 :]
            return dataclasses.replace(select, where=_conjoin(kept))
    return select


@contextmanager
def inject_bug(name: str):
    """Patch defect ``name`` into the production pipeline for a block.

    Both patches target what compilation actually reads — the rewriter
    reference the monitor calls, the operator table the expression
    compiler binds comparisons from — so the ad-hoc and the prepared/cached paths
    (and therefore the server) all compile the defect in.  The plan cache
    is *not* cleared here; the runner clears it per path, so buggy plans
    never outlive the block in practice, and tests that want a pristine
    cache afterwards should clear it explicitly.
    """
    if name not in BUGS:
        raise ValueError(f"unknown bug {name!r}; known: {BUGS}")
    if name == "drop-conjunct":
        real_rewrite = monitor_module.rewrite_query

        def buggy(select, signature, layouts):
            return _drop_one_compliance_conjunct(
                real_rewrite(select, signature, layouts)
            )

        holder, key = vars(monitor_module), "rewrite_query"
    else:
        holder, key, buggy = expressions_module._RAW_COMPARE, ">=", operator.gt
    real = holder[key]
    holder[key] = buggy
    try:
        yield
    finally:
        holder[key] = real
