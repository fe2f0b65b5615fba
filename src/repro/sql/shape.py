"""Statement shapes: equality literals lifted out as parameters.

An action signature (Defs. 7–11) depends on a statement's clauses and
attribute references, never on its literal values, so texts that differ
only in such literals can share one parse, signature, rewrite and plan.
Only a literal that is the right operand of ``column =`` in WHERE, ON or
HAVING is lifted.  Everything else stays literal: range, BETWEEN, LIKE,
IN-list, LIMIT/OFFSET and ORDER/GROUP BY literals (index range paths and
LIKE prefixes read the literal at plan time); anything in a select list at
any depth (result labels print the expression); operands of arithmetic or
``||``; and every literal of a text with placeholders of its own.
``tests/sql/test_shape.py`` pins each rule.
"""

from __future__ import annotations

from .parser import literal_value
from .tokens import Token, TokenType

#: Keywords that open a clause of a SELECT (or of one of its subqueries).
_CLAUSES = frozenset(
    {"SELECT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "HAVING", "ORDER",
     "LIMIT", "OFFSET"}
)
_LIFTED = frozenset({"WHERE", "ON", "HAVING"})
#: Operators binding tighter than ``=``: their operands are not the comparison's.
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%", "||"})


def parameterize(tokens: list[Token]) -> tuple[list[Token], tuple]:
    """Return ``(shape_tokens, values)``: ``tokens`` with each liftable
    literal replaced by the placeholder ``$k`` of ``values[k - 1]``.  A
    statement other than a SELECT comes back unchanged."""
    if not tokens[0].is_keyword("SELECT") or any(
        token.type is TokenType.PARAMETER for token in tokens
    ):
        return tokens, ()
    shape, values, enclosing = [], [], []
    clause, in_select_list = None, False
    for index, token in enumerate(tokens):
        kind = token.type
        if kind is TokenType.KEYWORD and token.value in _CLAUSES:
            clause = token.value
        elif kind is TokenType.PUNCTUATION and token.value == "(":
            enclosing.append((clause, in_select_list))
            in_select_list = in_select_list or clause == "SELECT"
        elif kind is TokenType.PUNCTUATION and token.value == ")" and enclosing:
            clause, in_select_list = enclosing.pop()
        elif (
            (kind is TokenType.NUMBER or kind is TokenType.STRING)
            and clause in _LIFTED
            and not in_select_list
            and _equality_operand(tokens, index)
        ):
            values.append(literal_value(token))
            token = token._replace(type=TokenType.PARAMETER, value=str(len(values)))
        shape.append(token)
    return shape, tuple(values)


def _equality_operand(tokens: list[Token], index: int) -> bool:
    """Whether ``tokens[index]`` is the right operand of ``column = …``."""
    if not _is(tokens[index - 1], TokenType.OPERATOR, "=") or _is(
        tokens[index + 1], TokenType.OPERATOR, *_ARITHMETIC
    ):
        return False
    column = index - 2
    if tokens[column].type is not TokenType.IDENTIFIER:
        return False
    if _is(tokens[column - 1], TokenType.PUNCTUATION, "."):
        column -= 2  # a qualified column
    return not _is(tokens[column - 1], TokenType.OPERATOR, *_ARITHMETIC)


def _is(token: Token, kind: TokenType, *values: str) -> bool:
    return token.type is kind and token.value in values
