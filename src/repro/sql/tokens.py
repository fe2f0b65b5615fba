"""Token model for the SQL lexer.

The lexer produces a flat list of :class:`Token` tuples.  Keywords are
recognized case-insensitively and normalized to upper case in
:attr:`Token.value`; identifiers keep their original spelling (SQL
identifiers are matched case-insensitively downstream, like PostgreSQL's
default folding, but we preserve the source text for round-tripping).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Lexical categories produced by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    BITSTRING = "bitstring"  # b'0101' literals (policy masks)
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"  # ( ) , . ;
    PARAMETER = "parameter"  # ? / $n / :name placeholders
    EOF = "eof"


#: Reserved words recognized by the parser.  This list covers the SQL subset
#: used by the paper's workload (SELECT queries with joins, grouping and
#: subqueries) plus the DDL/DML needed to build and maintain the target DB.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "LIMIT", "OFFSET", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT",
        "FULL", "OUTER", "CROSS", "AND", "OR", "NOT", "IN", "IS", "NULL",
        "LIKE", "BETWEEN", "EXISTS", "DISTINCT", "ALL", "ANY", "SOME",
        "CASE", "WHEN", "THEN", "ELSE", "END", "ASC", "DESC", "TRUE",
        "FALSE", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
        "CREATE", "TABLE", "DROP", "ALTER", "ADD", "PRIMARY",
        "DEFAULT", "UNION", "INTERSECT", "EXCEPT", "CAST", "ESCAPE",
    }
)
# NOTE: type names (INTEGER, TEXT, TIMESTAMP, BIT, ...) and the words
# COLUMN/KEY/PRECISION/VARYING are deliberately *soft* keywords — they are
# lexed as identifiers so that schemas like the paper's
# sensed_data(watch_id, timestamp, ...) can use them as column names.


class Token(NamedTuple):
    """A single lexical unit.

    Attributes:
        type: The lexical category.
        value: Normalized text — upper case for keywords, raw text for
            identifiers/operators, decoded content for string literals.
        position: Offset of the first character in the source string.
        line: 1-based source line.
        column: 1-based source column.
    """

    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        """Return ``True`` if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in words
