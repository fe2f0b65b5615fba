"""SQL lexer: one compiled pattern, one match per token.

Turns a SQL source string into a list of :class:`~repro.sql.tokens.Token`:
keywords (upper-cased), identifiers (``"quoted"`` ones too), numbers,
``'strings'`` with ``''`` escapes, bit strings ``b'0101'`` (policy masks,
PostgreSQL syntax), the placeholders ``?``, ``$n`` and ``:name``, operators
and punctuation; ``--`` and ``/* */`` comments are skipped.  Alternatives
are tried in order at each offset, so a comment wins over ``-`` and ``/``,
a bit string over a word and ``.5`` over ``.``; the last takes any single
character and reports it.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, Token, TokenType

_PATTERN = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)+)
  | (?P<comment>/\*)
  | (?P<bitstring>[bB]'[01]*'?)
  | (?P<word>[^\W\d]\w*)
  | (?P<number>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'[^']*(?:''[^']*)*'?)
  | (?P<quoted>"[^"]*(?:""[^"]*)*"?)
  | (?P<parameter>\?|\$\d+|:[^\W\d]\w*)
  | (?P<operator><>|<=|>=|!=|\|\||[-+*/%<>=&|])
  | (?P<punctuation>[(),.;])
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {"string": "string literal", "quoted": "quoted identifier"}
_VERBATIM = {
    "number": TokenType.NUMBER,
    "operator": TokenType.OPERATOR,
    "punctuation": TokenType.PUNCTUATION,
}


#: Builds a Token without the Python-level ``__new__`` of a named tuple.
_new = tuple.__new__


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` and return the token list (terminated by EOF).

    The EOF token sits at ``len(sql)`` but carries the line and column of
    the last token (1, 1 when there is none), which is where "unexpected
    end" parse errors point.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    token_line = token_column = 1
    for match in _PATTERN.finditer(sql):
        kind, text, start = match.lastgroup, match.group(), match.start()
        if kind != "skip":
            token_line, token_column = line, start - line_start + 1
            token_type, value = _VERBATIM.get(kind), text
            if token_type is not None:
                pass
            elif kind == "word":
                value = text.upper()
                if value in KEYWORDS:
                    token_type = TokenType.KEYWORD
                else:
                    token_type, value = TokenType.IDENTIFIER, text
            elif kind == "string" or kind == "quoted":
                quote = text[0]
                if text.count(quote) % 2:
                    raise _error(sql, len(sql), f"unterminated {_UNTERMINATED[kind]}")
                token_type = TokenType.STRING if quote == "'" else TokenType.IDENTIFIER
                value = text[1:-1].replace(quote + quote, quote)
            elif kind == "parameter":
                token_type, value = TokenType.PARAMETER, text[1:]
            elif kind == "bitstring":
                if len(text) < 3 or text[-1] != "'":
                    raise _error(sql, match.end(), "unterminated bit-string literal")
                token_type, value = TokenType.BITSTRING, text[2:-1]
            elif kind == "comment":
                raise _error(sql, len(sql), "unterminated block comment")
            else:
                raise _error(sql, start, f"unexpected character {text!r}")
            append(_new(Token, (token_type, value, start, token_line, token_column)))
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    append(Token(TokenType.EOF, "", len(sql), token_line, token_column))
    return tokens


def _error(sql: str, position: int, message: str) -> LexError:
    line = sql.count("\n", 0, position) + 1
    return LexError(message, position, line, position - sql.rfind("\n", 0, position))
