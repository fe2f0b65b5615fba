"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType


def kinds(sql):
    return [t.type for t in tokenize(sql)[:-1]]  # drop EOF


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_normalized_upper(self):
        tokens = tokenize("select from WHERE Group")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE", "GROUP"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_spelling(self):
        tokens = tokenize("Users watch_ID")
        assert [t.value for t in tokens[:-1]] == ["Users", "watch_ID"]
        assert all(t.type is TokenType.IDENTIFIER for t in tokens[:-1])

    def test_type_words_are_soft_keywords(self):
        # `timestamp` is a column of the paper's sensed_data table.
        tokens = tokenize("timestamp integer bit varying")
        assert all(t.type is TokenType.IDENTIFIER for t in tokens[:-1])

    def test_eof_token_terminates_stream(self):
        assert tokenize("select")[-1].type is TokenType.EOF

    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestLiterals:
    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_float_literal(self):
        assert tokenize("3.75")[0].value == "3.75"

    def test_float_with_exponent(self):
        assert tokenize("1e6")[0].value == "1e6"
        assert tokenize("2.5E-3")[0].value == "2.5E-3"

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == ".5"

    def test_string_literal_content_is_decoded(self):
        token = tokenize("'no_intolerance'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "no_intolerance"

    def test_string_literal_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_bitstring_literal(self):
        token = tokenize("b'010110'")[0]
        assert token.type is TokenType.BITSTRING
        assert token.value == "010110"

    def test_bitstring_uppercase_prefix(self):
        assert tokenize("B'11'")[0].type is TokenType.BITSTRING

    def test_unterminated_bitstring_raises(self):
        with pytest.raises(LexError):
            tokenize("b'0101")

    def test_quoted_identifier(self):
        token = tokenize('"select"')[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "select"


class TestOperatorsAndPunctuation:
    def test_multi_char_operators(self):
        assert values("a <= b >= c <> d != e || f") == [
            "a", "<=", "b", ">=", "c", "<>", "d", "!=", "e", "||", "f",
        ]

    def test_single_char_operators(self):
        assert values("a+b-c*d/e%f=g") == [
            "a", "+", "b", "-", "c", "*", "d", "/", "e", "%", "f", "=", "g",
        ]

    def test_punctuation(self):
        assert values("f(a, b.c);") == ["f", "(", "a", ",", "b", ".", "c", ")", ";"]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("select -- a comment\n1") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("select /* anything\nhere */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("select /* never closed")

    def test_line_and_column_tracking(self):
        tokens = tokenize("select\n  x")
        x = tokens[1]
        assert x.line == 2
        assert x.column == 3


def _lex_error(sql):
    with pytest.raises(LexError) as info:
        tokenize(sql)
    error = info.value
    return str(error), error.position, error.line, error.column


class TestErrorContract:
    """Message, offset, line and column of every LexError, and the token
    positions parse errors quote — pinned so a scanner rewrite keeps them."""

    def test_unterminated_string_spanning_lines(self):
        assert _lex_error("select 'ab\ncd") == (
            "unterminated string literal (line 2, column 3)", 13, 2, 3,
        )

    def test_unterminated_string_after_escaped_quote(self):
        assert _lex_error("select 'a''") == (
            "unterminated string literal (line 1, column 12)", 11, 1, 12,
        )

    def test_unterminated_bitstring_stops_at_first_non_bit(self):
        assert _lex_error("select b'01\n1'") == (
            "unterminated bit-string literal (line 1, column 12)", 11, 1, 12,
        )

    def test_unterminated_quoted_identifier_spanning_lines(self):
        assert _lex_error('select "ab\ncd') == (
            "unterminated quoted identifier (line 2, column 3)", 13, 2, 3,
        )

    def test_unterminated_block_comment_spanning_lines(self):
        assert _lex_error("select /* a\nb") == (
            "unterminated block comment (line 2, column 2)", 13, 2, 2,
        )

    @pytest.mark.parametrize(
        "sql, char, position, line, column",
        [
            ("select $", "$", 7, 1, 8),
            ("select $x", "$", 7, 1, 8),
            ("select :", ":", 7, 1, 8),
            ("select :1", ":", 7, 1, 8),
            ("select a\n$ 1", "$", 9, 2, 1),
            ("select a\n  :", ":", 11, 2, 3),
        ],
    )
    def test_dollar_and_colon_without_continuation(
        self, sql, char, position, line, column
    ):
        assert _lex_error(sql) == (
            f"unexpected character {char!r} (line {line}, column {column})",
            position, line, column,
        )

    def test_token_after_multiline_comment(self):
        tokens = tokenize("select /* a\n bc */ x, -- z\n  y")
        assert [(t.value, t.position, t.line, t.column) for t in tokens] == [
            ("SELECT", 0, 1, 1),
            ("x", 19, 2, 8),
            (",", 20, 2, 9),
            ("y", 29, 3, 3),
            ("", 30, 3, 3),
        ]

    def test_eof_takes_the_last_tokens_line_and_column(self):
        # The EOF token sits at the end offset but reports where the last
        # token started (1, 1 when there is none).
        eof = tokenize("select a from")[-1]
        assert (eof.type, eof.position, eof.line, eof.column) == (
            TokenType.EOF, 13, 1, 10,
        )
        for sql, expected in (("select -- c", (11, 1, 1)), ("", (0, 1, 1))):
            eof = tokenize(sql)[-1]
            assert (eof.position, eof.line, eof.column) == expected

    @pytest.mark.parametrize(
        "sql, message, position",
        [
            ("select a from", "expected identifier, found '' (line 1, column 10)", 13),
            (
                "select a from t where",
                "unexpected token '' in expression (line 1, column 17)",
                21,
            ),
            (
                "select\n  a from t where x =\n",
                "unexpected token '' in expression (line 2, column 20)",
                28,
            ),
            (
                "select a from t /* c\n */ where",
                "unexpected token '' in expression (line 2, column 5)",
                30,
            ),
            ("select (1", "expected ')', found '' (line 1, column 9)", 9),
        ],
    )
    def test_unexpected_end_quotes_the_eof_token(self, sql, message, position):
        from repro.errors import ParseError
        from repro.sql import parse_statement

        with pytest.raises(ParseError) as info:
            parse_statement(sql)
        assert (str(info.value), info.value.position) == (message, position)
