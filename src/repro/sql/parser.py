"""Recursive-descent parser for the supported SQL subset.

The grammar covers everything the paper's workload requires: SELECT with
joins (inner/left/right/cross), subqueries in FROM / WHERE / select list,
GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, the usual expression
language (arithmetic, comparisons, AND/OR/NOT, LIKE, IN, BETWEEN, IS NULL,
EXISTS, CASE, CAST), plus INSERT / UPDATE / DELETE and the DDL used to
configure the target database (CREATE/DROP/ALTER TABLE).
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenType

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}


def parse_statement(sql: "str | list[Token]") -> ast.Statement:
    """Parse a single SQL statement (text or token list) and return its AST."""
    parser = Parser(sql)
    statement = parser.statement()
    parser.expect_end()
    return statement


def parse_select(sql: str) -> ast.Select:
    """Parse ``sql``, requiring it to be a SELECT statement."""
    statement = parse_statement(sql)
    if not isinstance(statement, ast.Select):
        raise ParseError(f"expected a SELECT statement, got {type(statement).__name__}")
    return statement


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone expression (used by tests and tooling)."""
    parser = Parser(sql)
    expression = parser.expression()
    parser.expect_end()
    return expression


def literal_value(token: Token) -> object:
    """The value of a NUMBER or STRING token, as a literal holds it."""
    text = token.value
    if token.type is TokenType.STRING:
        return text
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


class Parser:
    """Token-stream parser; one instance per source string or token list
    (an EOF-terminated list as :func:`~repro.sql.lexer.tokenize` returns)."""

    def __init__(self, source: "str | list[Token]"):
        self.tokens = tokenize(source) if isinstance(source, str) else source
        self.index = 0
        # Auto-numbering for "?" placeholders: like SQLite, each "?" takes
        # one more than the highest parameter index seen so far.
        self._param_counter = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:  # the index never passes EOF: _advance stops there
            return self.tokens[self.index]
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        token = self.tokens[self.index]
        return token.type is TokenType.KEYWORD and token.value in words

    def _match_keyword(self, *words: str) -> bool:
        if self._check_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word}, found {token.value!r}")
        return self._advance()

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCTUATION or token.value != value:
            raise self._error(f"expected {value!r}, found {token.value!r}")
        return self._advance()

    def _match_operator(self, *values: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            return self._advance()
        return None

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Non-reserved usage of soft keywords as identifiers is not needed
        # by our workload; keep the parser strict.
        raise self._error(f"expected identifier, found {token.value!r}")

    def _match_word(self, word: str) -> bool:
        """Match a *soft* keyword lexed as an identifier (COLUMN, KEY, ...)."""
        token = self._peek()
        if token.type is TokenType.IDENTIFIER and token.value.upper() == word:
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._match_word(word):
            raise self._error(f"expected {word}, found {self._peek().value!r}")

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(
            f"{message} (line {token.line}, column {token.column})", token.position
        )

    def expect_end(self) -> None:
        """Require that the whole input has been consumed (``;`` allowed)."""
        self._match_punct(";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input {token.value!r}")

    # -- statements -----------------------------------------------------------

    def statement(self) -> ast.Statement:
        """Parse one statement."""
        # EXPLAIN is a soft keyword: no statement starts with a bare
        # identifier, so matching it here never shadows a real identifier
        # use (and `select explain from t` keeps working).
        if self._match_word("EXPLAIN"):
            analyze = self._match_word("ANALYZE")
            token = self._peek()
            if token.type is TokenType.IDENTIFIER and token.value.upper() == "EXPLAIN":
                raise self._error("EXPLAIN cannot be nested")
            if not self._check_keyword("SELECT"):
                raise self._error("EXPLAIN requires a SELECT statement")
            return ast.Explain(self._query_expression(), analyze=analyze)
        # Transaction control: soft keywords, like EXPLAIN above.
        if self._match_word("BEGIN"):
            self._match_transaction_noise()
            return ast.Begin()
        if self._match_word("COMMIT"):
            self._match_transaction_noise()
            return ast.Commit()
        if self._match_word("ROLLBACK"):
            self._match_transaction_noise()
            return ast.Rollback()
        if self._check_keyword("SELECT"):
            return self._query_expression()
        if self._check_keyword("INSERT"):
            return self._insert()
        if self._check_keyword("UPDATE"):
            return self._update()
        if self._check_keyword("DELETE"):
            return self._delete()
        if self._check_keyword("CREATE"):
            return self._create_table()
        if self._check_keyword("DROP"):
            return self._drop_table()
        if self._check_keyword("ALTER"):
            return self._alter_table()
        raise self._error(f"unexpected token {self._peek().value!r}")

    def _match_transaction_noise(self) -> None:
        """Consume the optional TRANSACTION/WORK word after BEGIN/COMMIT/ROLLBACK."""
        if not self._match_word("TRANSACTION"):
            self._match_word("WORK")

    def _query_expression(self) -> ast.Statement:
        """A SELECT optionally chained with UNION/INTERSECT/EXCEPT [ALL]."""
        result: ast.Statement = self.select()
        while self._check_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self._advance().value
            all_rows = bool(self._match_keyword("ALL"))
            if not all_rows:
                self._match_keyword("DISTINCT")
            right = self.select()
            result = ast.SetOperation(result, right, op, all_rows)
        return result

    def select(self) -> ast.Select:
        """Parse a SELECT statement (entry point also used for subqueries)."""
        self._expect_keyword("SELECT")
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        else:
            self._match_keyword("ALL")
        items = self._select_items()
        sources: tuple[ast.TableSource, ...] = ()
        if self._match_keyword("FROM"):
            sources = self._table_sources()
        where = self.expression() if self._match_keyword("WHERE") else None
        group_by: tuple[ast.Expression, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._expression_list()
        having = self.expression() if self._match_keyword("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._order_items()
        limit = offset = None
        if self._match_keyword("LIMIT"):
            limit = self._integer_literal()
        if self._match_keyword("OFFSET"):
            offset = self._integer_literal()
        return ast.Select(
            items=items,
            sources=sources,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _integer_literal(self) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise self._error("expected an integer literal")
        self._advance()
        try:
            return int(token.value)
        except ValueError as exc:
            raise self._error("expected an integer literal") from exc

    def _select_items(self) -> tuple[ast.SelectItem, ...]:
        items = [self._select_item()]
        while self._match_punct(","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        if self._peek().type is TokenType.OPERATOR and self._peek().value == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        # t.* — identifier '.' '*'
        if (
            self._peek().type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCTUATION
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            table = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expression = self.expression()
        alias = self._optional_alias()
        return ast.SelectItem(expression, alias)

    def _optional_alias(self) -> str | None:
        if self._match_keyword("AS"):
            return self._expect_identifier()
        if self._peek().type is TokenType.IDENTIFIER:
            return self._advance().value
        return None

    def _table_sources(self) -> tuple[ast.TableSource, ...]:
        sources = [self._joined_source()]
        while self._match_punct(","):
            sources.append(self._joined_source())
        return tuple(sources)

    def _joined_source(self) -> ast.TableSource:
        source = self._primary_source()
        while True:
            kind = self._join_kind()
            if kind is None:
                return source
            right = self._primary_source()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.expression()
            source = ast.Join(source, right, kind, condition)

    def _join_kind(self) -> str | None:
        if self._match_keyword("JOIN"):
            return "INNER"
        if self._match_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        if self._match_keyword("LEFT"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "LEFT"
        if self._match_keyword("RIGHT"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "RIGHT"
        if self._match_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "CROSS"
        return None

    def _primary_source(self) -> ast.TableSource:
        if self._match_punct("("):
            select = self.select()
            self._expect_punct(")")
            self._match_keyword("AS")
            alias = self._expect_identifier()
            return ast.SubquerySource(select, alias)
        name = self._expect_identifier()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableName(name, alias)

    def _order_items(self) -> tuple[ast.OrderItem, ...]:
        items = []
        while True:
            expression = self.expression()
            descending = False
            if self._match_keyword("DESC"):
                descending = True
            else:
                self._match_keyword("ASC")
            items.append(ast.OrderItem(expression, descending))
            if not self._match_punct(","):
                return tuple(items)

    def _expression_list(self) -> tuple[ast.Expression, ...]:
        expressions = [self.expression()]
        while self._match_punct(","):
            expressions.append(self.expression())
        return tuple(expressions)

    # -- DML / DDL -------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: tuple[str, ...] = ()
        if self._match_punct("("):
            names = [self._expect_identifier()]
            while self._match_punct(","):
                names.append(self._expect_identifier())
            self._expect_punct(")")
            columns = tuple(names)
        if self._check_keyword("SELECT"):
            return ast.Insert(table, columns, select=self.select())
        self._expect_keyword("VALUES")
        rows = [self._value_row()]
        while self._match_punct(","):
            rows.append(self._value_row())
        return ast.Insert(table, columns, tuple(rows))

    def _value_row(self) -> tuple[ast.Expression, ...]:
        self._expect_punct("(")
        values = self._expression_list()
        self._expect_punct(")")
        return values

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._match_punct(","):
            assignments.append(self._assignment())
        where = self.expression() if self._match_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, ast.Expression]:
        name = self._expect_identifier()
        if self._match_operator("=") is None:
            raise self._error("expected '=' in assignment")
        return name, self.expression()

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = self.expression() if self._match_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _create_table(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._match_word("INDEX"):
            return self._create_index()
        self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._column_def()]
        while self._match_punct(","):
            columns.append(self._column_def())
        self._expect_punct(")")
        return ast.CreateTable(name, tuple(columns))

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        type_name = self._type_name()
        primary_key = False
        not_null = False
        default: ast.Expression | None = None
        while True:
            if self._match_keyword("PRIMARY"):
                self._expect_word("KEY")
                primary_key = True
            elif self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._match_keyword("DEFAULT"):
                default = self.expression()
            else:
                break
        return ast.ColumnDef(name, type_name, primary_key, not_null, default)

    def _type_name(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENTIFIER:
            raise self._error(f"expected a type name, found {token.value!r}")
        parts = [self._advance().value.upper()]
        if parts[0] == "DOUBLE" and self._match_word("PRECISION"):
            parts.append("PRECISION")
        if parts[0] == "BIT" and self._match_word("VARYING"):
            parts.append("VARYING")
        if self._match_punct("("):
            # length/precision arguments are parsed and discarded
            self._integer_literal()
            if self._match_punct(","):
                self._integer_literal()
            self._expect_punct(")")
        return " ".join(parts)

    def _create_index(self) -> ast.CreateIndex:
        """The body after ``CREATE INDEX`` (INDEX already consumed)."""
        name = self._expect_identifier()
        self._expect_keyword("ON")
        table = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._expect_identifier()]
        while self._match_punct(","):
            columns.append(self._expect_identifier())
        self._expect_punct(")")
        kind = "btree"
        if self._match_word("USING"):
            kind = self._expect_identifier().lower()
        return ast.CreateIndex(name, table, tuple(columns), kind)

    def _drop_table(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._match_word("INDEX"):
            return ast.DropIndex(self._expect_identifier())
        self._expect_keyword("TABLE")
        return ast.DropTable(self._expect_identifier())

    def _alter_table(self) -> ast.Statement:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._expect_identifier()
        if self._match_keyword("ADD"):
            self._match_word("COLUMN")
            return ast.AlterTableAddColumn(table, self._column_def())
        if self._match_keyword("DROP"):
            self._match_word("COLUMN")
            return ast.AlterTableDropColumn(table, self._expect_identifier())
        raise self._error("expected ADD or DROP after ALTER TABLE <name>")

    # -- expressions -------------------------------------------------------------
    # Precedence (low to high): OR, AND, NOT, comparison/predicates,
    # additive (+ - ||), multiplicative (* / %), unary sign, primary.

    def expression(self) -> ast.Expression:
        """Parse an expression at the lowest precedence level (OR)."""
        left = self._and_expression()
        while self._match_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expression())
        return left

    def _and_expression(self) -> ast.Expression:
        left = self._not_expression()
        while self._match_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expression())
        return left

    def _not_expression(self) -> ast.Expression:
        if self._match_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expression())
        return self._comparison()

    def _comparison(self) -> ast.Expression:
        left = self._additive()
        token = self._match_operator(*_COMPARISON_OPS)
        if token is not None:
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self._additive())
        negated = False
        if self._check_keyword("NOT") and self._peek(1).is_keyword(
            "IN", "LIKE", "BETWEEN"
        ):
            self._advance()
            negated = True
        if self._match_keyword("IN"):
            return self._in_predicate(left, negated)
        if self._match_keyword("LIKE"):
            pattern = self._additive()
            return ast.Like(left, pattern, negated)
        if self._match_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._match_keyword("IS"):
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_negated)
        if negated:
            raise self._error("expected IN, LIKE or BETWEEN after NOT")
        return left

    def _in_predicate(self, operand: ast.Expression, negated: bool) -> ast.Expression:
        self._expect_punct("(")
        if self._check_keyword("SELECT"):
            subquery = self.select()
            self._expect_punct(")")
            return ast.InSubquery(operand, subquery, negated)
        items = self._expression_list()
        self._expect_punct(")")
        return ast.InList(operand, items, negated)

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            token = self._match_operator("+", "-", "||")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self._multiplicative())

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            token = self._match_operator("*", "/", "%")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self._unary())

    def _unary(self) -> ast.Expression:
        token = self._match_operator("-", "+")
        if token is not None:
            return ast.UnaryOp(token.value, self._unary())
        return self._primary()

    def _primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(literal_value(token))
        if token.type is TokenType.BITSTRING:
            self._advance()
            return ast.BitStringLiteral(token.value)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return self._parameter(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("CASE"):
            return self._case_expression()
        if token.is_keyword("CAST"):
            return self._cast_expression()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self.select()
            self._expect_punct(")")
            return ast.Exists(subquery)
        if self._match_punct("("):
            if self._check_keyword("SELECT"):
                subquery = self.select()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expression = self.expression()
            self._expect_punct(")")
            return expression
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_expression()
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parameter(self, value: str) -> ast.Parameter:
        """Build a Parameter from a lexed placeholder token value."""
        if value == "":  # "?" — auto-numbered
            self._param_counter += 1
            return ast.Parameter(index=self._param_counter)
        if value.isdigit():  # "$n"
            index = int(value)
            if index < 1:
                raise self._error("parameter indexes are 1-based")
            self._param_counter = max(self._param_counter, index)
            return ast.Parameter(index=index)
        return ast.Parameter(name=value.lower())  # ":name"

    def _case_expression(self) -> ast.Expression:
        self._expect_keyword("CASE")
        operand = None
        if not self._check_keyword("WHEN"):
            operand = self.expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self.expression()
            self._expect_keyword("THEN")
            result = self.expression()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        else_result = self.expression() if self._match_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.CaseWhen(tuple(whens), operand, else_result)

    def _cast_expression(self) -> ast.Expression:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self.expression()
        self._expect_keyword("AS")
        type_name = self._type_name()
        self._expect_punct(")")
        return ast.Cast(operand, type_name)

    def _identifier_expression(self) -> ast.Expression:
        name = self._expect_identifier()
        # Function call
        if self._peek().type is TokenType.PUNCTUATION and self._peek().value == "(":
            self._advance()
            distinct = bool(self._match_keyword("DISTINCT"))
            if (
                self._peek().type is TokenType.OPERATOR
                and self._peek().value == "*"
            ):
                self._advance()
                self._expect_punct(")")
                return ast.FunctionCall(name.lower(), (ast.Star(),), distinct)
            if self._match_punct(")"):
                return ast.FunctionCall(name.lower(), (), distinct)
            args = self._expression_list()
            self._expect_punct(")")
            return ast.FunctionCall(name.lower(), args, distinct)
        # Qualified column reference
        if self._match_punct("."):
            column = self._expect_identifier()
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)
