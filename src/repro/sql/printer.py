"""AST → SQL text rendering.

This is the ``toSqlCode`` step of the paper's query-rewriting pipeline
(Listing 2): after the rewriter has extended WHERE clauses with
``compliesWith`` calls, the modified AST is printed back to SQL and handed to
the engine.  Output round-trips through :func:`repro.sql.parser.parse_select`
(checked by property tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from . import ast

#: Values the ``$1..$k`` placeholders print as inside :func:`bound_literals`.
_BOUND: "ContextVar[tuple]" = ContextVar("bound_literals", default=())

# Binding strength used to decide where parentheses are required.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}


@contextmanager
def bound_literals(values: tuple):
    """Print ``$k`` as the literal ``values[k - 1]`` in this scope: a
    statement shape (:mod:`repro.sql.shape`), and anything printed from its
    plan, then reads as the text it was lifted from."""
    token = _BOUND.set(values)
    try:
        yield
    finally:
        _BOUND.reset(token)


def to_sql(node: ast.Statement | ast.Expression) -> str:
    """Render any statement or expression node to SQL text."""
    if isinstance(node, ast.Expression):
        return print_expression(node)
    if isinstance(node, ast.Select):
        return print_select(node)
    if isinstance(node, ast.SetOperation):
        op = node.op.lower() + (" all" if node.all else "")
        return f"{to_sql(node.left)} {op} {print_select(node.right)}"
    if isinstance(node, ast.Insert):
        return _print_insert(node)
    if isinstance(node, ast.Update):
        return _print_update(node)
    if isinstance(node, ast.Delete):
        return _print_delete(node)
    if isinstance(node, ast.CreateTable):
        return _print_create(node)
    if isinstance(node, ast.DropTable):
        return f"drop table {node.name}"
    if isinstance(node, ast.CreateIndex):
        return _print_create_index(node)
    if isinstance(node, ast.DropIndex):
        return f"drop index {node.name}"
    if isinstance(node, ast.AlterTableAddColumn):
        return f"alter table {node.table} add column {_print_column_def(node.column)}"
    if isinstance(node, ast.AlterTableDropColumn):
        return f"alter table {node.table} drop column {node.column_name}"
    if isinstance(node, ast.Explain):
        prefix = "explain analyze" if node.analyze else "explain"
        return f"{prefix} {to_sql(node.statement)}"
    if isinstance(node, ast.Begin):
        return "begin"
    if isinstance(node, ast.Commit):
        return "commit"
    if isinstance(node, ast.Rollback):
        return "rollback"
    raise TypeError(f"cannot print {type(node).__name__}")


def _print_insert(statement: ast.Insert) -> str:
    parts = [f"insert into {statement.table}"]
    if statement.columns:
        parts.append(f"({', '.join(statement.columns)})")
    if statement.select is not None:
        parts.append(print_select(statement.select))
    else:
        rows = ", ".join(
            "(" + ", ".join(print_expression(value) for value in row) + ")"
            for row in statement.rows
        )
        parts.append(f"values {rows}")
    return " ".join(parts)


def _print_update(statement: ast.Update) -> str:
    assignments = ", ".join(
        f"{name} = {print_expression(expression)}"
        for name, expression in statement.assignments
    )
    text = f"update {statement.table} set {assignments}"
    if statement.where is not None:
        text += f" where {print_expression(statement.where)}"
    return text


def _print_delete(statement: ast.Delete) -> str:
    text = f"delete from {statement.table}"
    if statement.where is not None:
        text += f" where {print_expression(statement.where)}"
    return text


def _print_column_def(column: ast.ColumnDef) -> str:
    text = f"{column.name} {column.type_name.lower()}"
    if column.primary_key:
        text += " primary key"
    if column.not_null:
        text += " not null"
    if column.default is not None:
        text += f" default {print_expression(column.default)}"
    return text


def _print_create(statement: ast.CreateTable) -> str:
    columns = ", ".join(_print_column_def(column) for column in statement.columns)
    return f"create table {statement.name} ({columns})"


def _print_create_index(statement: ast.CreateIndex) -> str:
    text = (
        f"create index {statement.name} on {statement.table} "
        f"({', '.join(statement.columns)})"
    )
    if statement.kind != "btree":
        text += f" using {statement.kind}"
    return text


def print_select(select: ast.Select) -> str:
    """Render a SELECT statement."""
    parts = ["select"]
    if select.distinct:
        parts.append("distinct")
    parts.append(", ".join(_print_select_item(item) for item in select.items))
    if select.sources:
        parts.append("from")
        parts.append(", ".join(_print_source(source) for source in select.sources))
    if select.where is not None:
        parts.append("where")
        parts.append(print_expression(select.where))
    if select.group_by:
        parts.append("group by")
        parts.append(", ".join(print_expression(e) for e in select.group_by))
    if select.having is not None:
        parts.append("having")
        parts.append(print_expression(select.having))
    if select.order_by:
        parts.append("order by")
        parts.append(
            ", ".join(
                print_expression(item.expression) + (" desc" if item.descending else "")
                for item in select.order_by
            )
        )
    if select.limit is not None:
        parts.append(f"limit {select.limit}")
    if select.offset is not None:
        parts.append(f"offset {select.offset}")
    return " ".join(parts)


def _print_select_item(item: ast.SelectItem) -> str:
    text = print_expression(item.expression)
    if item.alias:
        text += f" as {item.alias}"
    return text


def _print_source(source: ast.TableSource) -> str:
    if isinstance(source, ast.TableName):
        if source.alias:
            return f"{source.name} {source.alias}"
        return source.name
    if isinstance(source, ast.SubquerySource):
        return f"({print_select(source.select)}) {source.alias}"
    if isinstance(source, ast.Join):
        left = _print_source(source.left)
        right = _print_source(source.right)
        if source.kind == "CROSS":
            return f"{left} cross join {right}"
        keyword = {"INNER": "join", "LEFT": "left join", "RIGHT": "right join"}[
            source.kind
        ]
        condition = print_expression(source.condition) if source.condition else "true"
        return f"{left} {keyword} {right} on {condition}"
    raise TypeError(f"cannot print source {type(source).__name__}")


def print_expression(expr: ast.Expression, parent_precedence: int = 0) -> str:
    """Render an expression, inserting parentheses where required."""
    if isinstance(expr, ast.Literal):
        return _print_literal(expr.value)
    if isinstance(expr, ast.BitStringLiteral):
        return f"b'{expr.bits}'"
    if isinstance(expr, ast.Parameter):
        values = _BOUND.get()
        if values:
            return _print_literal(values[expr.index - 1])
        # "?" placeholders print in their numbered form, so the printed
        # text re-parses to an identical AST (and hashes to the same
        # query id as the "$n" spelling).
        return expr.placeholder
    if isinstance(expr, ast.ColumnRef):
        return str(expr)
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            inner = print_expression(expr.operand, 3)
            text = f"not {inner}"
            return f"({text})" if parent_precedence > 2 else text
        operand = print_expression(expr.operand, 7)
        if expr.op == "-" and operand.startswith("-"):
            # "--1" would lex as a line comment; parenthesize the operand.
            operand = f"({operand})"
        return f"{expr.op}{operand}"
    if isinstance(expr, ast.BinaryOp):
        precedence = _PRECEDENCE[expr.op]
        op = expr.op.lower() if expr.op in ("AND", "OR") else expr.op
        # Comparisons are non-associative in the grammar: parenthesize a
        # comparison appearing as the *left* operand of another comparison.
        left_precedence = precedence + 1 if precedence == 4 else precedence
        left = print_expression(expr.left, left_precedence)
        right = print_expression(expr.right, precedence + 1)
        text = f"{left} {op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(print_expression(a) for a in expr.args)
        distinct = "distinct " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.Cast):
        return f"cast({print_expression(expr.operand)} as {expr.type_name})"
    if isinstance(expr, ast.InList):
        not_kw = "not " if expr.negated else ""
        items = ", ".join(print_expression(i) for i in expr.items)
        text = f"{print_expression(expr.operand, 5)} {not_kw}in ({items})"
        return _predicate(text, parent_precedence)
    if isinstance(expr, ast.InSubquery):
        not_kw = "not " if expr.negated else ""
        text = (
            f"{print_expression(expr.operand, 5)} {not_kw}in "
            f"({print_select(expr.subquery)})"
        )
        return _predicate(text, parent_precedence)
    if isinstance(expr, ast.Exists):
        not_kw = "not " if expr.negated else ""
        return _predicate(
            f"{not_kw}exists ({print_select(expr.subquery)})", parent_precedence
        )
    if isinstance(expr, ast.ScalarSubquery):
        return f"({print_select(expr.subquery)})"
    if isinstance(expr, ast.Between):
        not_kw = "not " if expr.negated else ""
        text = (
            f"{print_expression(expr.operand, 5)} {not_kw}between "
            f"{print_expression(expr.low, 5)} and {print_expression(expr.high, 5)}"
        )
        return _predicate(text, parent_precedence)
    if isinstance(expr, ast.Like):
        not_kw = "not " if expr.negated else ""
        text = (
            f"{print_expression(expr.operand, 5)} {not_kw}like "
            f"{print_expression(expr.pattern, 5)}"
        )
        return _predicate(text, parent_precedence)
    if isinstance(expr, ast.IsNull):
        not_kw = "not " if expr.negated else ""
        text = f"{print_expression(expr.operand, 5)} is {not_kw}null"
        return _predicate(text, parent_precedence)
    if isinstance(expr, ast.CaseWhen):
        parts = ["case"]
        if expr.operand is not None:
            parts.append(print_expression(expr.operand))
        for condition, result in expr.whens:
            parts.append(
                f"when {print_expression(condition)} then {print_expression(result)}"
            )
        if expr.else_result is not None:
            parts.append(f"else {print_expression(expr.else_result)}")
        parts.append("end")
        return " ".join(parts)
    raise TypeError(f"cannot print expression {type(expr).__name__}")


def _predicate(text: str, parent_precedence: int) -> str:
    """Predicates (LIKE/IN/BETWEEN/IS NULL/EXISTS) sit at comparison level:
    parenthesize when embedded as an operand of a comparison, arithmetic
    expression or another predicate."""
    if parent_precedence > 4:
        return f"({text})"
    return text


def _print_literal(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
