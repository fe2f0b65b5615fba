"""Printer tests: rendered SQL re-parses to the same rendered form."""

import pytest

from repro.sql import ast, parse_select, parse_statement, to_sql


ROUNDTRIP_QUERIES = [
    "select a from t",
    "select distinct a, b from t where a > 1",
    "select a as x from t u order by x desc limit 3 offset 1",
    "select count(*) from t",
    "select count(distinct a) from t",
    "select a from t join s on t.x = s.y",
    "select a from t left join s on t.x = s.y",
    "select a from t cross join s",
    "select a from (select b as a from t where b > 0) d",
    "select a from t where a in (1, 2) and b not in (select c from s)",
    "select a from t where exists (select 1 from s where s.x = t.x)",
    "select a from t where a between 1 and 2 or b is not null",
    "select case when a > 1 then 'x' else 'y' end from t",
    "select cast(a as text) from t",
    "select a from t where not a like 'x%'",
    "select -a, a || b from t",
    "select a from t where complieswith(b'0101', t.policy)",
    "select a, sum(b) from t group by a having sum(b) > 10",
    "select t.* from t",
    "select * from t, s where t.a = s.b",
]


@pytest.mark.parametrize("sql", ROUNDTRIP_QUERIES)
def test_select_roundtrip_is_fixpoint(sql):
    printed = to_sql(parse_select(sql))
    assert to_sql(parse_select(printed)) == printed


@pytest.mark.parametrize(
    "sql",
    [
        "insert into t (a) values (1)",
        "update t set a = 1 where b = 2",
        "delete from t where a like 'x'",
        "create table t (a integer primary key, b text)",
        "drop table t",
        "alter table t add column p bit varying",
        "alter table t drop column p",
        "create index i on t (a)",
        "create index i on t (a, b) using hash",
        "drop index i",
        "analyze",
        "analyze t",
    ],
)
def test_statement_roundtrip_is_fixpoint(sql):
    printed = to_sql(parse_statement(sql))
    assert to_sql(parse_statement(printed)) == printed


class TestParenthesization:
    def test_or_under_and_is_parenthesized(self):
        expression = ast.BinaryOp(
            "AND",
            ast.BinaryOp("OR", ast.ColumnRef("a"), ast.ColumnRef("b")),
            ast.ColumnRef("c"),
        )
        select = ast.Select((ast.SelectItem(expression),))
        printed = to_sql(select)
        assert "(a or b) and c" in printed
        reparsed = parse_select(printed).items[0].expression
        assert reparsed == expression

    def test_addition_under_multiplication_is_parenthesized(self):
        expression = ast.BinaryOp(
            "*",
            ast.BinaryOp("+", ast.Literal(1), ast.Literal(2)),
            ast.Literal(3),
        )
        select = ast.Select((ast.SelectItem(expression),))
        reparsed = parse_select(to_sql(select)).items[0].expression
        assert reparsed == expression

    def test_not_under_and_keeps_binding(self):
        expression = ast.BinaryOp(
            "AND",
            ast.UnaryOp("NOT", ast.ColumnRef("a")),
            ast.ColumnRef("b"),
        )
        select = ast.Select((ast.SelectItem(expression),))
        reparsed = parse_select(to_sql(select)).items[0].expression
        assert reparsed == expression

    def test_string_literal_escaping(self):
        select = ast.Select((ast.SelectItem(ast.Literal("it's")),))
        reparsed = parse_select(to_sql(select)).items[0].expression
        assert reparsed.value == "it's"


def test_listing3_shape():
    """The rewritten-query shape of Listing 3 renders and re-parses."""
    sql = (
        "select user_id, avg(beats) from users join sensed_data "
        "on users.watch_id = sensed_data.watch_id where "
        "complieswith(b'100000010000001100101100', users.policy) and "
        "complieswith(b'000010010000001101011000', sensed_data.policy) "
        "group by user_id having avg(beats)>90"
    )
    printed = to_sql(parse_select(sql))
    assert printed.count("complieswith") == 2
    assert to_sql(parse_select(printed)) == printed
