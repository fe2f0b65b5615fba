"""Statement shapes: which literals are lifted into parameters, and which
stay literal (each rule of :mod:`repro.sql.shape`, one test each)."""

import pytest

from repro.sql import parse_statement, to_sql, tokenize
from repro.sql.printer import bound_literals
from repro.sql.shape import parameterize


def shape(sql):
    """``(shape printed with placeholders, lifted values)``."""
    tokens, values = parameterize(tokenize(sql))
    return to_sql(parse_statement(tokens)), values


def assert_unlifted(sql):
    assert shape(sql) == (to_sql(parse_statement(sql)), ())


class TestLifted:
    def test_where_equalities_become_numbered_parameters(self):
        assert shape(
            "select beats from sensed_data where watch_id = 'watch3' and timestamp = 5"
        ) == (
            "select beats from sensed_data where watch_id = $1 and timestamp = $2",
            ("watch3", 5),
        )

    def test_on_and_having_and_qualified_columns(self):
        assert shape(
            "select t.a, count(*) from t join s on t.a = s.a and s.b = 2.5 "
            "where t.c = 'x' group by t.a having t.a = 7"
        ) == (
            "select t.a, count(*) from t join s on t.a = s.a and s.b = $1 "
            "where t.c = $2 group by t.a having t.a = $3",
            (2.5, "x", 7),
        )

    def test_where_of_subqueries_outside_the_select_list(self):
        assert shape(
            "select a from (select a from t where b = 1) d "
            "where d.a in (select a from s where c = 2) union "
            "select a from u where e = 3"
        )[1] == (1, 2, 3)

    def test_values_keep_the_parsers_types(self):
        _, values = shape("select a from t where a = 1e3 and b = 'it''s' and c = 4")
        assert values == (1000.0, "it's", 4)
        assert [type(v) for v in values] == [float, str, int]


class TestLiteralsThatStay:
    @pytest.mark.parametrize(
        "predicate",
        [
            "a > 5",  # index range paths take literals only
            "a between 1 and 2",
            "a like 'x%'",  # the LIKE prefix picks the range scan
            "a in (1, 2)",
            "-a = 4",  # the column is an arithmetic operand
            "a + 1 = 4",
            "a = 4 + 1",  # the literal is an arithmetic operand
            "a = 'x' || b",
            "a = -4",  # an operand of unary minus
            "a = b",
            "count(a) = 3",
        ],
    )
    def test_non_equality_operands(self, predicate):
        assert_unlifted(f"select a from t where {predicate}")

    def test_limit_offset_order_and_group_by(self):
        assert_unlifted(
            "select a from t group by a order by case when a = 1 then 0 end, 1 "
            "limit 2 offset 3"
        )

    def test_select_list_at_any_depth(self):
        # Result labels print the expression: ``a = 5`` must not read ``a = $1``.
        assert_unlifted(
            "select a = 5, (select b from s where s.c = 'x'), "
            "case when a = 6 then 1 end from t"
        )

    def test_every_literal_of_a_text_with_its_own_placeholders(self):
        assert_unlifted("select a from t where a = ? and b = 5")
        assert_unlifted("select a from t where a = :x and b = 'y'")

    def test_statements_other_than_select(self):
        assert_unlifted("update t set a = 1 where b = 2")
        assert_unlifted("delete from t where b = 2")


class TestBoundPrinting:
    @pytest.mark.parametrize(
        "sql",
        [
            "select a, '$1' from t where b = '$2' and c = 'it''s' and d = 0.5",
            "select a from t left join s on s.k = 3 where t.k = 4 order by a",
        ],
    )
    def test_shape_with_values_prints_as_the_text_did(self, sql):
        tokens, values = parameterize(tokenize(sql))
        statement = parse_statement(tokens)
        with bound_literals(values):
            assert to_sql(statement) == to_sql(parse_statement(sql))
        assert to_sql(statement) != to_sql(parse_statement(sql))

    def test_binding_is_scoped(self):
        tokens, values = parameterize(tokenize("select a from t where b = 1"))
        statement = parse_statement(tokens)
        with bound_literals(values):
            pass
        assert to_sql(statement) == "select a from t where b = $1"
