"""Parser unit tests covering the supported SQL subset."""

import pytest

from repro.errors import ParseError
from repro.sql import ast, parse_expression, parse_select, parse_statement


class TestSelectBasics:
    def test_simple_select(self):
        select = parse_select("select a, b from t")
        assert [i.expression.name for i in select.items] == ["a", "b"]
        assert isinstance(select.sources[0], ast.TableName)
        assert select.sources[0].name == "t"

    def test_select_star(self):
        select = parse_select("select * from t")
        assert isinstance(select.items[0].expression, ast.Star)

    def test_select_qualified_star(self):
        select = parse_select("select t.* from t")
        star = select.items[0].expression
        assert isinstance(star, ast.Star)
        assert star.table == "t"

    def test_distinct_flag(self):
        assert parse_select("select distinct a from t").distinct
        assert not parse_select("select all a from t").distinct

    def test_aliases(self):
        select = parse_select("select a as x, b y from t")
        assert select.items[0].alias == "x"
        assert select.items[1].alias == "y"

    def test_table_alias_with_and_without_as(self):
        select = parse_select("select 1 from t as u, s v")
        assert select.sources[0].alias == "u"
        assert select.sources[1].alias == "v"

    def test_where_group_having_order_limit_offset(self):
        select = parse_select(
            "select a, count(b) from t where a > 1 group by a "
            "having count(b) > 2 order by a desc limit 10 offset 5"
        )
        assert select.where is not None
        assert len(select.group_by) == 1
        assert select.having is not None
        assert select.order_by[0].descending
        assert select.limit == 10
        assert select.offset == 5

    def test_no_from_clause(self):
        select = parse_select("select 1 + 2")
        assert select.sources == ()

    def test_trailing_semicolon_allowed(self):
        parse_select("select 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_select("select 1 from t extra 42")

    def test_parse_select_rejects_non_select(self):
        with pytest.raises(ParseError):
            parse_select("delete from t")


class TestJoins:
    def test_inner_join_with_on(self):
        select = parse_select("select 1 from a join b on a.x = b.y")
        join = select.sources[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "INNER"
        assert isinstance(join.condition, ast.BinaryOp)

    def test_explicit_inner_keyword(self):
        join = parse_select("select 1 from a inner join b on a.x=b.x").sources[0]
        assert join.kind == "INNER"

    def test_left_and_right_outer(self):
        left = parse_select("select 1 from a left outer join b on a.x=b.x").sources[0]
        right = parse_select("select 1 from a right join b on a.x=b.x").sources[0]
        assert left.kind == "LEFT"
        assert right.kind == "RIGHT"

    def test_cross_join_has_no_condition(self):
        join = parse_select("select 1 from a cross join b").sources[0]
        assert join.kind == "CROSS"
        assert join.condition is None

    def test_chained_joins_left_associative(self):
        join = parse_select(
            "select 1 from a join b on a.x=b.x join c on a.x=c.x"
        ).sources[0]
        assert isinstance(join.left, ast.Join)
        assert isinstance(join.right, ast.TableName)

    def test_derived_table_requires_alias(self):
        select = parse_select("select 1 from (select a from t) s")
        source = select.sources[0]
        assert isinstance(source, ast.SubquerySource)
        assert source.alias == "s"
        with pytest.raises(ParseError):
            parse_select("select 1 from (select a from t)")


class TestExpressions:
    def test_precedence_or_and(self):
        expression = parse_expression("a or b and c")
        assert expression.op == "OR"
        assert expression.right.op == "AND"

    def test_precedence_arithmetic(self):
        expression = parse_expression("1 + 2 * 3")
        assert expression.op == "+"
        assert expression.right.op == "*"

    def test_parentheses_override(self):
        expression = parse_expression("(1 + 2) * 3")
        assert expression.op == "*"
        assert expression.left.op == "+"

    def test_not_binds_tighter_than_and(self):
        expression = parse_expression("not a and b")
        assert expression.op == "AND"
        assert isinstance(expression.left, ast.UnaryOp)

    def test_comparison_operators(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            expression = parse_expression(f"a {op} b")
            assert expression.op == op

    def test_bang_equals_normalized(self):
        assert parse_expression("a != b").op == "<>"

    def test_like_and_not_like(self):
        like = parse_expression("a like 'x%'")
        assert isinstance(like, ast.Like) and not like.negated
        negated = parse_expression("a not like 'x%'")
        assert negated.negated

    def test_between(self):
        between = parse_expression("a between 1 and 10")
        assert isinstance(between, ast.Between)
        assert not between.negated
        assert parse_expression("a not between 1 and 10").negated

    def test_in_list(self):
        predicate = parse_expression("a in (1, 2, 3)")
        assert isinstance(predicate, ast.InList)
        assert len(predicate.items) == 3

    def test_in_subquery(self):
        predicate = parse_expression("a in (select b from t)")
        assert isinstance(predicate, ast.InSubquery)

    def test_not_in(self):
        assert parse_expression("a not in (1)").negated

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("a is null").negated
        assert parse_expression("a is not null").negated

    def test_exists(self):
        predicate = parse_expression("exists (select 1 from t)")
        assert isinstance(predicate, ast.Exists)

    def test_scalar_subquery(self):
        expression = parse_expression("(select max(a) from t)")
        assert isinstance(expression, ast.ScalarSubquery)

    def test_function_call_lowercased(self):
        call = parse_expression("AVG(beats)")
        assert isinstance(call, ast.FunctionCall)
        assert call.name == "avg"

    def test_count_star(self):
        call = parse_expression("count(*)")
        assert isinstance(call.args[0], ast.Star)

    def test_count_distinct(self):
        call = parse_expression("count(distinct a)")
        assert call.distinct

    def test_zero_argument_function(self):
        call = parse_expression("now()")
        assert call.args == ()

    def test_qualified_column(self):
        ref = parse_expression("t.col")
        assert ref.table == "t"
        assert ref.name == "col"

    def test_literals(self):
        assert parse_expression("42").value == 42
        assert parse_expression("4.5").value == 4.5
        assert parse_expression("'hi'").value == "hi"
        assert parse_expression("true").value is True
        assert parse_expression("false").value is False
        assert parse_expression("null").value is None

    def test_bitstring_literal(self):
        literal = parse_expression("b'0101'")
        assert isinstance(literal, ast.BitStringLiteral)
        assert literal.bits == "0101"

    def test_case_searched(self):
        expression = parse_expression(
            "case when a > 1 then 'big' else 'small' end"
        )
        assert isinstance(expression, ast.CaseWhen)
        assert expression.operand is None
        assert expression.else_result is not None

    def test_case_simple(self):
        expression = parse_expression("case a when 1 then 'one' end")
        assert expression.operand is not None
        assert expression.else_result is None

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("case else 1 end")

    def test_cast(self):
        expression = parse_expression("cast(a as integer)")
        assert isinstance(expression, ast.Cast)
        assert expression.type_name == "INTEGER"

    def test_unary_minus(self):
        expression = parse_expression("-a")
        assert isinstance(expression, ast.UnaryOp)
        assert expression.op == "-"

    def test_string_concat_operator(self):
        assert parse_expression("a || b").op == "||"


class TestDmlDdl:
    def test_insert_values(self):
        statement = parse_statement(
            "insert into t (a, b) values (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, ast.Insert)
        assert statement.columns == ("a", "b")
        assert len(statement.rows) == 2

    def test_insert_without_columns(self):
        statement = parse_statement("insert into t values (1, 2)")
        assert statement.columns == ()

    def test_insert_select(self):
        statement = parse_statement("insert into t select a from s")
        assert statement.select is not None

    def test_update(self):
        statement = parse_statement("update t set a = 1, b = 'x' where c > 0")
        assert isinstance(statement, ast.Update)
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse_statement("delete from t where a = 1")
        assert isinstance(statement, ast.Delete)

    def test_delete_without_where(self):
        assert parse_statement("delete from t").where is None

    def test_create_table(self):
        statement = parse_statement(
            "create table t (a integer primary key, b text not null, "
            "c double precision, d bit varying, e varchar(20))"
        )
        assert isinstance(statement, ast.CreateTable)
        names = [c.name for c in statement.columns]
        assert names == ["a", "b", "c", "d", "e"]
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert statement.columns[2].type_name == "DOUBLE PRECISION"
        assert statement.columns[3].type_name == "BIT VARYING"

    def test_create_table_with_default(self):
        statement = parse_statement("create table t (a integer default 5)")
        assert statement.columns[0].default.value == 5

    def test_drop_table(self):
        statement = parse_statement("drop table t")
        assert isinstance(statement, ast.DropTable)

    def test_alter_add_column(self):
        statement = parse_statement("alter table t add column policy bit varying")
        assert isinstance(statement, ast.AlterTableAddColumn)
        assert statement.column.name == "policy"
        assert statement.column.type_name == "BIT VARYING"

    def test_alter_drop_column(self):
        statement = parse_statement("alter table t drop column a")
        assert isinstance(statement, ast.AlterTableDropColumn)
        assert statement.column_name == "a"

    def test_unknown_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("vacuum t")


class TestIndexStatements:
    def test_create_index_defaults_to_btree(self):
        statement = parse_statement("create index i on t (a)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.name == "i"
        assert statement.table == "t"
        assert statement.columns == ("a",)
        assert statement.kind == "btree"

    def test_create_index_using_hash(self):
        statement = parse_statement("create index i on t (a, b) using hash")
        assert statement.kind == "hash"
        assert statement.columns == ("a", "b")

    def test_create_index_partition_by(self):
        # Rows are grouped by policy once, in the policy bitmap cache; an
        # index has no policy clause.
        with pytest.raises(ParseError):
            parse_statement("create index i on t (a) partition by policy")

    def test_drop_index(self):
        statement = parse_statement("drop index i")
        assert isinstance(statement, ast.DropIndex)
        assert statement.name == "i"

    def test_bare_analyze_is_not_a_statement(self):
        # Only EXPLAIN ANALYZE reads the word; there are no statistics.
        for sql in ("analyze", "analyze t"):
            with pytest.raises(ParseError):
                parse_statement(sql)

    def test_index_stays_a_soft_keyword(self):
        # ``index`` and ``analyze`` must remain usable as identifiers.
        select = parse_select("select index, analyze from t")
        names = [item.expression.name for item in select.items]
        assert names == ["index", "analyze"]


class TestPaperQueries:
    """Every query from Figure 4 and the paper's examples must parse."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select distinct watch_id from sensed_data",
            "select count(watch_id) from sensed_data",
            "select count(watch_id) from sensed_data "
            "where not watch_id like 'watch100'",
            "select food_intolerances, count(user_id) from users "
            "join nutritional_profiles "
            "on users.nutritional_profile_id=nutritional_profiles.profile_id "
            "where not food_intolerances like 'no_intolerance' "
            "group by food_intolerances",
            "select user_id, temperature from users join sensed_data "
            "on users.watch_id=sensed_data.watch_id "
            "where sensed_data.temperature>37 and timestamp>0",
            "select user_id, avg(temperature), avg(beats) from users "
            "join sensed_data on users.watch_id=sensed_data.watch_id "
            "where timestamp >0 and nutritional_profile_id in "
            "(select profile_id from nutritional_profiles "
            "where not food_intolerances like 'no_intolerance') "
            "group by user_id",
            "select user_id, avg(beats), food_preferences from users "
            "join sensed_data on users.watch_id=sensed_data.watch_id "
            "join nutritional_profiles "
            "on users.nutritional_profile_id=nutritional_profiles.profile_id "
            "where diet_type like 'low_sugar' group by user_id, food_preferences",
            "select user_id, avg(s1.b) from users join "
            "(select watch_id as w, beats as b from sensed_data "
            "where beats>100) s1 on users.watch_id=s1.w group by user_id",
            # Example 1 / 2 / 3 queries:
            "select food_intolerances from nutritional_profile "
            "where diet_type like 'vegan'",
            "select temperature-avg(temperature), timestamp from users "
            "join sensed_data on users.watch_id = sensed_data.watch_id "
            "where user_id like 'Bob'",
            "select avg(temperature) from sensed_data s join users u "
            "on s.watch_id=u.watch_id where u.user_id like 'Bob'",
        ],
    )
    def test_parses(self, sql):
        parse_select(sql)
