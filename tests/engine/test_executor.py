"""SELECT executor tests: projection, filtering, grouping, ordering."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, TypeMismatchError


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table emp (name text, dept text, salary integer)")
    database.execute(
        "insert into emp values "
        "('ann', 'eng', 100), ('bob', 'eng', 80), ('cat', 'ops', 60), "
        "('dan', 'ops', 90), ('eve', 'hr', 70)"
    )
    return database


class TestProjection:
    def test_column_projection(self, db):
        result = db.query("select name from emp")
        assert result.columns == ["name"]
        assert len(result) == 5

    def test_star_expansion(self, db):
        result = db.query("select * from emp")
        assert result.columns == ["name", "dept", "salary"]

    def test_qualified_star(self, db):
        result = db.query("select emp.* from emp")
        assert result.columns == ["name", "dept", "salary"]

    def test_expression_projection(self, db):
        result = db.query("select salary * 2 from emp where name = 'ann'")
        assert result.first() == (200,)

    def test_alias_becomes_column_name(self, db):
        result = db.query("select salary as pay from emp")
        assert result.columns == ["pay"]

    def test_select_without_from(self, db):
        assert db.query("select 1 + 2").scalar() == 3


class TestWhere:
    def test_filtering(self, db):
        result = db.query("select name from emp where salary > 75")
        assert sorted(result.column("name")) == ["ann", "bob", "dan"]

    def test_unknown_predicate_excludes_row(self, db):
        db.execute("insert into emp values ('nul', 'eng', null)")
        result = db.query("select name from emp where salary > 0")
        assert "nul" not in result.column("name")

    def test_conjunctive_filter(self, db):
        result = db.query(
            "select name from emp where dept = 'eng' and salary > 90"
        )
        assert result.column("name") == ["ann"]


class TestDistinctOrderLimit:
    def test_distinct(self, db):
        result = db.query("select distinct dept from emp")
        assert sorted(result.column("dept")) == ["eng", "hr", "ops"]

    def test_order_by_asc(self, db):
        result = db.query("select name from emp order by salary")
        assert result.column("name") == ["cat", "eve", "bob", "dan", "ann"]

    def test_order_by_desc(self, db):
        result = db.query("select name from emp order by salary desc")
        assert result.column("name")[0] == "ann"

    def test_order_by_multiple_keys(self, db):
        result = db.query("select name from emp order by dept, salary desc")
        assert result.column("name") == ["ann", "bob", "eve", "dan", "cat"]

    def test_order_by_ordinal(self, db):
        result = db.query("select name, salary from emp order by 2")
        assert result.column("name")[0] == "cat"

    def test_order_by_alias(self, db):
        result = db.query("select salary as pay, name from emp order by pay desc")
        assert result.column("name")[0] == "ann"

    def test_nulls_sort_last_asc(self, db):
        db.execute("insert into emp values ('nul', 'x', null)")
        result = db.query("select name from emp order by salary")
        assert result.column("name")[-1] == "nul"

    def test_nulls_sort_first_desc(self, db):
        db.execute("insert into emp values ('nul', 'x', null)")
        result = db.query("select name from emp order by salary desc")
        assert result.column("name")[0] == "nul"

    def test_limit_offset(self, db):
        result = db.query("select name from emp order by salary limit 2 offset 1")
        assert result.column("name") == ["eve", "bob"]

    def test_limit_zero(self, db):
        assert len(db.query("select name from emp limit 0")) == 0


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.query("select count(*), sum(salary), avg(salary) from emp")
        assert result.first() == (5, 400, 80.0)

    def test_aggregate_over_empty_input_yields_one_row(self, db):
        result = db.query("select count(*), sum(salary) from emp where salary > 1000")
        assert result.first() == (0, None)

    def test_group_by(self, db):
        result = db.query(
            "select dept, count(*), max(salary) from emp group by dept"
        )
        assert sorted(result.rows) == [
            ("eng", 2, 100), ("hr", 1, 70), ("ops", 2, 90),
        ]

    def test_group_by_empty_input_yields_no_rows(self, db):
        result = db.query(
            "select dept, count(*) from emp where salary > 1000 group by dept"
        )
        assert len(result) == 0

    def test_having(self, db):
        result = db.query(
            "select dept from emp group by dept having avg(salary) >= 75"
        )
        assert sorted(result.column("dept")) == ["eng", "ops"]

    def test_having_with_different_aggregate_than_select(self, db):
        result = db.query(
            "select dept, count(*) from emp group by dept having min(salary) < 65"
        )
        assert result.rows == [("ops", 2)]

    def test_having_without_group_by_requires_aggregate(self, db):
        with pytest.raises(ExecutionError):
            db.query("select name from emp having salary > 1")

    def test_count_distinct(self, db):
        assert db.query("select count(distinct dept) from emp").scalar() == 3

    def test_aggregate_in_order_by(self, db):
        result = db.query(
            "select dept from emp group by dept order by sum(salary) desc"
        )
        assert result.column("dept") == ["eng", "ops", "hr"]

    def test_expression_of_aggregates(self, db):
        result = db.query("select max(salary) - min(salary) from emp")
        assert result.scalar() == 40

    def test_aggregate_with_expression_argument(self, db):
        assert db.query("select sum(salary * 2) from emp").scalar() == 800

    def test_group_by_expression(self, db):
        result = db.query(
            "select count(*) from emp group by salary > 75"
        )
        assert sorted(result.column("count")) == [2, 3]


class TestComparability:
    """MIN/MAX and ORDER BY apply the rule WHERE's ``<`` applies: numbers
    compare with numbers, anything else only with its own type."""

    @pytest.fixture()
    def mixed(self):
        database = Database()
        database.execute(
            "create table m (a integer, b text, c boolean, d double precision)"
        )
        database.execute(
            "insert into m values (1, 'x', true, 0.5), (2, 'y', false, null), "
            "(3, 'z', true, 2.5)"
        )
        return database

    INT_OR_TEXT = "case when a > 1 then a else b end"
    INT_OR_BOOL = "case when a > 1 then a else c end"

    def test_where_refuses_bool_against_int(self, mixed):
        with pytest.raises(TypeMismatchError, match="cannot compare bool with int"):
            mixed.query(f"select a from m where ({self.INT_OR_BOOL}) > 1")

    @pytest.mark.parametrize("name", ["min", "max"])
    @pytest.mark.parametrize("mix", [INT_OR_TEXT, INT_OR_BOOL])
    def test_min_max_refuse_incomparable_values(self, mixed, name, mix):
        with pytest.raises(TypeMismatchError, match="cannot compare"):
            mixed.query(f"select {name}({mix}) from m")

    @pytest.mark.parametrize("mix", [INT_OR_TEXT, INT_OR_BOOL])
    @pytest.mark.parametrize("direction", ["", " desc"])
    def test_order_by_refuses_incomparable_values(self, mixed, mix, direction):
        with pytest.raises(TypeMismatchError, match="cannot compare"):
            mixed.query(f"select a from m order by {mix}{direction}")

    def test_numbers_and_nulls_still_order(self, mixed):
        result = mixed.query(
            "select a, min(case when a > 1 then d else a end), "
            "max(case when a > 1 then d else a end) from m group by a "
            "order by case when a = 2 then d else a end desc"
        )
        assert result.rows == [(2, None, None), (3, 2.5, 2.5), (1, 1, 1)]


class TestDerivedTables:
    def test_simple_derived_table(self, db):
        result = db.query(
            "select d.name from (select name, salary from emp where salary > 75) d"
        )
        assert sorted(result.column("name")) == ["ann", "bob", "dan"]

    def test_derived_table_with_aliases(self, db):
        result = db.query(
            "select total from (select sum(salary) as total from emp) t"
        )
        assert result.scalar() == 400

    def test_nested_derived_tables(self, db):
        result = db.query(
            "select x from (select y as x from "
            "(select salary as y from emp where name = 'ann') inner1) outer1"
        )
        assert result.scalar() == 100

    def test_aggregate_over_derived(self, db):
        result = db.query(
            "select avg(s) from (select salary as s from emp where dept = 'eng') d"
        )
        assert result.scalar() == 90.0


class TestCompositions:
    """Nesting of features that commonly interact."""

    def test_scalar_function_inside_aggregate(self, db):
        result = db.query("select avg(abs(salary - 80)) from emp")
        assert result.scalar() == pytest.approx((20 + 0 + 20 + 10 + 10) / 5)

    def test_aggregate_of_case_expression(self, db):
        result = db.query(
            "select sum(case when dept = 'eng' then salary else 0 end) from emp"
        )
        assert result.scalar() == 180

    def test_group_by_with_where_and_order(self, db):
        result = db.query(
            "select dept, count(*) from emp where salary >= 70 "
            "group by dept order by count(*) desc, dept"
        )
        assert result.rows[0][0] == "eng"

    def test_distinct_on_expressions(self, db):
        result = db.query("select distinct salary > 75 from emp")
        assert sorted(result.rows) == [(False,), (True,)]

    def test_in_subquery_inside_having(self, db):
        result = db.query(
            "select dept from emp group by dept "
            "having max(salary) in (select salary from emp where name = 'ann')"
        )
        assert result.column("dept") == ["eng"]

    def test_join_of_two_derived_tables(self, db):
        result = db.query(
            "select a.dept from "
            "(select dept, max(salary) as top from emp group by dept) a join "
            "(select dept from emp where salary > 85) b on a.dept = b.dept"
        )
        assert sorted(result.column("dept")) == ["eng", "ops"]

    def test_nested_aggregation_over_derived_group(self, db):
        result = db.query(
            "select avg(top) from "
            "(select dept, max(salary) as top from emp group by dept) d"
        )
        assert result.scalar() == pytest.approx((100 + 90 + 70) / 3)
