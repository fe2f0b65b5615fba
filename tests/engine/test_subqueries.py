"""Subquery execution: IN / EXISTS / scalar, correlation, caching."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table dept (id integer, name text)")
    database.execute("create table emp (name text, dept_id integer, salary integer)")
    database.execute("insert into dept values (1, 'eng'), (2, 'ops'), (3, 'empty')")
    database.execute(
        "insert into emp values ('ann', 1, 100), ('bob', 1, 80), ('cat', 2, 60)"
    )
    return database


class TestInSubquery:
    def test_uncorrelated_in(self, db):
        result = db.query(
            "select name from emp where dept_id in (select id from dept where name = 'eng')"
        )
        assert sorted(result.column("name")) == ["ann", "bob"]

    def test_not_in(self, db):
        result = db.query(
            "select name from dept where id not in (select dept_id from emp)"
        )
        assert result.column("name") == ["empty"]

    def test_not_in_with_null_in_subquery_is_empty(self, db):
        db.execute("insert into emp values ('nul', null, 10)")
        result = db.query(
            "select name from dept where id not in (select dept_id from emp)"
        )
        assert len(result) == 0  # NULL in the IN-list makes NOT IN unknown

    def test_in_empty_subquery(self, db):
        result = db.query(
            "select name from emp where dept_id in (select id from dept where id > 99)"
        )
        assert len(result) == 0


class TestExists:
    def test_correlated_exists(self, db):
        result = db.query(
            "select name from dept d where exists "
            "(select 1 from emp where emp.dept_id = d.id)"
        )
        assert sorted(result.column("name")) == ["eng", "ops"]

    def test_not_exists(self, db):
        result = db.query(
            "select name from dept d where not exists "
            "(select 1 from emp where emp.dept_id = d.id)"
        )
        assert result.column("name") == ["empty"]

    def test_correlated_exists_with_extra_condition(self, db):
        result = db.query(
            "select name from dept d where exists "
            "(select 1 from emp where emp.dept_id = d.id and emp.salary > 90)"
        )
        assert result.column("name") == ["eng"]


class TestScalarSubquery:
    def test_scalar_in_select_list(self, db):
        result = db.query("select name, (select max(salary) from emp) from emp")
        assert all(row[1] == 100 for row in result.rows)

    def test_scalar_in_where(self, db):
        result = db.query(
            "select name from emp where salary = (select max(salary) from emp)"
        )
        assert result.column("name") == ["ann"]

    def test_correlated_scalar(self, db):
        result = db.query(
            "select name, (select dept.name from dept where dept.id = emp.dept_id) "
            "from emp order by name"
        )
        assert result.rows[0] == ("ann", "eng")

    def test_empty_scalar_subquery_is_null(self, db):
        result = db.query(
            "select (select id from dept where id > 99) from dept"
        )
        assert all(row[0] is None for row in result.rows)

    def test_multi_row_scalar_subquery_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("select (select id from dept) from emp")


class TestSubqueryCaching:
    def test_in_subquery_membership_is_built_once_per_execution(self, db, monkeypatch):
        from repro.engine import expressions

        db.execute(
            "insert into emp values "
            + ", ".join(f"('e{i}', {i % 4}, {i})" for i in range(30))
        )
        sql = "select name from emp where dept_id in (select id from dept where id < 3)"
        expected = db.query(sql).rows
        built = []
        original = expressions._membership

        def counting(candidates, negated):
            built.append(list(candidates))
            return original(candidates, negated)

        monkeypatch.setattr(expressions, "_membership", counting)
        # 33 outer rows in 7-row pages: five pages, one membership set.
        assert db.prepare(sql, batch_size=7).execute().rows == expected
        assert built == [[1, 2]]
        assert db.prepare(sql, batch_size=7).execute().rows == expected
        assert built == [[1, 2], [1, 2]]  # the memo lives for one execution

    def test_uncorrelated_subquery_evaluated_once(self, db):
        calls = {"n": 0}

        def probe(x):
            calls["n"] += 1
            return x

        db.register_function("probe", probe)
        db.query(
            "select name from emp where dept_id in "
            "(select probe(id) from dept)"
        )
        # 3 dept rows, evaluated once despite 3 outer rows.
        assert calls["n"] == 3

    def test_correlated_subquery_reevaluated_per_row(self, db):
        calls = {"n": 0}

        def probe(x):
            calls["n"] += 1
            return x

        db.register_function("probe", probe)
        db.query(
            "select name from dept d where exists "
            "(select 1 from emp where probe(emp.dept_id) = d.id)"
        )
        assert calls["n"] > 3  # re-evaluated for each dept row


class TestAmbiguityVsCorrelation:
    def test_ambiguous_inner_reference_does_not_bind_outer(self, db):
        """An unqualified column that is ambiguous *inside* the subquery
        must raise, not silently resolve against the outer block."""
        db.execute("create table dept2 (id integer, name text)")
        db.execute("insert into dept2 values (1, 'x')")
        from repro.errors import AmbiguousColumnError

        with pytest.raises(AmbiguousColumnError):
            db.query(
                "select name from dept d where exists "
                "(select 1 from emp, dept2 where name like 'x')"
            )

    def test_qualified_reference_disambiguates(self, db):
        db.execute("create table dept2 (id integer, name text)")
        db.execute("insert into dept2 values (1, 'x')")
        result = db.query(
            "select name from dept d where exists "
            "(select 1 from emp, dept2 where dept2.id = d.id)"
        )
        assert result.column("name") == ["eng"]  # dept2 only holds id 1
