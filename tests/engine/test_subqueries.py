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


class TestOnClauseCorrelation:
    """A join condition naming the enclosing block's row makes its block
    correlated, exactly as the same conjunct in WHERE does."""

    @pytest.fixture()
    def tu(self):
        database = Database()
        database.execute("create table t (a integer, b integer, c integer)")
        database.execute("create table u (a integer, d integer)")
        database.execute("insert into t values (1, 1, 1), (2, 3, 2)")
        database.execute("insert into u values (1, 5), (2, 25), (3, 40)")
        return database

    @pytest.mark.parametrize("optimizer", ["on", "off"])
    @pytest.mark.parametrize(
        "on_form, where_form",
        [
            (  # INNER equi join: the outer column lands in the residual
                "t join u on t.a = u.a and t.b * 10 > o.d",
                "t join u on t.a = u.a where t.b * 10 > o.d",
            ),
            (  # non-equi: a nested loop's condition
                "t join u on t.a <= u.a and t.b * 10 > o.d",
                "t join u on t.a <= u.a where t.b * 10 > o.d",
            ),
            (
                "t left join u on t.a = u.a and t.b * 10 > o.d "
                "where u.a is not null",
                "t join u on t.a = u.a where t.b * 10 > o.d",
            ),
        ],
        ids=["inner-equi", "non-equi", "left"],
    )
    def test_matches_the_where_form(self, tu, optimizer, on_form, where_form):
        def run(inner):
            sql = f"select a from u as o where exists (select 1 from {inner})"
            return sorted(tu.prepare(sql, optimizer=optimizer).execute().rows)

        assert run(on_form) == run(where_form) == [(1,), (2,)]


class TestDerivedTables:
    """A derived table hands its parent column pages unless ORDER BY,
    DISTINCT, LIMIT or OFFSET needs its whole result; either way it
    answers as before and runs once per execution."""

    BLOCKS = {
        "plain": ("select dept_id as k, salary as s from emp", None),
        "having": (
            "select dept_id as k, sum(salary) as s from emp "
            "group by dept_id having sum(salary) > 70",
            [(1, 180)],
        ),
        "order-limit": (
            "select dept_id as k, salary as s from emp order by s desc limit 2",
            [(1, 80), (1, 100)],
        ),
        "distinct": ("select distinct dept_id as k, 0 as s from emp", None),
        "limit-0": ("select dept_id as k, salary as s from emp limit 0", []),
        "offset": (
            "select dept_id as k, salary as s from emp order by s limit 5 offset 1",
            [(1, 80), (1, 100)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_rows_and_one_run_per_execution(self, db, name):
        block, rows = self.BLOCKS[name]
        calls = {"n": 0}

        def probe(x):
            calls["n"] += 1
            return x

        db.register_function("probe", probe)
        inner = block.replace("from emp", "from (select name, probe(dept_id) "
                              "as dept_id, salary from emp) e", 1)
        if rows is not None:
            assert sorted(db.query(f"select k, s from ({inner}) d").rows) == rows
        # Each of the 3 dept rows runs the correlated EXISTS; the derived
        # table inside it runs once: 3 emp rows, 3 probe calls.
        calls["n"] = 0
        result = db.query(
            f"select name from dept where exists (select 1 from ({inner}) d "
            "where d.k = dept.id)"
        )
        assert calls["n"] == 3
        expected = db.query(
            "select name from dept where id in (select k from "
            f"({block}) d)"
        )
        assert sorted(result.rows) == sorted(expected.rows)

    def test_a_streamed_block_keeps_explain_analyze_rows(self, db):
        sql = (
            "select d.k, count(*) from (select dept_id as k from emp "
            "where salary > 70) d join dept on d.k = dept.id group by d.k"
        )
        from repro.obs.tracing import Trace

        prepared, trace = db.prepare(sql), Trace()
        assert prepared.execute(trace=trace).rows == [(1, 2)]
        text = "\n".join(prepared.describe(annotate=trace.annotation))
        assert "Subquery d (rows=2" in text
