"""EXPLAIN plan-description tests."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table a (k integer, v integer)")
    database.execute("create table b (k integer, w integer)")
    database.execute("insert into a values (1, 10)")
    database.execute("insert into b values (1, 20)")
    return database


class TestExplain:
    def test_seq_scan(self, db):
        plan = db.explain("select v from a")
        assert "SeqScan a" in plan

    def test_alias_shown(self, db):
        plan = db.explain("select x.v from a x")
        assert "SeqScan a as x" in plan

    def test_hash_join_for_equi_condition(self, db):
        plan = db.explain("select 1 from a join b on a.k = b.k")
        assert "HashJoin (inner) on a.k = b.k" in plan

    def test_nested_loop_for_non_equi(self, db):
        plan = db.explain("select 1 from a join b on a.k < b.k")
        assert "NestedLoop (inner)" in plan

    def test_cross_join(self, db):
        plan = db.explain("select 1 from a, b")
        assert "NestedLoop (cross)" in plan

    def test_pushed_filter_visible_at_scan(self, db):
        plan = db.explain(
            "select v from a join b on a.k = b.k where a.v > 5"
        )
        assert "Filter [a.v > 5]" in plan
        assert "Where" not in plan  # fully pushed

    def test_residual_where_shown(self, db):
        plan = db.explain(
            "select v from a join b on a.k = b.k where a.v + b.w > 5"
        )
        assert "Where [a.v + b.w > 5]" in plan

    def test_aggregate_and_sort_flags(self, db):
        plan = db.explain("select k, sum(v) from a group by k order by k limit 3")
        assert "[aggregate]" in plan
        assert "[sort]" in plan
        assert "[limit 3]" in plan

    def test_having_shown(self, db):
        plan = db.explain("select k from a group by k having count(*) > 1")
        assert "Having [count(*) > 1]" in plan

    def test_derived_table(self, db):
        plan = db.explain("select s.v from (select v from a) s")
        assert "Subquery s" in plan
        assert "SeqScan a" in plan

    def test_set_operation_branches(self, db):
        plan = db.explain("select v from a union select w from b")
        assert plan.count("Select") == 2
        assert plan.splitlines() == [
            "Union arm 1/2",
            "  Select",
            "    SeqScan a (cols: v)",
            "Union arm 2/2",
            "  Select",
            "    SeqScan b (cols: w)",
        ]

    def test_pruned_scan_lists_its_columns(self, db):
        plan = db.explain("select v from a where v > 0")
        assert plan.splitlines()[-1] == "    SeqScan a (cols: v)"

    def test_full_width_scan_lists_no_columns(self, db):
        assert "(cols:" not in db.explain("select * from a")

    def test_plan_tree_printed_once(self, db):
        plan = db.explain("select k, sum(v) from a group by k order by k")
        assert plan.count("SeqScan a") == 1
        assert plan.splitlines()[0] == "Select [aggregate] [sort]"

    def test_no_from(self, db):
        plan = db.explain("select 1")
        assert "Values (one row)" in plan

    def test_non_select_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.explain("delete from a")

    def test_left_join_disables_pushdown(self, db):
        plan = db.explain(
            "select v from a left join b on a.k = b.k where a.v > 5"
        )
        # The filter must stay above the join, not at the scan.
        assert "Where [a.v > 5]" in plan
        assert "Filter" not in plan


def test_enforced_plan_prints_pruned_columns_once(policy_scenario):
    """``monitor.explain`` prints the physical tree once, with the pruned
    scan's column list on its line — the hoisted guard reads the policy
    column through the bitmap, so it is not among them."""
    result = policy_scenario.monitor.explain(
        "select beats from sensed_data where beats > 80", "p6"
    )
    lines = [line for (line,) in result.rows]
    (scan,) = [line for line in lines if "Scan sensed_data" in line]
    assert scan.strip() == "SeqScan sensed_data (cols: beats)"
    assert sum(line.startswith("Select") for line in lines) == 1
