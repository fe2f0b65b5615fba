"""Query-rewriting tests (Listing 2 / Listing 3)."""

import pytest

from repro.core import Policy, PolicyRule, rewrite_query
from repro.core.admin import COMPLIES_WITH
from repro.core.signatures import SignatureDeriver
from repro.sql import ast, parse_select
from repro.sql.printer import print_select

FIG3_QUERY = (
    "select user_id, avg(beats) from users join sensed_data "
    "on users.watch_id = sensed_data.watch_id "
    "group by user_id having avg(beats) > 90"
)


def rewrite(scenario, sql, purpose="p3"):
    deriver = SignatureDeriver(scenario.admin, scenario.admin)
    select = parse_select(sql)
    signature = deriver.derive(select, purpose)
    return rewrite_query(select, signature, scenario.admin)


def compliance_calls(expression):
    """All complieswith calls in an expression tree (not entering subqueries)."""
    if expression is None:
        return []
    return [
        node
        for node in ast.walk_expression(expression)
        if isinstance(node, ast.FunctionCall) and node.name == COMPLIES_WITH
    ]


class TestListing3Shape:
    def test_six_conjuncts_for_fig3_query(self, scenario):
        rewritten = rewrite(scenario, FIG3_QUERY)
        calls = compliance_calls(rewritten.where)
        # 3 action signatures per table (Figure 3) → 6 conjuncts (Listing 3).
        assert len(calls) == 6

    def test_conjuncts_reference_policy_columns(self, scenario):
        rewritten = rewrite(scenario, FIG3_QUERY)
        targets = {
            call.args[1].table for call in compliance_calls(rewritten.where)
        }
        assert targets == {"users", "sensed_data"}
        for call in compliance_calls(rewritten.where):
            assert call.args[1].name == "policy"
            assert isinstance(call.args[0], ast.BitStringLiteral)

    def test_other_clauses_untouched(self, scenario):
        original = parse_select(FIG3_QUERY)
        rewritten = rewrite(scenario, FIG3_QUERY)
        assert rewritten.items == original.items
        assert rewritten.group_by == original.group_by
        assert rewritten.having == original.having
        assert rewritten.sources == original.sources

    def test_rewritten_sql_parses(self, scenario):
        rewritten = rewrite(scenario, FIG3_QUERY)
        printed = print_select(rewritten)
        assert print_select(parse_select(printed)) == printed


class TestOriginalPredicateFirst:
    def test_original_where_precedes_compliance(self, scenario):
        rewritten = rewrite(
            scenario, "select temperature from sensed_data where beats > 100"
        )
        # The top-level conjunction is left-deep: the left-most leaf must be
        # the original predicate so short-circuiting skips policy checks on
        # filtered tuples.
        node = rewritten.where
        while isinstance(node, ast.BinaryOp) and node.op == "AND":
            node = node.left
        assert isinstance(node, ast.BinaryOp) and node.op == ">"

    def test_query_without_where_gets_pure_compliance_where(self, scenario):
        rewritten = rewrite(scenario, "select temperature from sensed_data")
        calls = compliance_calls(rewritten.where)
        assert len(calls) == 1


class TestSubqueryRewriting:
    def test_in_subquery_rewritten(self, scenario):
        rewritten = rewrite(
            scenario,
            "select user_id from users where nutritional_profile_id in "
            "(select profile_id from nutritional_profiles "
            "where diet_type like 'vegan')",
        )
        in_predicate = None
        for node in ast.walk_expression(rewritten.where):
            if isinstance(node, ast.InSubquery):
                in_predicate = node
        assert in_predicate is not None
        inner_calls = compliance_calls(in_predicate.subquery.where)
        assert any(
            call.args[1].table == "nutritional_profiles" for call in inner_calls
        )

    def test_derived_table_rewritten_inside_not_outside(self, scenario):
        rewritten = rewrite(
            scenario,
            "select user_id, avg(s1.b) from users join "
            "(select watch_id as w, beats as b from sensed_data "
            "where beats > 100) s1 on users.watch_id = s1.w group by user_id",
        )
        # Outer WHERE: conjuncts only for users (s1 has no policy column).
        outer_targets = {
            call.args[1].table for call in compliance_calls(rewritten.where)
        }
        assert outer_targets == {"users"}
        # Inner query got its own sensed_data conjuncts.
        join = rewritten.sources[0]
        derived = join.right
        assert isinstance(derived, ast.SubquerySource)
        inner_calls = compliance_calls(derived.select.where)
        assert {call.args[1].table for call in inner_calls} == {"sensed_data"}

    def test_exists_subquery_rewritten(self, scenario):
        rewritten = rewrite(
            scenario,
            "select user_id from users u where exists "
            "(select 1 from sensed_data s where s.watch_id = u.watch_id)",
        )
        exists = None
        for node in ast.walk_expression(rewritten.where):
            if isinstance(node, ast.Exists):
                exists = node
        inner_calls = compliance_calls(exists.subquery.where)
        assert inner_calls  # sensed_data conjuncts present
        # Binding-qualified: the subquery aliases sensed_data as s.
        assert {call.args[1].table for call in inner_calls} == {"s"}


class TestAliasedTables:
    def test_conjunct_uses_alias_binding(self, scenario):
        rewritten = rewrite(
            scenario,
            "select avg(temperature) from sensed_data s join users u "
            "on s.watch_id = u.watch_id where u.user_id like 'user1'",
            purpose="p6",
        )
        targets = {
            call.args[1].table for call in compliance_calls(rewritten.where)
        }
        assert targets == {"s", "u"}


class TestMaskContent:
    def test_masks_are_valid_signature_masks(self, scenario):
        rewritten = rewrite(scenario, FIG3_QUERY)
        layout_users = scenario.admin.layout("users")
        for call in compliance_calls(rewritten.where):
            bits = call.args[0].bits
            assert set(bits) <= {"0", "1"}
            assert len(bits) == layout_users.rule_length  # same for both tables

    def test_execution_against_pass_all_returns_original_result(self, fresh_scenario):
        # With pass-all policies everywhere, rewriting must not change results.
        admin = fresh_scenario.admin
        for table in ("users", "sensed_data", "nutritional_profiles"):
            admin.apply_policy(Policy(table, (PolicyRule.pass_all(),)))
        rewritten = rewrite(fresh_scenario, FIG3_QUERY)
        original = fresh_scenario.database.query(parse_select(FIG3_QUERY))
        enforced = fresh_scenario.database.query(rewritten)
        assert sorted(enforced.rows) == sorted(original.rows)

    def test_execution_against_pass_none_returns_nothing(self, fresh_scenario):
        admin = fresh_scenario.admin
        for table in ("users", "sensed_data", "nutritional_profiles"):
            admin.apply_policy(Policy(table, (PolicyRule.pass_none(),)))
        rewritten = rewrite(fresh_scenario, FIG3_QUERY)
        assert len(fresh_scenario.database.query(rewritten)) == 0


class TestOuterJoins:
    """A policy filters its table, not the join result: the nullable side's
    conjuncts go to the innermost outer join's ON clause."""

    def bindings(self, expression):
        return {call.args[1].table for call in compliance_calls(expression)}

    def test_left_join_nullable_side_goes_to_on(self, scenario):
        rewritten = rewrite(
            scenario,
            "select u.user_id from users u left join sensed_data s "
            "on u.watch_id = s.watch_id",
        )
        assert self.bindings(rewritten.sources[0].condition) == {"s"}
        assert self.bindings(rewritten.where) == {"u"}

    def test_right_join_and_nesting(self, scenario):
        rewritten = rewrite(
            scenario,
            "select users.user_id from users left join sensed_data "
            "on users.watch_id = sensed_data.watch_id right join "
            "nutritional_profiles on users.nutritional_profile_id = "
            "nutritional_profiles.profile_id",
        )
        outer = rewritten.sources[0]
        assert self.bindings(outer.left.condition) == {"sensed_data"}
        assert self.bindings(outer.condition) == {"users"}
        assert self.bindings(rewritten.where) == {"nutritional_profiles"}

    def test_inner_joins_keep_where(self, scenario):
        rewritten = rewrite(scenario, FIG3_QUERY)
        assert compliance_calls(rewritten.sources[0].condition) == []
