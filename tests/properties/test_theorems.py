"""Theorems 1 (security) and 2 (completeness) of Section 5.7, end to end.

For the enforced per-tuple semantics, both theorems together say: the result
of the rewritten query equals the result of the *original* query run against
a database in which every protected table is first restricted to the tuples
whose policies comply with all of the query's action signatures for that
table.  We verify this equivalence on randomized policies and the whole
query workload (q1-q8 plus seeded random batches).
"""

import random

import pytest

from repro.core import complies_with
from repro.core.admin import POLICY_COLUMN
from repro.core.signatures import SignatureDeriver
from repro.engine import Database
from repro.sql import ast, parse_select
from repro.workload import (
    AD_HOC_QUERIES,
    apply_experiment_policies,
    build_patients_scenario,
    random_queries,
)


def reference_result(scenario, sql, purpose):
    """Original query over policy-filtered table snapshots (the oracle)."""
    select = parse_select(sql)
    deriver = SignatureDeriver(scenario.admin, scenario.admin)
    signature = deriver.derive(select, purpose)

    # Collect, per base table, every action-signature mask from every block.
    masks_per_table: dict[str, list] = {}
    for block in signature.all_signatures():
        for table_signature in block.tables:
            table = table_signature.table
            if not scenario.admin.has_table(table):
                continue
            layout = scenario.admin.layout(table)
            for action in table_signature.actions:
                masks_per_table.setdefault(table, []).append(
                    layout.signature_mask(
                        action.columns, action.action_type, block.purpose
                    )
                )

    filtered = Database("reference")
    filtered.functions = scenario.database.functions
    for name in scenario.database.table_names():
        source = scenario.database.table(name)
        clone = filtered.create_table(source.schema)
        if name in masks_per_table:
            policy_index = source.schema.column_index(POLICY_COLUMN)
            masks = masks_per_table[name]
            clone.rows = [
                row
                for row in source.rows
                if row[policy_index] is not None
                and all(complies_with(mask, row[policy_index]) for mask in masks)
            ]
        else:
            clone.rows = list(source.rows)
    return filtered.query(select)


def sorted_rows(result):
    return sorted(
        tuple(str(value) for value in row) for row in result.rows
    )


@pytest.fixture(scope="module")
def random_policy_scenarios():
    """Three scenarios with differently-seeded scattered policies."""
    scenarios = []
    for seed, selectivity in ((11, 0.0), (12, 0.35), (13, 0.7)):
        scenario = build_patients_scenario(patients=12, samples_per_patient=4)
        apply_experiment_policies(scenario, selectivity, seed=seed)
        scenarios.append(scenario)
    return scenarios


@pytest.mark.parametrize("query", AD_HOC_QUERIES, ids=lambda q: q.name)
def test_theorems_on_adhoc_queries(random_policy_scenarios, query):
    for scenario in random_policy_scenarios:
        enforced = scenario.monitor.execute(query.sql, "p6")
        oracle = reference_result(scenario, query.sql, "p6")
        assert sorted_rows(enforced) == sorted_rows(oracle), query.name


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_theorems_on_random_queries(random_policy_scenarios, seed):
    scenario = random_policy_scenarios[seed % len(random_policy_scenarios)]
    queries = random_queries(
        seed=seed,
        patients=scenario.patients,
        samples=scenario.samples_per_patient,
    )
    for query in queries:
        enforced = scenario.monitor.execute(query.sql, "p3")
        oracle = reference_result(scenario, query.sql, "p3")
        assert sorted_rows(enforced) == sorted_rows(oracle), query.name


def test_security_no_unauthorized_supplier_tuples(random_policy_scenarios):
    """Theorem 1 in its direct reading: every tuple of the enforced result
    of `select user_id from users` stems from a policy-compliant user row."""
    scenario = random_policy_scenarios[1]
    enforced = scenario.monitor.execute("select user_id from users", "p6")
    deriver = SignatureDeriver(scenario.admin, scenario.admin)
    signature = deriver.derive("select user_id from users", "p6")
    layout = scenario.admin.layout("users")
    masks = [
        layout.signature_mask(a.columns, a.action_type, "p6")
        for a in signature.table_signature("users").actions
    ]
    users = scenario.database.table("users")
    id_index = users.schema.column_index("user_id")
    policy_index = users.schema.column_index(POLICY_COLUMN)
    compliant_ids = {
        row[id_index]
        for row in users.rows
        if row[policy_index] is not None
        and all(complies_with(mask, row[policy_index]) for mask in masks)
    }
    assert set(enforced.column("user_id")) <= compliant_ids


def test_completeness_all_compliant_tuples_survive(random_policy_scenarios):
    """Theorem 2: every compliant supplier tuple contributes to the result."""
    scenario = random_policy_scenarios[1]
    enforced = scenario.monitor.execute("select user_id from users", "p6")
    oracle = reference_result(scenario, "select user_id from users", "p6")
    assert sorted_rows(enforced) == sorted_rows(oracle)
    assert len(enforced) > 0  # selectivity 0.35 leaves compliant rows
