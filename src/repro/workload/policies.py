"""Scattered-policy generation with a target selectivity (Section 6.1).

The paper benchmarks enforcement against *scattered* policies: policies
whose rules are all *pass-all* (rule mask of '1's — complies with any action
signature) or *pass-none* ('0's — complies with nothing).  To reach a
selectivity *s* with respect to no-filtering queries over *n* tuples,
``s·n`` tuples receive policies made only of pass-none rules and
``(1-s)·n`` tuples receive policies that include one pass-all rule.  Per the
paper's footnote 15, each policy has 1–3 rules and the position of the
compliant rule varies uniformly.

Policies are assigned per *entity*: one entity per row for ``users`` and
``nutritional_profiles``, one entity per smart watch for ``sensed_data``
(all samples of a watch share a policy — Section 6's data generation rule 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import Policy, PolicyRule
from ..core.actions import (
    ActionType,
    Aggregation,
    JointAccess,
    Multiplicity,
)
from ..core.admin import AccessControlManager, POLICY_COLUMN
from ..engine.types import BitString


@dataclass(frozen=True)
class ScatteredPolicySpec:
    """Parameters of Section 6.1's policy generator."""

    selectivity: float
    min_rules: int = 1
    max_rules: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")
        if not 1 <= self.min_rules <= self.max_rules:
            raise ValueError("invalid rule-count range")


def scattered_policy(
    table: str, compliant: bool, rule_count: int, pass_all_position: int
) -> Policy:
    """One scattered policy.

    A *compliant* policy places one pass-all rule at ``pass_all_position``
    among ``rule_count`` rules, the rest being pass-none; a non-compliant
    one is all pass-none rules.
    """
    rules: list[PolicyRule] = [PolicyRule.pass_none() for _ in range(rule_count)]
    if compliant:
        rules[pass_all_position % rule_count] = PolicyRule.pass_all()
    return Policy(table=table, rules=tuple(rules))


def compliance_flags(entities: int, selectivity: float, rng: random.Random) -> list[bool]:
    """Shuffled entity→compliant assignment hitting the target selectivity.

    Exactly ``round(selectivity * entities)`` entities are non-compliant.
    """
    non_compliant = round(selectivity * entities)
    flags = [False] * non_compliant + [True] * (entities - non_compliant)
    rng.shuffle(flags)
    return flags


def apply_scattered_policies(
    admin: AccessControlManager,
    table: str,
    spec: ScatteredPolicySpec,
    rng: random.Random,
    entity_column: str | None = None,
) -> dict[object, bool]:
    """Generate and store scattered policies for every tuple of ``table``.

    When ``entity_column`` is given, rows sharing a value of that column
    form one entity and share a policy (the paper's per-watch grouping for
    ``sensed_data``); otherwise each row is its own entity.

    Returns the entity → compliant mapping (keyed by entity value or row
    index), which the benchmarks use to predict expected result sizes.
    """
    admin.require_configured()
    layout = admin.layout(table)
    storage = admin.database.table(table)
    policy_index = storage.schema.column_index(POLICY_COLUMN)

    def make_mask(compliant: bool) -> BitString:
        rule_count = rng.randint(spec.min_rules, spec.max_rules)
        position = rng.randrange(rule_count)
        policy = scattered_policy(table, compliant, rule_count, position)
        return layout.policy_mask(policy)

    if entity_column is None:
        flags = compliance_flags(len(storage), spec.selectivity, rng)
        assignment: dict[object, bool] = {}
        new_rows = []
        for index, (row, compliant) in enumerate(zip(storage.rows, flags)):
            mask = make_mask(compliant)
            new_rows.append(
                (*row[:policy_index], mask, *row[policy_index + 1 :])
            )
            assignment[index] = compliant
        storage.rows = new_rows
        return assignment

    entity_index = storage.schema.column_index(entity_column)
    entities: list[object] = []
    seen: set = set()
    for row in storage.rows:
        value = row[entity_index]
        if value not in seen:
            seen.add(value)
            entities.append(value)
    flags = compliance_flags(len(entities), spec.selectivity, rng)
    assignment = dict(zip(entities, flags))
    masks = {value: make_mask(compliant) for value, compliant in assignment.items()}
    storage.rows = [
        (*row[:policy_index], masks[row[entity_index]], *row[policy_index + 1 :])
        for row in storage.rows
    ]
    return assignment


def random_rule(
    columns: tuple[str, ...],
    purpose_ids: tuple[str, ...],
    category_codes: tuple[str, ...],
    rng: random.Random,
) -> PolicyRule:
    """One randomized rule: pass-all, pass-none or a structured ⟨Cl, Pu, At⟩.

    Structured rules draw a non-empty column subset, a non-empty purpose
    subset, a random indirection (direct rules get random multiplicity and
    aggregation) and a random joint-access category set — so generated
    policies exercise every dimension of the Def. 5/6 compliance relation,
    not just the scattered all-ones/all-zeros masks of Section 6.1.
    """
    roll = rng.random()
    if roll < 0.2:
        return PolicyRule.pass_all()
    if roll < 0.4:
        return PolicyRule.pass_none()
    rule_columns = rng.sample(list(columns), k=rng.randint(1, len(columns)))
    rule_purposes = rng.sample(list(purpose_ids), k=rng.randint(1, len(purpose_ids)))
    joint = JointAccess(
        frozenset(code for code in category_codes if rng.random() < 0.5)
    )
    if rng.random() < 0.3:
        action = ActionType.indirect(joint)
    else:
        action = ActionType.direct(
            rng.choice((Multiplicity.SINGLE, Multiplicity.MULTIPLE)),
            rng.choice((Aggregation.AGGREGATION, Aggregation.NO_AGGREGATION)),
            joint,
        )
    return PolicyRule.of(rule_columns, rule_purposes, action)


def random_policy(
    table: str,
    columns: tuple[str, ...],
    purpose_ids: tuple[str, ...],
    category_codes: tuple[str, ...],
    rng: random.Random,
    min_rules: int = 1,
    max_rules: int = 3,
) -> Policy:
    """A policy of 1–3 independently randomized rules (see :func:`random_rule`)."""
    count = rng.randint(min_rules, max_rules)
    return Policy(
        table=table,
        rules=tuple(
            random_rule(columns, purpose_ids, category_codes, rng)
            for _ in range(count)
        ),
    )


def apply_random_policies(
    admin: AccessControlManager,
    table: str,
    rng: random.Random,
    entity_column: str | None = None,
    min_rules: int = 1,
    max_rules: int = 3,
) -> int:
    """Store an independently randomized policy on every entity of ``table``.

    Unlike :func:`apply_scattered_policies` there is no target selectivity:
    every entity (row, or group of rows sharing ``entity_column``) draws its
    own structured policy, which is what the differential fuzzer uses to
    exercise mask compliance beyond the pass-all/pass-none extremes.
    Returns the number of entities assigned.
    """
    admin.require_configured()
    layout = admin.layout(table)
    storage = admin.database.table(table)
    policy_index = storage.schema.column_index(POLICY_COLUMN)
    purpose_ids = layout.purpose_ids
    category_codes = tuple(category.code for category in admin.categories)

    def make_mask() -> BitString:
        policy = random_policy(
            table, layout.columns, purpose_ids, category_codes, rng,
            min_rules, max_rules,
        )
        return layout.policy_mask(policy)

    if entity_column is None:
        storage.rows = [
            (*row[:policy_index], make_mask(), *row[policy_index + 1 :])
            for row in storage.rows
        ]
        return len(storage.rows)

    entity_index = storage.schema.column_index(entity_column)
    masks: dict[object, BitString] = {}
    for row in storage.rows:
        value = row[entity_index]
        if value not in masks:
            masks[value] = make_mask()
    storage.rows = [
        (*row[:policy_index], masks[row[entity_index]], *row[policy_index + 1 :])
        for row in storage.rows
    ]
    return len(masks)


def apply_experiment_policies(
    scenario,
    selectivity: float,
    seed: int = 411595,
    min_rules: int = 1,
    max_rules: int = 3,
) -> dict[str, dict[object, bool]]:
    """Section 6's policy setup: same selectivity on all three tables.

    ``users`` and ``nutritional_profiles`` get per-tuple policies,
    ``sensed_data`` per-watch policies.  Returns per-table assignments.
    """
    rng = random.Random(seed)
    spec = ScatteredPolicySpec(selectivity, min_rules, max_rules)
    return {
        "users": apply_scattered_policies(scenario.admin, "users", spec, rng),
        "nutritional_profiles": apply_scattered_policies(
            scenario.admin, "nutritional_profiles", spec, rng
        ),
        "sensed_data": apply_scattered_policies(
            scenario.admin, "sensed_data", spec, rng, entity_column="watch_id"
        ),
    }
