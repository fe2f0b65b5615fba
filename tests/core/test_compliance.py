"""Object-level compliance tests (Defs. 5-6) against the paper's examples,
and agreement between object-level and mask-level checks."""

import pytest

from repro.core import (
    ActionType,
    Aggregation,
    JointAccess,
    MaskLayout,
    Multiplicity,
    Policy,
    PolicyRule,
    SignatureDeriver,
    action_complies_with_policy,
    action_complies_with_rule,
    complies_with,
    default_purpose_set,
    query_complies_with_policy,
    table_signature_complies,
)
from repro.core.signatures import ActionSignature

PURPOSES = default_purpose_set()


def direct_single_no_agg(*joint):
    return ActionType.direct(
        Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of(*joint)
    )


def direct_single_agg(*joint):
    return ActionType.direct(
        Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of(*joint)
    )


class TestExample1IndirectVsDirect:
    """Bob's policy allows only the indirect access to diet_type."""

    RULE = PolicyRule.of(
        ["diet_type"], ["p1"], ActionType.indirect(JointAccess.of("s"))
    )

    def test_filtering_query_complies(self, scenario):
        # q1: diet_type used only in WHERE → indirect access.
        deriver = SignatureDeriver(scenario.admin, scenario.admin)
        signature = deriver.derive(
            "select food_intolerances from nutritional_profiles "
            "where diet_type like 'vegan'",
            "p1",
        )
        table_signature = signature.table_signature("nutritional_profiles")
        diet = [a for a in table_signature.actions if "diet_type" in a.columns]
        assert all(
            action_complies_with_rule(a, "p1", self.RULE) for a in diet
        )

    def test_select_star_does_not_comply(self, scenario):
        # q2: select * shows diet_type → direct access, not authorized.
        deriver = SignatureDeriver(scenario.admin, scenario.admin)
        signature = deriver.derive(
            "select * from nutritional_profiles", "p1"
        )
        table_signature = signature.table_signature("nutritional_profiles")
        diet = [a for a in table_signature.actions if "diet_type" in a.columns]
        assert not any(
            action_complies_with_rule(a, "p1", self.RULE) for a in diet
        )


class TestExample7ActionTypeCompliance:
    def test_example7_joint_access_subset(self):
        rule_action = direct_single_agg("i", "q", "s")
        signature_action = direct_single_agg("i", "q")
        assert signature_action.complies_with(rule_action)

    def test_reverse_does_not_hold(self):
        rule_action = direct_single_agg("i", "q")
        signature_action = direct_single_agg("i", "q", "s")
        assert not signature_action.complies_with(rule_action)


class TestRuleCompliance:
    SIGNATURE = ActionSignature(
        frozenset({"temperature"}), direct_single_no_agg("s")
    )

    def rule(self, columns=("temperature", "beats"), purposes=("p1", "p3"),
             action=None):
        return PolicyRule.of(
            columns, purposes, action or direct_single_no_agg("s")
        )

    def test_complies(self):
        assert action_complies_with_rule(self.SIGNATURE, "p1", self.rule())

    def test_purpose_not_granted(self):
        assert not action_complies_with_rule(self.SIGNATURE, "p2", self.rule())

    def test_columns_not_subset(self):
        rule = self.rule(columns=("beats",))
        assert not action_complies_with_rule(self.SIGNATURE, "p1", rule)

    def test_action_type_mismatch(self):
        rule = self.rule(action=direct_single_agg("s"))
        assert not action_complies_with_rule(self.SIGNATURE, "p1", rule)

    def test_pass_all_and_pass_none(self):
        assert action_complies_with_rule(self.SIGNATURE, "p1", PolicyRule.pass_all())
        assert not action_complies_with_rule(
            self.SIGNATURE, "p1", PolicyRule.pass_none()
        )

    def test_policy_compliance_is_any_rule(self):
        policy = Policy(
            "sensed_data", (PolicyRule.pass_none(), self.rule())
        )
        assert action_complies_with_policy(self.SIGNATURE, "p1", policy)
        none_policy = Policy("sensed_data", (PolicyRule.pass_none(),))
        assert not action_complies_with_policy(self.SIGNATURE, "p1", none_policy)


class TestQueryCompliance:
    def test_query_complies_when_every_block_complies(self, scenario):
        deriver = SignatureDeriver(scenario.admin, scenario.admin)
        signature = deriver.derive(
            "select temperature from sensed_data", "p1"
        )
        policy = Policy("sensed_data", (PolicyRule.pass_all(),))
        assert query_complies_with_policy(signature, policy)

    def test_subquery_violation_detected(self, scenario):
        deriver = SignatureDeriver(scenario.admin, scenario.admin)
        signature = deriver.derive(
            "select user_id from users where nutritional_profile_id in "
            "(select profile_id from nutritional_profiles)",
            "p1",
        )
        pass_none = Policy("nutritional_profiles", (PolicyRule.pass_none(),))
        assert not query_complies_with_policy(signature, pass_none)
        # A policy on an unrelated table is unaffected.
        unrelated = Policy("sensed_data", (PolicyRule.pass_none(),))
        assert query_complies_with_policy(signature, unrelated)

    def test_table_signature_requires_all_actions(self, scenario):
        deriver = SignatureDeriver(scenario.admin, scenario.admin)
        signature = deriver.derive(
            "select temperature from sensed_data where beats > 100", "p1"
        )
        sensed = signature.table_signature("sensed_data")
        # Policy only covers temperature: the indirect access to beats fails.
        policy = Policy(
            "sensed_data",
            (
                PolicyRule.of(
                    ["temperature"], ["p1"], direct_single_no_agg("s")
                ),
            ),
        )
        assert not table_signature_complies(sensed, "p1", policy)


class TestMaskObjectAgreement:
    """Defs. 15-16 (masks) must agree with Defs. 5-6 (objects)."""

    LAYOUT = MaskLayout(
        "sensed_data",
        ("watch_id", "timestamp", "temperature", "position", "beats"),
        PURPOSES,
    )

    CASES = [
        # (signature columns, signature action, purpose, rule)
        (
            ("temperature",), direct_single_no_agg("s"), "p1",
            PolicyRule.of(["temperature"], ["p1"], direct_single_no_agg("s")),
        ),
        (
            ("temperature",), direct_single_no_agg("s"), "p2",
            PolicyRule.of(["temperature"], ["p1"], direct_single_no_agg("s")),
        ),
        (
            ("temperature", "beats"), direct_single_agg("i"), "p3",
            PolicyRule.of(
                ["temperature", "beats", "position"], ["p3"],
                direct_single_agg("i", "q"),
            ),
        ),
        (
            ("beats",), ActionType.indirect(JointAccess.of("q")), "p4",
            PolicyRule.of(["beats"], ["p4"], ActionType.indirect(JointAccess.of("q", "s"))),
        ),
        (
            ("beats",), ActionType.indirect(JointAccess.of("q", "i")), "p4",
            PolicyRule.of(["beats"], ["p4"], ActionType.indirect(JointAccess.of("q"))),
        ),
        (
            ("position",), direct_single_no_agg(), "p5",
            PolicyRule.pass_all(),
        ),
        (
            ("position",), direct_single_no_agg(), "p5",
            PolicyRule.pass_none(),
        ),
        (  # aggregate under a wider joint access than the signature's
            ("temperature",), direct_single_agg("q", "s"), "p6",
            PolicyRule.of(
                ["temperature", "beats"], ["p1", "p6"],
                direct_single_agg("i", "q", "s"),
            ),
        ),
    ]

    @pytest.mark.parametrize("columns,action,purpose,rule", CASES)
    def test_agreement(self, columns, action, purpose, rule):
        signature = ActionSignature(frozenset(columns), action)
        object_level = action_complies_with_rule(signature, purpose, rule)
        mask_level = complies_with(
            self.LAYOUT.signature_mask(columns, action, purpose),
            self.LAYOUT.rule_mask(rule),
        )
        assert object_level == mask_level
