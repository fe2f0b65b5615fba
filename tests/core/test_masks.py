"""Mask encoding tests — bit-for-bit against the paper's Examples 9-12,
plus Listing 1's compliesWith semantics (Defs. 15-16)."""

import pytest

from repro.core import (
    ActionType,
    Aggregation,
    JointAccess,
    MaskLayout,
    Multiplicity,
    Policy,
    PolicyRule,
    action_mask_length,
    complies_with,
    default_purpose_set,
)
from repro.core.categories import CategoryRegistry, DataCategory
from repro.engine.types import BitString
from repro.errors import MaskError, PolicyError

SENSED_COLUMNS = ("watch_id", "timestamp", "temperature", "position", "beats")


@pytest.fixture()
def layout():
    return MaskLayout("sensed_data", SENSED_COLUMNS, default_purpose_set())


def rule_r2():
    """Example 4's rule r2: direct, single source, no aggregation,
    joint access to sensitive only, purposes {p1,p3,p4,p6}."""
    action = ActionType.direct(
        Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s")
    )
    return PolicyRule.of(["temperature", "beats"], ["p1", "p3", "p4", "p6"], action)


class TestPaperExamples:
    def test_example9_purpose_mask(self, layout):
        assert layout.purpose_mask(["p1", "p3", "p4", "p6"]).bits() == "10110100"

    def test_example10_column_mask(self, layout):
        assert layout.column_mask(["temperature", "beats"]).bits() == "00101"

    def test_example11_action_type_mask(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s")
        )
        assert layout.action_type_mask(action).bits() == "0110010010"

    def test_example12_rule_mask(self, layout):
        # Cm + Pm + Am = 23 bits, padded to 24 (the paper's "1 bit added").
        mask = layout.rule_mask(rule_r2())
        assert mask.bits() == "00101" + "10110100" + "0110010010" + "0"
        assert len(mask) == 24

    def test_rule_length_is_byte_aligned(self, layout):
        assert layout.payload_length == 23
        assert layout.rule_length == 24
        assert layout.padding == 1


class TestLayoutSizes:
    def test_action_mask_length_matches_paper(self):
        # 6 operation bits + 4 categories = 10 (Def. 11's examples).
        assert action_mask_length(CategoryRegistry()) == 10
        assert action_mask_length(4) == 10

    def test_custom_category_grows_action_mask(self):
        registry = CategoryRegistry()
        registry.add(DataCategory("b", "biometric"))
        layout = MaskLayout(
            "sensed_data", SENSED_COLUMNS, default_purpose_set(), registry
        )
        assert layout.action_length == 11
        assert layout.payload_length == 24
        assert layout.rule_length == 24  # already aligned

    def test_three_column_table_layout(self):
        layout = MaskLayout(
            "users",
            ("user_id", "watch_id", "nutritional_profile_id"),
            default_purpose_set(),
        )
        assert layout.payload_length == 3 + 8 + 10
        assert layout.rule_length == 24

    def test_duplicate_columns_rejected(self):
        with pytest.raises(MaskError):
            MaskLayout("t", ("a", "A"), default_purpose_set())


class TestEncodingErrors:
    def test_unknown_purpose_rejected(self, layout):
        with pytest.raises(PolicyError):
            layout.purpose_mask(["p99"])

    def test_unknown_column_rejected(self, layout):
        with pytest.raises(PolicyError):
            layout.column_mask(["no_such_column"])

    def test_policy_table_mismatch_rejected(self, layout):
        policy = Policy("users", (PolicyRule.pass_all(),))
        with pytest.raises(MaskError):
            layout.policy_mask(policy)


class TestSpecialRules:
    def test_pass_all_is_all_ones(self, layout):
        assert layout.rule_mask(PolicyRule.pass_all()) == BitString.ones(24)

    def test_pass_none_is_all_zeros(self, layout):
        assert layout.rule_mask(PolicyRule.pass_none()) == BitString.zeros(24)


class TestPolicyMasks:
    def test_policy_mask_concatenates_rules(self, layout):
        policy = Policy(
            "sensed_data", (PolicyRule.pass_none(), rule_r2(), PolicyRule.pass_all())
        )
        mask = layout.policy_mask(policy)
        assert len(mask) == 72
        parts = layout.split_policy_mask(mask)
        assert parts[0] == BitString.zeros(24)
        assert parts[1] == layout.rule_mask(rule_r2())
        assert parts[2] == BitString.ones(24)

    def test_split_rejects_misaligned_mask(self, layout):
        with pytest.raises(MaskError):
            layout.split_policy_mask(BitString.zeros(25))

    def test_decode_rule_mask_roundtrip(self, layout):
        decoded = layout.decode_rule_mask(layout.rule_mask(rule_r2()))
        assert decoded["columns"] == {"temperature", "beats"}
        assert decoded["purposes"] == {"p1", "p3", "p4", "p6"}
        assert decoded["joint_access"].allowed == frozenset({"s"})

    def test_decode_wrong_length_rejected(self, layout):
        with pytest.raises(MaskError):
            layout.decode_rule_mask(BitString.zeros(16))


class TestSignatureMasks:
    def test_signature_mask_layout(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("i", "q")
        )
        mask = layout.signature_mask(["temperature"], action, "p6")
        # Cm=00100, Pm(p6)=00000100, Am: i0 d1 s1 m0 a1 n0 ja=1,1,0,0
        assert mask.bits() == "00100" + "00000100" + "0110101100" + "0"

    def test_indirect_signature_has_zero_ms_ag_bits(self, layout):
        mask = layout.signature_mask(
            ["watch_id"], ActionType.indirect(JointAccess.of("i")), "p1"
        )
        action_bits = mask.bits()[13:23]
        assert action_bits == "10" + "00" + "00" + "1000"


class TestCompliesWith:
    """Listing 1 semantics."""

    def make(self, layout, rules):
        return layout.policy_mask(Policy("sensed_data", tuple(rules)))

    def signature(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s")
        )
        return layout.signature_mask(["temperature"], action, "p1")

    def test_complies_with_matching_rule(self, layout):
        assert complies_with(self.signature(layout), self.make(layout, [rule_r2()]))

    def test_any_rule_suffices(self, layout):
        policy = self.make(
            layout, [PolicyRule.pass_none(), PolicyRule.pass_none(), rule_r2()]
        )
        assert complies_with(self.signature(layout), policy)

    def test_pass_none_only_policy_rejects(self, layout):
        policy = self.make(layout, [PolicyRule.pass_none()])
        assert not complies_with(self.signature(layout), policy)

    def test_pass_all_accepts_anything(self, layout):
        policy = self.make(layout, [PolicyRule.pass_all()])
        assert complies_with(self.signature(layout), policy)

    @pytest.mark.parametrize(
        "rules, first", [(3, False), (8, True), (8, False)],
        ids=["3rules-last", "8rules-first", "8rules-last"],
    )
    def test_pass_all_accepts_at_any_position(self, layout, rules, first):
        """Listing 1 accepts on the pass-all rule wherever it stands among
        pass-none ones (footnote 15 randomizes its position)."""
        others = [PolicyRule.pass_none()] * (rules - 1)
        ordered = (
            [PolicyRule.pass_all(), *others]
            if first
            else [*others, PolicyRule.pass_all()]
        )
        assert complies_with(self.signature(layout), self.make(layout, ordered))

    def test_wrong_purpose_rejected(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s")
        )
        signature = layout.signature_mask(["temperature"], action, "p2")
        assert not complies_with(signature, self.make(layout, [rule_r2()]))

    def test_column_superset_rejected(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s")
        )
        signature = layout.signature_mask(
            ["temperature", "position"], action, "p1"
        )
        assert not complies_with(signature, self.make(layout, [rule_r2()]))

    def test_joint_access_superset_rejected(self, layout):
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, JointAccess.of("s", "i")
        )
        signature = layout.signature_mask(["temperature"], action, "p1")
        assert not complies_with(signature, self.make(layout, [rule_r2()]))

    def test_misaligned_policy_mask_is_non_compliant(self, layout):
        signature = self.signature(layout)
        assert not complies_with(signature, BitString.zeros(25))

    def test_empty_signature_mask_is_non_compliant(self, layout):
        assert not complies_with(BitString.zeros(0), BitString.zeros(24))

    def test_null_policy_means_no_access_through_udf(self, layout):
        # The engine registers complieswith as STRICT: a NULL policy column
        # yields NULL, which WHERE treats as not-true. Here we just check
        # the mask function itself never sees None.
        signature = self.signature(layout)
        assert complies_with(signature, layout.rule_mask(PolicyRule.pass_all()))
