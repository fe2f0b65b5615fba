"""Binary mask encodings (Section 5.3) and compliance checks (Section 5.4).

A :class:`MaskLayout` binds the three ingredients that size a rule mask:

* the ordered attribute list of the table (column mask, Def. 10),
* the purpose set (purpose mask, Def. 9 — alphabetic id order, Example 9),
* the category registry (joint-access bits of the action type mask, Def. 11).

Rule masks are ``Cm + Pm + Am`` (Def. 12), zero-padded to the next byte
boundary — the paper pads its 23-bit rules to 24 bits "to allow the
execution of string manipulation operations", and byte alignment generalizes
that choice to any schema.  Policy masks concatenate rule masks (Def. 13);
action signature masks share the rule layout (Def. 14) so that compliance is
a single bitwise AND per rule (Def. 15): ``asm & rm == asm``.

:func:`complies_with` is the Python port of the paper's ``compliesWith``
PostgreSQL C UDF (Listing 1).
"""

from __future__ import annotations

from ..engine.types import BitString
from ..errors import MaskError, PolicyError
from .actions import ActionType, Aggregation, Indirection, JointAccess, Multiplicity
from .categories import CategoryRegistry, DEFAULT_CATEGORIES
from .policy import Policy, PolicyRule, SpecialRule
from .purposes import PurposeSet

#: Number of bits encoding the operation dimensions of an action type mask:
#: ``i d`` (indirection) + ``s m`` (multiplicity) + ``a n`` (aggregation).
OPERATION_BITS = 6


def action_mask_length(categories: CategoryRegistry | int) -> int:
    """Length of an action type mask for a category registry (paper: 10)."""
    count = categories if isinstance(categories, int) else len(categories)
    return OPERATION_BITS + count


def complies_with(asm: BitString, pm: BitString) -> bool:
    """Listing 1: does an action-signature mask comply with a policy mask?

    ``pm`` is partitioned into rule masks of ``len(asm)`` bits; the signature
    complies when at least one rule mask ``rm`` satisfies
    ``asm & rm == asm``.  A policy mask whose length is not a multiple of the
    signature-mask length cannot match (the paper returns false).
    """
    rule_length = len(asm)
    if rule_length == 0 or len(pm) % rule_length != 0:
        return False
    rule_count = len(pm) // rule_length
    for index in range(rule_count):
        rule_mask = pm.substring(index * rule_length, rule_length)
        if (asm & rule_mask) == asm:
            return True
    return False


class MaskLayout:
    """Mask encoder/decoder for one table under a purpose set and categories."""

    def __init__(
        self,
        table: str,
        columns,
        purposes: PurposeSet,
        categories: CategoryRegistry | None = None,
    ):
        self.table = table
        self.columns: tuple[str, ...] = tuple(c.lower() for c in columns)
        if len(set(self.columns)) != len(self.columns):
            raise MaskError(f"duplicate columns in layout for {table!r}")
        self.categories = categories or CategoryRegistry(DEFAULT_CATEGORIES)
        self._column_index = {name: i for i, name in enumerate(self.columns)}
        self._purpose_ids = purposes.ids()
        self._purpose_index = {pid: i for i, pid in enumerate(self._purpose_ids)}

    # -- sizes -------------------------------------------------------------------

    @property
    def purpose_ids(self) -> tuple[str, ...]:
        """The purpose ids this layout encodes, in mask order, fixed at
        construction; :meth:`reencode` keeps a rule's grants to those that
        another layout still has."""
        return self._purpose_ids

    @property
    def action_length(self) -> int:
        """Bits in an action type mask (Def. 11's fixed size *k*)."""
        return action_mask_length(self.categories)

    @property
    def payload_length(self) -> int:
        """Unpadded rule-mask length: |A_T| + |Ps| + k."""
        return len(self.columns) + len(self._purpose_ids) + self.action_length

    @property
    def rule_length(self) -> int:
        """Padded rule-mask length (next multiple of 8)."""
        payload = self.payload_length
        return payload + (-payload) % 8

    @property
    def padding(self) -> int:
        """Number of padding bits appended to each rule/signature mask."""
        return self.rule_length - self.payload_length

    # -- component encoders (Defs. 9-11) -----------------------------------------

    def purpose_mask(self, purpose_ids) -> BitString:
        """Def. 9: one bit per purpose of *Ps*, in mask (alphabetic) order."""
        positions = []
        for purpose_id in purpose_ids:
            try:
                positions.append(self._purpose_index[purpose_id])
            except KeyError:
                raise PolicyError(
                    f"purpose {purpose_id!r} is not in the purpose set"
                ) from None
        return BitString.from_positions(positions, len(self._purpose_ids))

    def column_mask(self, column_names) -> BitString:
        """Def. 10: one bit per attribute of the table, in schema order."""
        positions = []
        for name in column_names:
            try:
                positions.append(self._column_index[name.lower()])
            except KeyError:
                raise PolicyError(
                    f"column {name!r} is not an attribute of {self.table!r}"
                ) from None
        return BitString.from_positions(positions, len(self.columns))

    def action_type_mask(self, action: ActionType) -> BitString:
        """Def. 11: format ``i d s m a n`` + one joint-access bit per category.

        ⊥ multiplicity/aggregation (indirect accesses) encode as ``00``.
        """
        bits = [
            1 if action.indirection is Indirection.INDIRECT else 0,
            1 if action.indirection is Indirection.DIRECT else 0,
            1 if action.multiplicity is Multiplicity.SINGLE else 0,
            1 if action.multiplicity is Multiplicity.MULTIPLE else 0,
            1 if action.aggregation is Aggregation.AGGREGATION else 0,
            1 if action.aggregation is Aggregation.NO_AGGREGATION else 0,
        ]
        for category in self.categories:
            bits.append(1 if category.code in action.joint_access.allowed else 0)
        return BitString.from_bits("".join(str(b) for b in bits))

    # -- rule / policy masks (Defs. 12-13) ------------------------------------------

    def rule_mask(self, rule: PolicyRule) -> BitString:
        """Def. 12: ``Cm + Pm + Am`` plus padding; special rules are 0s/1s."""
        if rule.special is SpecialRule.PASS_ALL:
            return BitString.ones(self.rule_length)
        if rule.special is SpecialRule.PASS_NONE:
            return BitString.zeros(self.rule_length)
        assert rule.action_type is not None  # enforced by PolicyRule
        mask = (
            self.column_mask(rule.columns)
            + self.purpose_mask(rule.purposes)
            + self.action_type_mask(rule.action_type)
        )
        return mask + BitString.zeros(self.padding)

    def policy_mask(self, policy: Policy) -> BitString:
        """Def. 13: concatenation of the policy's rule masks."""
        if policy.table.lower() != self.table.lower():
            raise MaskError(
                f"policy targets {policy.table!r} but layout is for {self.table!r}"
            )
        mask = BitString.zeros(0)
        for rule in policy.rules:
            mask = mask + self.rule_mask(rule)
        return mask

    # -- signature masks (Def. 14) ------------------------------------------------------

    def signature_mask(
        self, column_names, action: ActionType, purpose_id: str
    ) -> BitString:
        """Def. 14: ``Cm + Pm + Am`` for an action signature + query purpose."""
        mask = (
            self.column_mask(column_names)
            + self.purpose_mask([purpose_id])
            + self.action_type_mask(action)
        )
        return mask + BitString.zeros(self.padding)

    # -- decoding and re-encoding ---------------------------------------------------------

    def split_policy_mask(self, policy_mask: BitString) -> list[BitString]:
        """Partition a policy mask into its rule masks."""
        if len(policy_mask) % self.rule_length != 0:
            raise MaskError(
                f"policy mask length {len(policy_mask)} is not a multiple of "
                f"the rule length {self.rule_length}"
            )
        return [
            policy_mask.substring(i * self.rule_length, self.rule_length)
            for i in range(len(policy_mask) // self.rule_length)
        ]

    def decode_rule_mask(self, rule_mask: BitString) -> dict:
        """Decode a rule mask into its components (for inspection/re-encoding).

        Returns a dict with keys ``columns``, ``purposes``, ``action_bits``
        and ``joint_access`` — the raw sets, without reconstructing a full
        :class:`PolicyRule` (pass-all/pass-none masks decode to the union of
        everything / nothing, which is their meaning).
        """
        if len(rule_mask) != self.rule_length:
            raise MaskError(
                f"rule mask has {len(rule_mask)} bits, expected {self.rule_length}"
            )
        offset = 0
        column_bits = rule_mask.substring(offset, len(self.columns))
        offset += len(self.columns)
        purpose_bits = rule_mask.substring(offset, len(self._purpose_ids))
        offset += len(self._purpose_ids)
        action_bits = rule_mask.substring(offset, self.action_length)
        joint = action_bits.substring(OPERATION_BITS, len(self.categories))
        return {
            "columns": {self.columns[i] for i in column_bits.positions()},
            "purposes": {self._purpose_ids[i] for i in purpose_bits.positions()},
            "action_bits": action_bits,
            "joint_access": JointAccess(
                frozenset(
                    self.categories.categories[i].code for i in joint.positions()
                )
            ),
        }

    def reencode(self, mask: BitString, new_layout: "MaskLayout") -> BitString:
        """``mask``, a policy mask under this layout, under ``new_layout``.

        The Policy Management step of Section 2: a purpose or column edit
        moves every bit position, so a stored mask follows its table's
        layout.  Pass-all and pass-none rules stay so; an ordinary rule
        keeps the columns and purposes ``new_layout`` still has, so it
        grants nothing on a column or to a purpose it did not name.  Both
        layouts share one category registry, so the action bits are copied
        whole.
        """
        pass_all = BitString.ones(self.rule_length)
        reencoded = BitString.zeros(0)
        for rule_mask in self.split_policy_mask(mask):
            if rule_mask == pass_all:
                rule_mask = BitString.ones(new_layout.rule_length)
            elif not rule_mask.value:
                rule_mask = BitString.zeros(new_layout.rule_length)
            else:
                decoded = self.decode_rule_mask(rule_mask)
                rule_mask = (
                    new_layout.column_mask(
                        decoded["columns"].intersection(new_layout.columns)
                    )
                    + new_layout.purpose_mask(
                        decoded["purposes"].intersection(new_layout.purpose_ids)
                    )
                    + decoded["action_bits"]
                    + BitString.zeros(new_layout.padding)
                )
            reencoded = reencoded + rule_mask
        return reencoded
