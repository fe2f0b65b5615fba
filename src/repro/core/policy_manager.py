"""Policy Management module (Section 2).

The paper's Policy Management module "automatically handle[s] updates to the
specified policies as a consequence of modifications to the set of purposes
or to the scheme of database tables".  Purpose masks assign one bit per
purpose in alphabetic order and column masks one bit per attribute in schema
order, so adding/removing a purpose or a column silently shifts the meaning
of every stored mask — :class:`PolicyManager` re-encodes them.

Two mechanisms are provided:

* **source-level** — policies registered through :meth:`add_policy` keep
  their :class:`~repro.core.policy.Policy` object, and :meth:`reapply_all`
  simply re-encodes them under the current layouts;
* **mask-level migration** — :meth:`migrate` decodes the raw masks stored in
  each row under a *snapshot* of the previous layout and re-encodes them
  under the current one, preserving pass-all/pass-none rules verbatim.
  This covers masks inserted directly (e.g. rows INSERTed with policies, as
  Section 5.3 allows) for which no source object exists.
"""

from __future__ import annotations

from ..engine.types import BitString
from ..errors import PolicyError
from .admin import AccessControlManager, POLICY_COLUMN
from .masks import MaskLayout
from .policy import Policy


class PolicyManager:
    """Registers policies and keeps stored masks consistent across changes."""

    def __init__(self, admin: AccessControlManager):
        self.admin = admin
        self._policies: list[Policy] = []
        self._snapshots: dict[str, MaskLayout] = {}

    # -- source-level management ----------------------------------------------------

    @property
    def policies(self) -> tuple[Policy, ...]:
        """All registered policies, in registration order."""
        return tuple(self._policies)

    def add_policy(self, policy: Policy) -> int:
        """Register and apply a policy; returns affected-row count."""
        rows = self.admin.apply_policy(policy)
        self._policies.append(policy)
        return rows

    def remove_policies(self, table: str) -> int:
        """Drop registered policies for a table and clear its stored masks
        (one row commit, like any mask store)."""
        key = table.lower()
        before = len(self._policies)
        self._policies = [p for p in self._policies if p.table.lower() != key]
        self.admin.database.table(key).set_column_value(POLICY_COLUMN, None)
        return before - len(self._policies)

    def reapply_all(self) -> int:
        """Re-encode every registered policy under the current layouts.

        Call after purpose-set or schema changes when all policies were
        registered through this manager.  Returns total rows written.
        """
        self.admin.invalidate_layouts()
        written = 0
        for policy in self._policies:
            written += self.admin.apply_policy(policy)
        return written

    # -- mask-level migration -----------------------------------------------------------

    def snapshot_layouts(self) -> None:
        """Record the current per-table layouts as the migration baseline."""
        self._snapshots = {
            table: self.admin.layout(table) for table in self.admin.target_tables()
        }

    def migrate(self) -> int:
        """Re-encode stored masks from the snapshot layout to the current one.

        Pass-all (all ones) and pass-none (all zeros) rule masks are
        preserved as such; ordinary rules are decoded into their column /
        purpose / action components and re-encoded, dropping references to
        columns or purposes that no longer exist.  Returns the number of
        rewritten rows.  Requires :meth:`snapshot_layouts` to have been
        called before the purpose-set/schema change.
        """
        if not self._snapshots:
            raise PolicyError(
                "no layout snapshot: call snapshot_layouts() before changing "
                "purposes or schemas"
            )
        self.admin.invalidate_layouts()
        rewritten = 0
        for table, old_layout in self._snapshots.items():
            if not self.admin.database.has_table(table):
                continue  # table was dropped; nothing to migrate
            new_layout = self.admin.layout(table)
            if (
                old_layout.rule_length == new_layout.rule_length
                and old_layout.columns == new_layout.columns
                and old_layout.purpose_ids == new_layout.purpose_ids
            ):
                continue  # layout unchanged
            rewritten += self._migrate_table(table, old_layout, new_layout)
        self.snapshot_layouts()
        self.admin.bump_policy_epoch()
        return rewritten

    def _migrate_table(
        self, table: str, old_layout: MaskLayout, new_layout: MaskLayout
    ) -> int:
        storage = self.admin.database.table(table)
        policy_index = storage.schema.column_index(POLICY_COLUMN)
        cache: dict[BitString, BitString] = {}
        rewritten = 0
        new_rows = []
        for row in storage.rows:
            mask = row[policy_index]
            if mask is None:
                new_rows.append(row)
                continue
            migrated = cache.get(mask)
            if migrated is None:
                migrated = self._migrate_mask(mask, old_layout, new_layout)
                cache[mask] = migrated
            if migrated != mask:
                row = (*row[:policy_index], migrated, *row[policy_index + 1 :])
                rewritten += 1
            new_rows.append(row)
        storage.rows = new_rows
        return rewritten

    def _migrate_mask(
        self, mask: BitString, old_layout: MaskLayout, new_layout: MaskLayout
    ) -> BitString:
        migrated = BitString.zeros(0)
        for rule_mask in old_layout.split_policy_mask(mask):
            migrated = migrated + self._migrate_rule_mask(
                rule_mask, old_layout, new_layout
            )
        return migrated

    def _migrate_rule_mask(
        self, rule_mask: BitString, old_layout: MaskLayout, new_layout: MaskLayout
    ) -> BitString:
        if rule_mask == BitString.ones(old_layout.rule_length):
            return BitString.ones(new_layout.rule_length)
        if rule_mask == BitString.zeros(old_layout.rule_length):
            return BitString.zeros(new_layout.rule_length)
        decoded = old_layout.decode_rule_mask(rule_mask)
        surviving_columns = [
            column for column in decoded["columns"] if column in new_layout.columns
        ]
        surviving_purposes = [
            purpose
            for purpose in decoded["purposes"]
            if purpose in new_layout.purpose_ids
        ]
        column_mask = new_layout.column_mask(surviving_columns)
        purpose_mask = new_layout.purpose_mask(surviving_purposes)
        action_bits: BitString = decoded["action_bits"]
        operation_bits = action_bits.substring(0, 6)
        joint_bits = BitString.from_positions(
            [
                new_layout.categories.index(new_layout.categories.by_code(code))
                for code in decoded["joint_access"].allowed
                if _category_known(new_layout, code)
            ],
            len(new_layout.categories),
        )
        payload = column_mask + purpose_mask + operation_bits + joint_bits
        return payload + BitString.zeros(new_layout.rule_length - len(payload))


def _category_known(layout: MaskLayout, code: str) -> bool:
    try:
        layout.categories.by_code(code)
    except PolicyError:
        return False
    return True
