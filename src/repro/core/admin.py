"""Access Control Management module (Section 2, framework configuration §5.1).

:class:`AccessControlManager` performs the configuration activities of
Section 5.1 against a target :class:`~repro.engine.Database`:

1. defines the purpose set, persisted in table ``Pr(Id, Ds)``;
2. records the data categorization in table ``Pm(At, Tb, Ct)``;
3. records purpose authorizations of users in table ``Pa(Ui, Pi)``;
4. appends a ``policy`` column (``BIT VARYING``) to every target table;
5. registers the ``complieswith`` UDF with the engine.

It also implements the :class:`~repro.core.info_tuples.SchemaProvider` and
:class:`~repro.core.info_tuples.Categorizer` protocols consumed by signature
derivation, and hands out per-table :class:`~repro.core.masks.MaskLayout`
encoders (cached, invalidated on purpose/schema changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Column, Database, SqlType, TableSchema
from ..engine.functions import MemoizedFunction
from ..engine.mvcc import current_transaction
from ..engine.types import BitString
from ..errors import ConfigurationError, PolicyError
from .categories import CategoryRegistry, DataCategory, DEFAULT_CATEGORIES
from .masks import MaskLayout, complies_with
from .policy import Policy
from .purposes import Purpose, PurposeSet

#: Names of the security meta-data tables: Pr/Pm/Pa from configuration
#: (§5.1), plus the audit log (``al``) and the role extension's tables.
META_TABLES = frozenset({"pr", "pm", "pa", "al", "ro", "ur", "rp"})

@dataclass(frozen=True)
class AcmState:
    """One immutable version of the access-control taxonomy.

    Committed to the database catalog under ``("acm", "state")`` on every
    taxonomy edit, so snapshot-pinned readers resolve purposes and
    categorizations *as of their catalog version* instead of racing live
    mutations (DESIGN.md §15).  Stored policy masks are row data, not part
    of it.
    """

    purposes: tuple[Purpose, ...] = ()
    categories: dict = field(default_factory=dict)

#: Name of the per-row policy-mask column appended to target tables.
POLICY_COLUMN = "policy"

#: Name under which the compliance UDF is registered with the engine.
COMPLIES_WITH = "complieswith"


class AccessControlManager:
    """Configures and serves access-control meta-data for one target DB."""

    def __init__(
        self,
        database: Database,
        categories: CategoryRegistry | None = None,
    ):
        self.database = database
        self.categories = categories or CategoryRegistry(DEFAULT_CATEGORIES)
        self.purposes = PurposeSet()
        self._category_map: dict[tuple[str, str], DataCategory] = {}
        self._layouts: dict[tuple, MaskLayout] = {}
        self._configured = False
        self._compliance_memo = MemoizedFunction(complies_with)

    #: Bound on the versioned layout cache (old versions age out by LRU-ish
    #: insertion order; pinned readers just rebuild from catalog state).
    _LAYOUT_CACHE_LIMIT = 32

    # -- policy epoch (catalog version) -------------------------------------------

    @property
    def policy_epoch(self) -> int:
        """The database catalog version: the policy epoch is the catalog's.

        Every edit that changes how a query is rewritten — (re)categorizing
        columns, changing the purpose set, protecting new tables, mask
        migrations — commits a new :class:`AcmState` to the catalog and
        hence advances this version.  Cached enforcement plans embed the
        version they were compiled under, so a commit invalidates them
        without any back-pointers from here to the monitors holding the
        caches.  Storing policy masks is a row commit and moves nothing
        here: a plan reads the masks at run time (§5.3).
        """
        return self.database.catalog.version

    def bump_policy_epoch(self) -> None:
        """Commit the current taxonomy to the catalog as a new version:
        the taxonomy changed.

        Taxonomy edits (purpose set, categorization) are versioned catalog
        commits that open snapshots simply do not see — they keep
        resolving the :class:`AcmState` as of their pinned catalog version
        (DESIGN.md §15).  Mask stores are ordinary row commits and never
        call this.  Nothing is emptied: a ``complieswith`` verdict is a
        pure function of two bit strings, so the compliance memo and the
        policy verdict maps hold no state a new taxonomy could make stale.
        """
        self.database.catalog.commit(
            [
                (
                    "acm",
                    "state",
                    AcmState(
                        purposes=tuple(self.purposes.ordered()),
                        categories=dict(self._category_map),
                    ),
                )
            ],
            self.database.transactions.clock,
        )

    def _enforcement_version(self) -> int:
        """The catalog version enforcement resolves against *right now*.

        Inside a transaction this is the snapshot's pinned catalog version;
        outside it is the live catalog head.
        """
        txn = current_transaction(self.database.transactions)
        if txn is not None:
            return txn.snapshot.catalog_version
        return self.database.catalog.version

    def _acm_state(self, version: int) -> AcmState | None:
        """The taxonomy as of ``version`` (``None`` before the first commit)."""
        return self.database.catalog.value_at("acm", "state", version)

    def _purposes_at(self, version: int) -> PurposeSet:
        """The purpose set as of ``version`` (the live set when identical)."""
        state = self._acm_state(version)
        if state is None or state.purposes == tuple(self.purposes.ordered()):
            return self.purposes
        pinned = PurposeSet()
        for purpose in state.purposes:
            pinned.add(purpose)
        return pinned

    def compliance_memo_info(self) -> dict[str, int]:
        """Observability snapshot of the ``complieswith`` memo.

        ``hits``/``misses`` are the database total's monotonic ``memo.hit``
        / ``memo.miss`` counts (they survive overflow clears); ``cached`` is
        the current number of memoized argument tuples.
        """
        total = self.database.cost_total
        return {
            "hits": total["memo.hit"],
            "misses": total["memo.miss"],
            "cached": self._compliance_memo.cached_results(),
        }

    # -- configuration (Section 5.1) ---------------------------------------------

    @classmethod
    def from_existing(
        cls,
        database: Database,
        categories: CategoryRegistry | None = None,
    ) -> "AccessControlManager":
        """Rebuild a manager from an already-configured database.

        All administrative state lives in the Pr/Pm meta-tables, so a
        database reloaded from a snapshot (:mod:`repro.engine.persist`) can
        be re-attached: purposes and the categorization are read back and
        the ``complieswith`` UDF is re-registered.  ``categories`` must
        include every category code appearing in Pm (defaults suffice for
        the paper's four).
        """
        if not database.has_table("pr"):
            raise ConfigurationError(
                "database has no Pr table; run configure() instead"
            )
        manager = cls(database, categories=categories)
        manager._configured = True
        for purpose_id, description in database.table("pr").rows:
            manager.purposes.add(Purpose(purpose_id, description or ""))
        for column, table, code in database.table("pm").rows:
            manager._category_map[(table, column)] = manager.categories.by_code(
                code
            )
        database.register_function(
            COMPLIES_WITH, manager._compliance_memo, strict=True
        )
        database.policy_function = COMPLIES_WITH
        database.policy_column = POLICY_COLUMN
        # Seed the catalog with the restored taxonomy so versioned
        # resolution works from the first snapshot on.
        manager.bump_policy_epoch()
        return manager

    def configure(self, purposes: PurposeSet | None = None) -> None:
        """Run the framework-configuration steps against the target DB.

        Idempotent: re-running on a configured database raises
        :class:`ConfigurationError` to avoid clobbering meta-data.
        """
        if self._configured or self.database.has_table("pr"):
            raise ConfigurationError("database is already configured")
        self.database.create_table(
            TableSchema(
                "pr",
                [Column("id", SqlType.TEXT, primary_key=True), Column("ds", SqlType.TEXT)],
            )
        )
        self.database.create_table(
            TableSchema(
                "pm",
                [
                    Column("at", SqlType.TEXT),
                    Column("tb", SqlType.TEXT),
                    Column("ct", SqlType.TEXT),
                ],
            )
        )
        self.database.create_table(
            TableSchema(
                "pa",
                [Column("ui", SqlType.TEXT), Column("pi", SqlType.TEXT)],
            )
        )
        for table_name in self.target_tables():
            table = self.database.table(table_name)
            if POLICY_COLUMN not in table.schema:
                table.add_column(Column(POLICY_COLUMN, SqlType.BIT_VARYING))
        self.database.register_function(
            COMPLIES_WITH, self._compliance_memo, strict=True
        )
        # Tell the engine's optimizer what a rewriter-injected guard looks
        # like, so the policy_guard_hoist pass can recognize and hoist it.
        self.database.policy_function = COMPLIES_WITH
        self.database.policy_column = POLICY_COLUMN
        self._configured = True
        if purposes is not None:
            for purpose in purposes.ordered():
                self.define_purpose(purpose)

    def require_configured(self) -> None:
        """Raise unless :meth:`configure` has run."""
        if not self._configured:
            raise ConfigurationError(
                "access control is not configured; call configure() first"
            )

    def protect_table(self, name: str) -> None:
        """Bring a table created *after* configuration under protection.

        Appends the ``policy`` column (existing rows get NULL — invisible
        until a policy is attached) and invalidates the table's layout.
        """
        self.require_configured()
        key = name.lower()
        if key in META_TABLES:
            raise PolicyError(f"{name!r} is a meta-data table")
        table = self.database.table(key)
        if POLICY_COLUMN not in table.schema:
            table.add_column(Column(POLICY_COLUMN, SqlType.BIT_VARYING))
        self.invalidate_layouts(key)
        self.bump_policy_epoch()

    def target_tables(self) -> list[str]:
        """The protected tables (every table except the meta-data ones)."""
        return [
            name
            for name in self.database.table_names()
            if name.lower() not in META_TABLES
        ]

    # -- purposes ---------------------------------------------------------------------

    def define_purpose(self, purpose: Purpose) -> None:
        """Add a purpose to *Ps* and persist it in Pr."""
        self.require_configured()
        self.purposes.add(purpose)
        self.database.table("pr").insert_row((purpose.id, purpose.description))
        self.bump_policy_epoch()

    def remove_purpose(self, purpose_id: str) -> Purpose:
        """Remove a purpose from *Ps* and from Pr.

        Policy masks referencing the purpose become stale; run the policy
        manager's migration to rewrite them (DESIGN.md §6).
        """
        self.require_configured()
        purpose = self.purposes.remove(purpose_id)
        self.database.table("pr").delete_rows(lambda row: row[0] == purpose_id)
        self.bump_policy_epoch()
        return purpose

    # -- categorization (Pm) -------------------------------------------------------------

    def categorize(self, table: str, column: str, category: DataCategory) -> None:
        """Record that ``table.column`` belongs to ``category``."""
        self.require_configured()
        table_key, column_key = table.lower(), column.lower()
        schema = self.database.table(table_key).schema
        if column_key not in schema:
            raise PolicyError(f"table {table!r} has no column {column!r}")
        if category not in self.categories:
            raise PolicyError(f"category {category!r} is not registered")
        pm = self.database.table("pm")
        pm.delete_rows(lambda row: row[0] == column_key and row[1] == table_key)
        pm.insert_row((column_key, table_key, category.code))
        self._category_map[(table_key, column_key)] = category
        self.bump_policy_epoch()

    def category(self, table: str, column: str) -> DataCategory:
        """Categorizer protocol: Pm lookup with the *generic* fallback (§4.1).

        Resolved as of the enforcement version, so snapshot-pinned readers
        see the categorization their snapshot began under.
        """
        key = (table.lower(), column.lower())
        state = self._acm_state(self._enforcement_version())
        if state is not None:
            return state.categories.get(key, self.categories.default)
        return self._category_map.get(key, self.categories.default)

    # -- purpose authorizations (Pa) ---------------------------------------------------------

    def grant_purpose(self, user_id: str, purpose_id: str) -> None:
        """Authorize a user for a purpose (one Pa row)."""
        self.require_configured()
        self.purposes.get(purpose_id)  # validates existence
        self.database.table("pa").insert_row((user_id, purpose_id))

    def revoke_purpose(self, user_id: str, purpose_id: str) -> int:
        """Remove a user's authorization; returns removed-row count."""
        self.require_configured()
        return self.database.table("pa").delete_rows(
            lambda row: row[0] == user_id and row[1] == purpose_id
        )

    def is_authorized(self, user_id: str, purpose_id: str) -> bool:
        """Whether Pa contains ⟨user, purpose⟩."""
        self.require_configured()
        return any(
            row[0] == user_id and row[1] == purpose_id
            for row in self.database.table("pa")
        )

    def known_user(self, user_id: str) -> bool:
        """Whether the user appears in Pa at all (holds any grant).

        Users are not a first-class catalog entity in the paper — Pa is the
        only place they exist — so "known" means "has at least one purpose
        authorization".  Sessions use this to reject unknown users up front
        instead of at first execution.
        """
        self.require_configured()
        return any(row[0] == user_id for row in self.database.table("pa"))

    # -- schema / layout services -----------------------------------------------------------

    def table_columns(self, table: str) -> tuple[str, ...]:
        """SchemaProvider protocol: logical columns (the policy column hidden)."""
        schema = self.database.table(table).schema
        return tuple(
            column.name.lower()
            for column in schema.columns
            if column.name.lower() != POLICY_COLUMN
        )

    def has_table(self, table: str) -> bool:
        """SchemaProvider protocol: target-table existence."""
        key = table.lower()
        return self.database.has_table(key) and key not in META_TABLES

    def layout(self, table: str) -> MaskLayout:
        """The mask layout of a target table at the enforcement version.

        Cached by *content* — ⟨table, columns, purpose ids⟩ as resolved at
        the enforcement version — so a catalog commit that leaves the
        taxonomy alone (an index DDL) keeps hitting one cached layout,
        while taxonomy edits and schema changes resolve to a different
        key.  Pinned readers resolve the key as of their snapshot
        and so keep (or rebuild) *their* layout untouched.
        """
        self.require_configured()
        key = table.lower()
        if key in META_TABLES or not self.database.has_table(key):
            raise PolicyError(f"{table!r} is not a protected target table")
        version = self._enforcement_version()
        columns = self.table_columns(key)
        purposes = self._purposes_at(version)
        cache_key = (key, columns, purposes.ids())
        layout = self._layouts.get(cache_key)
        if layout is None:
            layout = MaskLayout(key, columns, purposes, self.categories)
            while len(self._layouts) >= self._LAYOUT_CACHE_LIMIT:
                self._layouts.pop(next(iter(self._layouts)))
            self._layouts[cache_key] = layout
        return layout

    def invalidate_layouts(self, table: str | None = None) -> None:
        """Drop cached layouts after a schema or purpose-set change."""
        if table is None:
            self._layouts.clear()
        else:
            key = table.lower()
            for cache_key in [k for k in self._layouts if k[0] == key]:
                del self._layouts[cache_key]

    # -- policy installation -----------------------------------------------------------------

    def apply_policy(self, policy: Policy) -> int:
        """Encode a policy and store its mask into matching rows.

        Returns the number of rows whose ``policy`` column was written.  A
        ``tuple_selector`` of ``(column, value)`` selects rows by equality;
        ``None`` covers the whole table (the paper's ``tp = ⊥``).
        """
        self.require_configured()
        layout = self.layout(policy.table)
        policy.validate(layout.columns, self.purposes)
        mask = layout.policy_mask(policy)
        return self.store_policy_mask(policy.table, mask, policy.tuple_selector)

    def store_policy_mask(
        self,
        table: str,
        mask: BitString,
        tuple_selector: tuple[str, object] | None = None,
    ) -> int:
        """Store a pre-encoded policy mask (used by the workload generators).

        One ordinary row commit, snapshot-isolated like any write: the
        policy epoch does not move.
        """
        self.require_configured()
        target = self.database.table(table)
        if tuple_selector is None:
            return target.set_column_value(POLICY_COLUMN, mask)
        column, value = tuple_selector
        index = target.schema.column_index(column)
        return target.set_column_value(
            POLICY_COLUMN, mask, predicate=lambda row: row[index] == value
        )

    def policy_masks(self, table: str) -> list[BitString | None]:
        """The stored policy masks of a table, in row order."""
        return self.database.table(table).column_values(POLICY_COLUMN)

    def insert_with_policy(
        self,
        table: str,
        values,
        policy: "Policy | BitString",
        columns: tuple[str, ...] = (),
    ) -> None:
        """Insert one record that "already includes the policy" (§5.3).

        ``values`` covers the logical columns (in ``columns`` order, or
        schema order when ``columns`` is empty); ``policy`` is either a
        :class:`~repro.core.policy.Policy` (encoded against this table's
        layout) or a pre-encoded mask.  One row commit; the policy epoch
        does not move.
        """
        self.require_configured()
        layout = self.layout(table)
        if isinstance(policy, BitString):
            mask = policy
            if len(mask) % layout.rule_length != 0:
                raise PolicyError(
                    f"mask length {len(mask)} is not a multiple of the "
                    f"rule length {layout.rule_length} of {table!r}"
                )
        else:
            if policy.table.lower() != table.lower():
                raise PolicyError(
                    f"policy targets {policy.table!r}, not {table!r}"
                )
            policy.validate(layout.columns, self.purposes)
            mask = layout.policy_mask(policy)
        target = self.database.table(table)
        logical = columns or self.table_columns(table)
        if len(tuple(values)) != len(logical):
            raise PolicyError(
                f"expected {len(logical)} values for columns {logical}, "
                f"got {len(tuple(values))}"
            )
        target.insert_row((*values, mask), (*logical, POLICY_COLUMN))
