"""Access Control Management module (Section 2, framework configuration §5.1).

:class:`AccessControlManager` performs the configuration activities of
Section 5.1 against a target :class:`~repro.engine.Database`:

1. defines the purpose set, persisted in table ``Pr(Id, Ds)``;
2. records the data categorization in table ``Pm(At, Tb, Ct)``;
3. records purpose authorizations of users in table ``Pa(Ui, Pi)``;
4. appends a ``policy`` column (``BIT VARYING``) to every target table;
5. registers the ``complieswith`` UDF with the engine.

The three meta-tables are the only record of that state: the purpose
set, the categorization and the authorizations are derived from their
rows as the caller sees them, so a snapshot-pinned reader resolves its
snapshot's taxonomy, a transaction its own staged edits, and a manager
built on a reloaded or recovered database the state that database
stores.

It also implements the :class:`~repro.core.info_tuples.SchemaProvider` and
:class:`~repro.core.info_tuples.Categorizer` protocols consumed by signature
derivation, and hands out per-table :class:`~repro.core.masks.MaskLayout`
encoders (cached by content).
"""

from __future__ import annotations

import contextlib
from operator import itemgetter
from typing import Callable, Iterator

from ..engine import Column, Database, SqlType, TableSchema
from ..engine.catalog import CatalogOp
from ..engine.functions import MemoizedFunction
from ..engine.types import BitString
from ..errors import ConfigurationError, PolicyError
from ..sql import ast
from .categories import CategoryRegistry, DataCategory, DEFAULT_CATEGORIES
from .masks import MaskLayout, complies_with
from .policy import Policy
from .purposes import Purpose, PurposeSet

#: Names of the security meta-data tables: Pr/Pm/Pa from configuration
#: (§5.1), plus the audit log (``al``) and the role extension's tables.
META_TABLES = frozenset({"pr", "pm", "pa", "al", "ro", "ur", "rp"})

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
        #: meta-table name -> (row list, its length, what was derived from it)
        self._views: dict[str, tuple[list, int, object]] = {}
        self._layouts: dict[tuple, MaskLayout] = {}
        self._configured = False
        self._compliance_memo = MemoizedFunction(complies_with)

    #: Bound on the layout cache (old keys age out in insertion order;
    #: pinned readers just rebuild theirs).
    _LAYOUT_CACHE_LIMIT = 32

    def _view(self, table: str, derive: Callable[[list], object]):
        """``derive`` of a meta-table's rows as the caller sees them, cached
        on the visible row list and its length: a committed or staged list
        only ever grows by appends, in place, so the pair names one state."""
        rows = self.database.table(table).rows
        cached = self._views.get(table)
        if cached is not None and cached[0] is rows and cached[1] == len(rows):
            return cached[2]
        cached = self._views[table] = (rows, len(rows), derive(rows))
        return cached[2]

    # -- policy epoch (catalog version) -------------------------------------------

    @property
    def policy_epoch(self) -> int:
        """The database catalog version: the policy epoch is the catalog's.

        Every edit that changes how a query is rewritten — (re)categorizing
        columns, changing the purpose set (and re-encoding the masks),
        protecting new tables — commits its Pr/Pm rows together with a
        ``taxonomy`` catalog op (:meth:`_taxonomy_edit`) and hence advances
        this version.
        Cached enforcement plans embed the version they were compiled
        under, so a commit invalidates them without any back-pointers from
        here to the monitors holding the caches.  Storing policy masks is a
        row commit and moves nothing here: a plan reads the masks at run
        time (§5.3).
        """
        return self.database.catalog.version

    @contextlib.contextmanager
    def _taxonomy_edit(self) -> Iterator[None]:
        """One taxonomy edit: the block's writes and a ``taxonomy`` catalog
        op commit as one transaction, or join the caller's.

        The catalog version therefore moves in the same commit as the rows,
        through the one applier, into the WAL and again at replay; a
        rollback drops both, and open snapshots see neither (DESIGN.md §15).
        """
        with self.database.transactions.statement_transaction() as txn:
            yield
            txn.add_catalog_op(CatalogOp("acm", "taxonomy", {"op": "taxonomy"}))

    def bump_policy_epoch(self) -> None:
        """Commit a taxonomy edit that writes no rows: the epoch moves.

        Mask stores are ordinary row commits and never call this.  Nothing
        is emptied: a ``complieswith`` verdict is a pure function of two
        bit strings, so the compliance memo and the policy verdict maps
        hold no state a new taxonomy could make stale.
        """
        with self._taxonomy_edit():
            pass

    def compliance_memo_info(self) -> dict[str, int]:
        """Observability snapshot of the ``complieswith`` memo.

        ``hits``/``misses`` are the database total's monotonic ``memo.hit``
        / ``memo.miss`` counts (they survive evictions); ``cached`` is
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
        """Re-attach a manager to an already-configured database.

        The Pr/Pm/Pa meta-tables are the manager's whole state, so a
        database reloaded from a snapshot (:mod:`repro.engine.persist`) or
        recovered from its WAL only needs the ``complieswith`` UDF
        registered again; nothing is read back and the catalog version
        does not move.  ``categories`` must include every category code
        appearing in Pm (defaults suffice for the paper's four).
        """
        if not database.has_table("pr"):
            raise ConfigurationError(
                "database has no Pr table; run configure() instead"
            )
        manager = cls(database, categories=categories)
        manager._register()
        return manager

    def _register(self) -> None:
        """Register the ``complieswith`` UDF, tell the engine's optimizer
        what a rewriter-injected guard looks like, so the
        policy_guard_hoist pass can recognize and hoist it, and give ALTER
        TABLE the row function that keeps stored masks in step."""
        self.database.register_function(
            COMPLIES_WITH, self._compliance_memo, strict=True
        )
        self.database.policy_function = COMPLIES_WITH
        self.database.policy_column = POLICY_COLUMN
        self.database.policy_reencoder = self._schema_reencoder
        self._configured = True

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
        self._register()
        if purposes is not None:
            # One taxonomy edit: the purpose set starts here, so no stored
            # mask was encoded under an earlier one.
            with self._taxonomy_edit():
                self.database.table("pr").append_rows(
                    (purpose.id, purpose.description) for purpose in purposes.ordered()
                )

    def require_configured(self) -> None:
        """Raise unless :meth:`configure` has run."""
        if not self._configured:
            raise ConfigurationError(
                "access control is not configured; call configure() first"
            )

    def protect_table(self, name: str) -> None:
        """Bring a table created *after* configuration under protection.

        Appends the ``policy`` column (existing rows get NULL — invisible
        until a policy is attached) in the same commit as the epoch move.
        """
        self.require_configured()
        key = name.lower()
        if key in META_TABLES:
            raise PolicyError(f"{name!r} is a meta-data table")
        table = self.database.table(key)
        with self._taxonomy_edit():
            if POLICY_COLUMN not in table.schema:
                table.add_column(Column(POLICY_COLUMN, SqlType.BIT_VARYING))

    def target_tables(self) -> list[str]:
        """The protected tables (every table except the meta-data ones)."""
        return [
            name
            for name in self.database.table_names()
            if name.lower() not in META_TABLES
        ]

    # -- purposes (Pr) ---------------------------------------------------------------

    @property
    def purposes(self) -> PurposeSet:
        """The purpose set *Ps*: Pr's rows as the caller sees them."""
        return self._view(
            "pr", lambda rows: PurposeSet([Purpose(id_, ds or "") for id_, ds in rows])
        )

    def define_purpose(self, purpose: Purpose) -> None:
        """Add a purpose to *Ps*: one Pr row and the stored masks
        re-encoded, in one taxonomy edit (:meth:`_purpose_edit`)."""
        self.require_configured()
        if purpose.id in self.purposes:
            raise PolicyError(f"duplicate purpose id {purpose.id!r}")
        with self._purpose_edit():
            self.database.table("pr").insert_row((purpose.id, purpose.description))

    def remove_purpose(self, purpose_id: str) -> Purpose:
        """Remove a purpose from *Ps* and from Pr; every stored rule drops
        its grant to it in the same taxonomy edit (:meth:`_purpose_edit`)."""
        self.require_configured()
        purpose = self.purposes.get(purpose_id)
        with self._purpose_edit():
            self.database.table("pr").delete_rows(lambda row: row[0] == purpose_id)
        return purpose

    @contextlib.contextmanager
    def _purpose_edit(self) -> Iterator[None]:
        """A taxonomy edit of Pr after which every protected table's stored
        masks are re-encoded from its old layout to its new one (§2's
        Policy Management), in the same transaction: a rollback undoes
        both and a pinned snapshot sees neither (DESIGN.md §6).

        Only the rows whose mask changes are written, each distinct mask
        is re-encoded once, and a table storing no mask costs one C-speed
        pass over its rows.
        """
        with self._taxonomy_edit():
            before = {
                table: self.layout(table)
                for table in self.target_tables()
                if POLICY_COLUMN in self.database.table(table).schema
            }
            yield
            for table, old in before.items():
                storage = self.database.table(table)
                position = storage.schema.column_index(POLICY_COLUMN)
                masks = set(map(itemgetter(position), storage.rows)) - {None}
                new = self.layout(table)
                moved = {mask: old.reencode(mask, new) for mask in masks}
                moved = {mask: to for mask, to in moved.items() if to != mask}
                if moved:
                    storage.update_rows(
                        lambda row: row[position] in moved,
                        lambda row: _with_mask(row, position, moved[row[position]]),
                    )

    # -- categorization (Pm) -------------------------------------------------------------

    def categorize(self, table: str, column: str, category: DataCategory) -> None:
        """Record that ``table.column`` belongs to ``category``: its Pm row
        is replaced in one taxonomy edit."""
        self.require_configured()
        table_key, column_key = table.lower(), column.lower()
        schema = self.database.table(table_key).schema
        if column_key not in schema:
            raise PolicyError(f"table {table!r} has no column {column!r}")
        if category not in self.categories:
            raise PolicyError(f"category {category!r} is not registered")
        pm = self.database.table("pm")
        with self._taxonomy_edit():
            pm.delete_rows(lambda row: row[0] == column_key and row[1] == table_key)
            pm.insert_row((column_key, table_key, category.code))

    def category(self, table: str, column: str) -> DataCategory:
        """Categorizer protocol: Pm lookup with the *generic* fallback (§4.1),
        in Pm's rows as the caller sees them."""
        by_code = self.categories.by_code
        by_column = self._view(
            "pm", lambda rows: {(tb, at): by_code(ct) for at, tb, ct in rows}
        )
        found = by_column.get((table.lower(), column.lower()))
        return self.categories.default if found is None else found

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

    def _grants(self) -> "tuple[frozenset, frozenset]":
        """Pa as ⟨user, purpose⟩ pairs and as the users holding any grant."""
        return self._view(
            "pa", lambda rows: (frozenset(rows), frozenset(ui for ui, _ in rows))
        )

    def is_authorized(self, user_id: str, purpose_id: str) -> bool:
        """Whether Pa contains ⟨user, purpose⟩."""
        self.require_configured()
        return (user_id, purpose_id) in self._grants()[0]

    def known_user(self, user_id: str) -> bool:
        """Whether the user appears in Pa at all (holds any grant).

        Users are not a first-class catalog entity in the paper — Pa is the
        only place they exist — so "known" means "has at least one purpose
        authorization".  Sessions use this to reject unknown users up front
        instead of at first execution.
        """
        self.require_configured()
        return user_id in self._grants()[1]

    # -- schema / layout services -----------------------------------------------------------

    def table_columns(self, table: str) -> tuple[str, ...]:
        """SchemaProvider protocol: logical columns (the policy column hidden)."""
        return _logical_columns(self.database.table(table).schema)

    def has_table(self, table: str) -> bool:
        """SchemaProvider protocol: target-table existence."""
        key = table.lower()
        return self.database.has_table(key) and key not in META_TABLES

    def layout(self, table: str) -> MaskLayout:
        """The mask layout of a target table as the caller sees it.

        Cached by *content* — ⟨table, columns, purpose ids⟩ as visible to
        the caller — so a commit that leaves the taxonomy alone (an index
        DDL) keeps hitting one cached layout, while taxonomy edits and
        schema changes resolve to a different key.  Pinned readers resolve
        the key as of their snapshot and so keep (or rebuild) *their*
        layout untouched.
        """
        self.require_configured()
        key = table.lower()
        if key in META_TABLES or not self.database.has_table(key):
            raise PolicyError(f"{table!r} is not a protected target table")
        columns = self.table_columns(key)
        purposes = self.purposes
        cache_key = (key, columns, purposes.ids())
        layout = self._layouts.get(cache_key)
        if layout is None:
            layout = MaskLayout(key, columns, purposes, self.categories)
            while len(self._layouts) >= self._LAYOUT_CACHE_LIMIT:
                self._layouts.pop(next(iter(self._layouts)))
            self._layouts[cache_key] = layout
        return layout

    def _schema_reencoder(
        self, table: str, old: TableSchema, new: TableSchema
    ) -> "Callable[[tuple], tuple] | None":
        """The engine's ALTER TABLE hook: a row function that moves a row's
        stored mask, in ``new``'s shape, from ``old``'s layout to
        ``new``'s; ``None`` for a meta-table or an ALTER that adds or drops
        the policy column itself.  It runs in the ALTER's own commit, whose
        log record carries the rewritten rows."""
        key = table.lower()
        if key in META_TABLES or POLICY_COLUMN not in old or POLICY_COLUMN not in new:
            return None
        purposes = self.purposes
        before = MaskLayout(key, _logical_columns(old), purposes, self.categories)
        after = MaskLayout(key, _logical_columns(new), purposes, self.categories)
        position = new.column_index(POLICY_COLUMN)
        moved: dict = {None: None}

        def reencode(row: tuple) -> tuple:
            mask = row[position]
            if mask not in moved:
                moved[mask] = before.reencode(mask, after)
            return _with_mask(row, position, moved[mask])

        return reencode

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
        policy epoch does not move.  A ``tuple_selector`` is an UPDATE's
        ``WHERE column = value``, which an index narrows like any DML's.
        """
        self.require_configured()
        if tuple_selector is None:
            return self.database.table(table).set_column_value(POLICY_COLUMN, mask)
        column, value = tuple_selector
        selected = ast.ColumnRef(column)
        where = ast.BinaryOp("=", selected, ast.Literal(value))
        assign = ((POLICY_COLUMN, ast.BitStringLiteral(mask.bits())),)
        return self.database.execute(
            ast.Update(table, assign, ast.IsNull(selected) if value is None else where)
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


def _logical_columns(schema: TableSchema) -> tuple[str, ...]:
    """A schema's column names, lower-cased, the policy column hidden."""
    return tuple(
        column.name.lower()
        for column in schema.columns
        if column.name.lower() != POLICY_COLUMN
    )


def _with_mask(row: tuple, position: int, mask: "BitString | None") -> tuple:
    """``row`` with ``mask`` stored at ``position``."""
    return (*row[:position], mask, *row[position + 1 :])
