"""Role-based purpose authorization (the paper's future-work item 3).

Section 8 lists "extend the framework integrating support for role based
access control" as planned work; the reference purpose-based model of Byun
and Li [3] already combines purposes with roles.  This module implements
that combination on top of the existing Pa mechanism:

* table ``ro(role, parent)`` — the role catalog: a role inherits the
  authorizations of its ``parent`` and, through it, of every ancestor;
* table ``ur(ui, role)`` — user → role assignments;
* table ``rp(role, pi)`` — role → purpose authorizations.

A user is authorized for a purpose when either the direct Pa grant exists
(:meth:`AccessControlManager.is_authorized`) or one of their roles —
directly or through its parent chain — is authorized for it.

The three tables are the only record: a :class:`RoleManager` holds no
state of its own, so one built on a reloaded or recovered database serves
the roles that database stores, and role support is installed exactly
when ``ro`` exists.
"""

from __future__ import annotations

from ..engine import Column, SqlType, Table, TableSchema
from ..errors import ConfigurationError, PolicyError
from .admin import AccessControlManager

#: Meta-tables added by the role extension.
ROLE_TABLES = frozenset({"ro", "ur", "rp"})


class RoleManager:
    """Manages roles, user assignments and role-purpose authorizations."""

    def __init__(self, admin: AccessControlManager):
        self.admin = admin

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Create the role meta-tables (idempotent-hostile, like configure)."""
        self.admin.require_configured()
        database = self.admin.database
        if database.has_table("ro"):
            raise ConfigurationError("role support is already installed")
        database.create_table(
            TableSchema(
                "ro",
                [
                    Column("role", SqlType.TEXT, primary_key=True),
                    Column("parent", SqlType.TEXT),
                ],
            )
        )
        database.create_table(
            TableSchema(
                "ur",
                [Column("ui", SqlType.TEXT), Column("role", SqlType.TEXT)],
            )
        )
        database.create_table(
            TableSchema(
                "rp",
                [Column("role", SqlType.TEXT), Column("pi", SqlType.TEXT)],
            )
        )

    def _table(self, name: str) -> Table:
        """A role meta-table; raises unless role support is installed."""
        database = self.admin.database
        if not database.has_table("ro"):
            raise ConfigurationError("role support is not installed; call install()")
        return database.table(name)

    def _catalog(self) -> dict[str, str | None]:
        """``ro`` as role → parent, in definition order."""
        return dict(self._table("ro"))

    def _require_role(self, role: str) -> None:
        if role not in self._catalog():
            raise PolicyError(f"unknown role {role!r}")

    # -- role catalog -------------------------------------------------------------

    def define_role(self, role: str, parent: str | None = None) -> None:
        """Create a role, optionally inheriting a parent's authorizations."""
        catalog = self._catalog()
        if role in catalog:
            raise PolicyError(f"role {role!r} already exists")
        if parent is not None and parent not in catalog:
            raise PolicyError(f"unknown parent role {parent!r}")
        self._table("ro").insert_row((role, parent))

    def roles(self) -> tuple[str, ...]:
        """All defined roles."""
        return tuple(self._catalog())

    def ancestry(self, role: str) -> list[str]:
        """The role and its parents, nearest first."""
        catalog = self._catalog()
        if role not in catalog:
            raise PolicyError(f"unknown role {role!r}")
        chain = [role]
        current = catalog[role]
        while current is not None:
            chain.append(current)
            current = catalog[current]
        return chain

    # -- assignments -------------------------------------------------------------

    def assign_role(self, user_id: str, role: str) -> None:
        """Give a user a role."""
        self._require_role(role)
        self._table("ur").insert_row((user_id, role))

    def unassign_role(self, user_id: str, role: str) -> int:
        """Remove a user-role assignment; returns removed-row count."""
        return self._table("ur").delete_rows(
            lambda row: row[0] == user_id and row[1] == role
        )

    def user_roles(self, user_id: str) -> list[str]:
        """The roles directly assigned to a user."""
        return [row[1] for row in self._table("ur") if row[0] == user_id]

    # -- role-purpose authorizations -------------------------------------------------

    def grant_purpose_to_role(self, role: str, purpose_id: str) -> None:
        """Authorize every holder of ``role`` for ``purpose_id``."""
        self._require_role(role)
        self.admin.purposes.get(purpose_id)  # validates
        self._table("rp").insert_row((role, purpose_id))

    def revoke_purpose_from_role(self, role: str, purpose_id: str) -> int:
        """Remove a role-purpose authorization."""
        return self._table("rp").delete_rows(
            lambda row: row[0] == role and row[1] == purpose_id
        )

    def role_purposes(self, role: str) -> set[str]:
        """Purposes a role grants, including inherited ones."""
        rp = self._table("rp")
        granted: set[str] = set()
        for ancestor in self.ancestry(role):
            granted.update(row[1] for row in rp if row[0] == ancestor)
        return granted

    # -- the combined check consumed by the monitor --------------------------------------

    def is_authorized(self, user_id: str, purpose_id: str) -> bool:
        """Direct Pa grant OR any assigned role (or ancestor) grants it."""
        if self.admin.is_authorized(user_id, purpose_id):
            return True
        if not self.admin.database.has_table("ro"):
            return False
        return any(
            purpose_id in self.role_purposes(role)
            for role in self.user_roles(user_id)
        )

    def known_user(self, user_id: str) -> bool:
        """Direct Pa grant OR at least one role assignment in Ur."""
        if self.admin.known_user(user_id):
            return True
        return self.admin.database.has_table("ro") and bool(self.user_roles(user_id))
