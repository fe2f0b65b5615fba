"""Purposes and purpose sets (Sections 4.2 and 5.1).

A :class:`PurposeSet` is the ordered collection *Ps* of the purposes defined
for an application scenario.  The ordering criterion *Oc* of Def. 9 — used
to assign mask-bit positions — defaults to the paper's choice in Example 9:
alphabetic order of purpose identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PolicyError


@dataclass(frozen=True)
class Purpose:
    """A purpose: identifier (``p1``) and human-readable description."""

    id: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise PolicyError("purpose id must be non-empty")

    def __str__(self) -> str:
        return self.id


class PurposeSet:
    """The scenario's purpose set *Ps*, ordered by the criterion *Oc*.

    Purposes keep insertion for registration but expose a deterministic
    *mask order* (alphabetic by id, per Example 9) used by every purpose
    mask.  Adding or removing a purpose therefore changes mask positions,
    so :meth:`AccessControlManager.define_purpose
    <repro.core.admin.AccessControlManager.define_purpose>` and
    ``remove_purpose`` re-encode every stored mask in the same commit
    (:meth:`MaskLayout.reencode <repro.core.masks.MaskLayout.reencode>`).
    """

    def __init__(self, purposes: list[Purpose] | tuple[Purpose, ...] = ()):
        self._by_id: dict[str, Purpose] = {}
        for purpose in purposes:
            self.add(purpose)

    def add(self, purpose: Purpose) -> None:
        """Register a purpose; duplicate ids raise :class:`PolicyError`."""
        if purpose.id in self._by_id:
            raise PolicyError(f"duplicate purpose id {purpose.id!r}")
        self._by_id[purpose.id] = purpose

    def remove(self, purpose_id: str) -> Purpose:
        """Remove and return a purpose by id."""
        try:
            return self._by_id.pop(purpose_id)
        except KeyError:
            raise PolicyError(f"unknown purpose id {purpose_id!r}") from None

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, purpose: "Purpose | str") -> bool:
        purpose_id = purpose.id if isinstance(purpose, Purpose) else purpose
        return purpose_id in self._by_id

    def get(self, purpose_id: str) -> Purpose:
        """Look up a purpose by id."""
        try:
            return self._by_id[purpose_id]
        except KeyError:
            raise PolicyError(f"unknown purpose id {purpose_id!r}") from None

    def ordered(self) -> tuple[Purpose, ...]:
        """Purposes in mask order (alphabetic by id — the paper's *Oc*)."""
        return tuple(sorted(self._by_id.values(), key=lambda p: p.id))

    def __iter__(self):
        return iter(self.ordered())

    def index(self, purpose: "Purpose | str") -> int:
        """Mask-bit position of a purpose."""
        purpose_id = purpose.id if isinstance(purpose, Purpose) else purpose
        for position, candidate in enumerate(self.ordered()):
            if candidate.id == purpose_id:
                return position
        raise PolicyError(f"unknown purpose id {purpose_id!r}")

    def ids(self) -> tuple[str, ...]:
        """Purpose ids in mask order."""
        return tuple(purpose.id for purpose in self.ordered())


def default_purpose_set() -> PurposeSet:
    """The running example's purpose set (Section 4.2)."""
    return PurposeSet(
        [
            Purpose("p1", "treatment"),
            Purpose("p2", "payment"),
            Purpose("p3", "healthcare-operations"),
            Purpose("p4", "law-enforcement"),
            Purpose("p5", "reporting"),
            Purpose("p6", "research"),
            Purpose("p7", "marketing"),
            Purpose("p8", "sale"),
        ]
    )
