"""Value types of the relational engine.

The only non-standard type is :class:`BitString`, the engine's ``BIT
VARYING`` value.  The paper stores policy masks in a ``policy`` column of
"binary attribute of variable length" (Section 5.1) and manipulates them with
bitwise AND plus substring extraction (Listing 1); ``BitString`` provides
exactly those operations, backed by a Python int for speed.

Bit order convention: index 0 is the *leftmost* bit of the written form, so
``BitString.from_bits("10")[0] == 1``.  This matches the paper's examples,
where masks are written left-to-right (column mask, purpose mask, action type
mask).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from ..errors import MaskError, TypeMismatchError


class SqlType(enum.Enum):
    """Engine column types."""

    INTEGER = "integer"
    DOUBLE = "double precision"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    BIT_VARYING = "bit varying"

    @classmethod
    def from_name(cls, name: str) -> "SqlType":
        """Map a SQL type name (as produced by the parser) to an engine type."""
        normalized = name.strip().upper()
        mapping = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "DOUBLE": cls.DOUBLE,
            "DOUBLE PRECISION": cls.DOUBLE,
            "FLOAT": cls.DOUBLE,
            "REAL": cls.DOUBLE,
            "NUMERIC": cls.DOUBLE,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "TIMESTAMP": cls.TIMESTAMP,
            "BIT": cls.BIT_VARYING,
            "BIT VARYING": cls.BIT_VARYING,
        }
        try:
            return mapping[normalized]
        except KeyError:
            raise TypeMismatchError(f"unknown SQL type {name!r}") from None


class BitString:
    """An immutable fixed-length bit string backed by an int.

    Supports the operations the enforcement framework needs: bitwise
    ``& | ^ ~`` between equal-length strings, concatenation with ``+``,
    substring extraction, and parsing/printing of ``'0101'`` literals.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise MaskError("bit-string length must be non-negative")
        if value < 0 or value >> length:
            raise MaskError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bits(cls, bits: str) -> "BitString":
        """Parse a textual bit string such as ``"0101"``."""
        if bits and set(bits) - {"0", "1"}:
            raise MaskError(f"invalid bit string {bits!r}")
        return cls(int(bits, 2) if bits else 0, len(bits))

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        """An all-zero string of the given length (a *pass-none* pattern)."""
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        """An all-one string of the given length (a *pass-all* pattern)."""
        return cls((1 << length) - 1, length)

    @classmethod
    def from_positions(cls, positions: Iterator[int] | list[int], length: int) -> "BitString":
        """Set bit ``i`` (0-based from the left) for every ``i`` in positions."""
        value = 0
        for position in positions:
            if not 0 <= position < length:
                raise MaskError(f"bit position {position} out of range 0..{length - 1}")
            value |= 1 << (length - 1 - position)
        return cls(value, length)

    # -- accessors -------------------------------------------------------------

    @property
    def value(self) -> int:
        """The underlying integer (leftmost bit is most significant)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return (self._value >> (self._length - 1 - index)) & 1

    def bits(self) -> str:
        """The textual form, e.g. ``"0101"``."""
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")

    def positions(self) -> list[int]:
        """0-based (from the left) indexes of the set bits."""
        return [i for i in range(self._length) if self[i]]

    def substring(self, start: int, length: int) -> "BitString":
        """Extract ``length`` bits starting at 0-based index ``start``."""
        if start < 0 or length < 0 or start + length > self._length:
            raise MaskError(
                f"substring({start}, {length}) out of range for length {self._length}"
            )
        shifted = self._value >> (self._length - start - length)
        return BitString(shifted & ((1 << length) - 1), length)

    # -- operators -------------------------------------------------------------

    def _check_compatible(self, other: object) -> "BitString":
        if not isinstance(other, BitString):
            raise TypeMismatchError(
                f"bitwise operation requires BitString, got {type(other).__name__}"
            )
        if other._length != self._length:
            raise MaskError(
                f"length mismatch: {self._length} vs {other._length} bits"
            )
        return other

    def __and__(self, other: object) -> "BitString":
        other = self._check_compatible(other)
        return BitString(self._value & other._value, self._length)

    def __or__(self, other: object) -> "BitString":
        other = self._check_compatible(other)
        return BitString(self._value | other._value, self._length)

    def __xor__(self, other: object) -> "BitString":
        other = self._check_compatible(other)
        return BitString(self._value ^ other._value, self._length)

    def __invert__(self) -> "BitString":
        return BitString(self._value ^ ((1 << self._length) - 1), self._length)

    def __add__(self, other: object) -> "BitString":
        if not isinstance(other, BitString):
            raise TypeMismatchError(
                f"cannot concatenate BitString with {type(other).__name__}"
            )
        return BitString(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        return f"BitString('{self.bits()}')"

    def __str__(self) -> str:
        return self.bits()


def comparable(value: object) -> object:
    """Validate that a value participates in ordering comparisons."""
    if isinstance(value, (int, float, str, bool, BitString)):
        return value
    raise TypeMismatchError(f"value {value!r} is not comparable")


def compare_guard(left: object, right: object) -> None:
    """Raise unless ``left`` and ``right`` may be compared: two numbers
    (``bool`` is not one) or two values of one exact type."""
    left_numeric = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_numeric = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_numeric != right_numeric or (
        not left_numeric and type(left) is not type(right)
    ):
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )


def require_orderable(values: Iterable) -> None:
    """Raise unless the non-NULL ``values`` (MIN/MAX inputs, ORDER BY keys)
    may be ordered by WHERE's ``<`` rule.  Checking each against the first
    suffices: the rule is an equivalence (numbers; else one exact type)."""
    first = None
    for value in values:
        if value is None or type(value) is type(first):
            continue
        comparable(value)
        if first is None:
            first = value
        else:
            compare_guard(value, first)


def python_type_matches(sql_type: SqlType, value: object) -> bool:
    """Check whether a Python value is storable in a column of ``sql_type``.

    ``None`` (SQL NULL) is storable in any column.
    """
    if value is None:
        return True
    if sql_type is SqlType.INTEGER or sql_type is SqlType.TIMESTAMP:
        return isinstance(value, int) and not isinstance(value, bool)
    if sql_type is SqlType.DOUBLE:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if sql_type is SqlType.TEXT:
        return isinstance(value, str)
    if sql_type is SqlType.BOOLEAN:
        return isinstance(value, bool)
    if sql_type is SqlType.BIT_VARYING:
        return isinstance(value, BitString)
    return False


def coerce_value(sql_type: SqlType, value: object) -> object:
    """Coerce a Python value for storage, raising on impossible conversions."""
    if value is None:
        return None
    if sql_type is SqlType.DOUBLE and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if python_type_matches(sql_type, value):
        return value
    raise TypeMismatchError(
        f"cannot store {type(value).__name__} value {value!r} in a "
        f"{sql_type.value} column"
    )
