"""Columnar batches: the page format of the one physical executor (DESIGN.md §12).

The hot path costs one Python frame per *batch*, not per row: a
:class:`ColumnBatch` stores a page of rows as per-column value sequences,
so scans transpose whole pages with C-level ``zip``, filters keep rows with
one ``itemgetter`` gather per column, and the policy guard answers a whole
batch with one slice of the cached bitmap.  Every expression is evaluated
over a batch (:mod:`repro.engine.expressions`), wherever it runs: a
nested loop's condition over one left row paired with every right row, an
aggregated block's HAVING and select list over its group representatives,
an UPDATE's WHERE and SET over its candidate rows.  Operators whose work is
per pair of rows anyway (nested loops, cross joins) and derived tables
produce row tuples; :func:`batches_from_rows` and
:meth:`ColumnBatch.to_rows` are the two adaptors
:class:`~repro.engine.executor.SourcePlan` joins them to the batch pipeline
with.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import is_, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ExecutionError

#: Rows per batch when no explicit size is given.
DEFAULT_BATCH_SIZE = 1024


def resolve_batch_size(size: int | None = None) -> int:
    """The rows-per-batch page size: ``size``, or the default for ``None``."""
    size = DEFAULT_BATCH_SIZE if size is None else int(size)
    if size < 1:
        raise ExecutionError(f"batch size must be positive, got {size}")
    return size


class ColumnBatch:
    """A page of rows stored column-wise.

    ``columns[j][i]`` is row *i*'s value for column *j*; ``length`` is the
    row count (kept explicitly so zero-width shapes — ``Values`` — still
    know how many rows they carry).  Columns are never mutated in place:
    operators that drop rows build new column tuples via :meth:`take`, so a
    batch may safely share column storage with its producer.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[Sequence], length: int):
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """Transpose a page of row tuples into a batch."""
        if not rows:
            return cls([() for _ in range(width)], 0)
        return cls(list(zip(*rows)), len(rows))

    def __len__(self) -> int:
        return self.length

    def column(self, index: int) -> Sequence:
        """One column's values, in row order."""
        return self.columns[index]

    def row(self, index: int) -> tuple:
        """Materialize a single row tuple (used for group representatives)."""
        return tuple(column[index] for column in self.columns)

    def to_rows(self) -> list[tuple]:
        """Materialize every row as a tuple, in order."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch keeping only the given row positions, in order."""
        gather = gatherer(indices)
        return ColumnBatch([gather(column) for column in self.columns], len(indices))

    def project(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch keeping only the given columns (RowShape slicing)."""
        return ColumnBatch([self.columns[i] for i in indices], self.length)


def batches_from_rows(
    rows: Iterable[tuple], width: int, batch_size: int
) -> Iterator[ColumnBatch]:
    """Chunk a row stream into column batches of at most ``batch_size`` rows.

    The adaptor every row-native operator (nested loops, cross joins,
    derived tables) joins the columnar pipeline through.
    """
    rows = iter(rows)
    while page := list(islice(rows, batch_size)):
        yield ColumnBatch.from_rows(page, width)


def gatherer(indices: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A function from a column to its values at ``indices``, in order, as
    a tuple: one C-level ``itemgetter`` call per column (of one index it
    would return the bare value, of none it cannot be built)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        index = indices[0]
        return lambda column: (column[index],)
    return lambda column: ()


def true_positions(values: Sequence) -> list[int]:
    """The ascending positions of the values that are exactly ``True`` —
    ``v is True``, so NULL, ``False`` and a truthy ``1`` all drop: the rows
    a WHERE, HAVING, ON residual or DML predicate keeps."""
    return list(compress(range(len(values)), map(is_, values, repeat(True))))
