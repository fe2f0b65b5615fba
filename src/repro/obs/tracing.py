"""Per-execution tracing: nested spans plus per-plan-node row counters.

A :class:`Trace` is created per enforced execution (never shared between
threads — the server's per-connection threads each get their own) and
records the pipeline stages as nested :class:`Span` objects: ``parse`` →
``plan`` (cache hit/miss, join strategy) → ``execute`` (rows, compliance
checks, memo hits).  The engine cooperates through ``Env.trace``: when an
execution environment carries a trace, every :class:`~repro.engine.executor.
SourcePlan` wraps its row producer in :meth:`Trace.count_rows`, giving
EXPLAIN ANALYZE its per-node row counts.

When tracing is disabled the monitor uses :data:`NULL_TRACE` and leaves
``Env.trace`` as ``None`` — the engine's fast path then performs a single
``is None`` check per plan node and produces byte-identical results (the
differential fuzz oracle cannot tell the difference).

This module depends on nothing outside the standard library so that every
layer (engine, core, server, bench) can import it without cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator


class Span:
    """One named, timed pipeline stage with attributes and child spans."""

    __slots__ = ("name", "attrs", "children", "elapsed")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.elapsed: float = 0.0

    def annotate(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        """JSON-ready form of this span and its children."""
        return {
            "name": self.name,
            "elapsed_s": self.elapsed,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, elapsed={self.elapsed:.6f}, attrs={self.attrs})"


class Trace:
    """A per-execution recorder: top-level stage spans + per-node row counts.

    Not thread-safe by design — one trace belongs to exactly one execution
    on one thread.  Cross-thread aggregation goes through the
    :class:`~repro.obs.metrics.MetricsRegistry` instead.
    """

    enabled = True

    __slots__ = ("spans", "_stack", "node_rows", "node_batches")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        #: id(plan node) → rows produced by that node during this execution.
        self.node_rows: dict[int, int] = {}
        #: id(plan node) → column batches produced (nodes pulled as batches).
        self.node_batches: dict[int, int] = {}

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a timed span; nests under the currently open span."""
        span = Span(name, attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.elapsed = time.perf_counter() - started
            self._stack.pop()

    # -- engine hooks (duck-typed through Env.trace) ---------------------------

    def count_rows(self, node: object, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Yield ``rows`` unchanged while counting them against ``node``."""
        key = id(node)
        counts = self.node_rows
        if key not in counts:
            counts[key] = 0
        for row in rows:
            counts[key] += 1
            yield row

    def count_batches(self, node: object, batches: Iterable) -> Iterator:
        """Yield batches unchanged while crediting their *row* totals.

        The ledger stays per-row-accurate: each batch adds ``len(batch)``
        to ``node_rows`` (so EXPLAIN ANALYZE's ``rows=`` figures mean rows
        whichever shape a node is pulled in) and 1 to ``node_batches``.
        """
        key = id(node)
        rows = self.node_rows
        counts = self.node_batches
        if key not in rows:
            rows[key] = 0
        if key not in counts:
            counts[key] = 0
        for batch in batches:
            rows[key] += len(batch)
            counts[key] += 1
            yield batch

    def add_rows(self, node: object, count: int) -> None:
        """Credit ``count`` produced rows to ``node`` (block-level totals)."""
        key = id(node)
        self.node_rows[key] = self.node_rows.get(key, 0) + count

    def rows_for(self, node: object) -> int | None:
        """Rows recorded for a plan node, or ``None`` if it never ran."""
        return self.node_rows.get(id(node))

    def annotation(self, node: object) -> str:
        """The ``describe()`` suffix: ``" (rows=N[, batches=M])"`` or ``""``."""
        rows = self.node_rows.get(id(node))
        if rows is None:
            return ""
        batches = self.node_batches.get(id(node))
        if batches is None:
            return f" (rows={rows})"
        return f" (rows={rows}, batches={batches})"

    # -- reporting -------------------------------------------------------------

    def find(self, name: str) -> Span | None:
        """First span named ``name`` across all recorded stages."""
        for span in self.spans:
            found = span.find(name)
            if found is not None:
                return found
        return None

    def stage_seconds(self) -> dict[str, float]:
        """Elapsed wall time per top-level stage, in recording order."""
        return {span.name: span.elapsed for span in self.spans}

    def total_seconds(self) -> float:
        """Sum of the top-level stage times."""
        return sum(span.elapsed for span in self.spans)

    def to_dict(self) -> dict:
        """JSON-ready form of the whole trace."""
        return {
            "stages": [span.to_dict() for span in self.spans],
            "total_s": self.total_seconds(),
        }


class _NullSpan:
    """The no-op span handed out by :class:`NullTrace`."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []
    elapsed = 0.0

    def annotate(self, **attrs: object) -> None:
        pass

    def find(self, name: str) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTrace:
    """Off-path stand-in for :class:`Trace` when tracing is disabled.

    Supports the same surface the monitor uses (``span``/``stage_seconds``/
    ``find``) but records nothing.  The engine never sees it: disabled
    executions carry ``Env.trace = None``, so plan nodes skip the counting
    wrapper entirely.
    """

    enabled = False

    __slots__ = ()

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def find(self, name: str) -> None:
        return None

    def stage_seconds(self) -> dict[str, float]:
        return {}

    def total_seconds(self) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"stages": [], "total_s": 0.0}


#: Shared no-op trace; stateless, so one instance serves every thread.
NULL_TRACE = NullTrace()
