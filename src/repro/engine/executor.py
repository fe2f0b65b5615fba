"""SELECT execution: physical operators over optimized logical plans.

A :class:`PreparedSelect` is built per statement preparation in three
stages (DESIGN.md §11):

1. the :class:`~repro.engine.plan.Planner` turns the SELECT block's FROM
   clause and WHERE into the plan IR,
2. the :class:`~repro.engine.plan.Optimizer` runs its pass pipeline
   (predicate pushdown, ``complieswith``-guard hoisting, hash-join
   selection, constant folding, projection pruning — the set depends on the
   optimizer mode), and
3. this module compiles the optimized IR into physical
   :class:`SourcePlan` operators and the block's WHERE, grouping,
   projection and ordering expressions into batch evaluators.

``rows(env)`` then runs the pipeline:

    FROM → WHERE → GROUP BY/aggregate → HAVING → project → DISTINCT →
    ORDER BY → LIMIT/OFFSET

There is one physical executor (DESIGN.md §12): every operator that holds
logic has exactly one implementation — batch-native where pages pay off
(scans, filters, policy guards, hash joins, derived tables), row-native
where the work is per pair or per result row anyway (nested loops, cross
joins, a derived table that sorts, deduplicates or limits) — and
:class:`SourcePlan` adapts between the two shapes at the edges.  A block
runs one pipeline body (:meth:`PreparedSelect._output`) whether its caller
takes rows or pages.  Every expression is evaluated over a batch,
whichever operator runs it: an aggregated block's HAVING, select list and
ORDER BY run over one batch of group representatives, a nested loop's
condition over one left row paired with every right row.

Correlated subqueries are supported through the :class:`Scope` chain; an
uncorrelated subquery's result is computed once per statement execution and
cached, matching how a conventional engine executes uncorrelated subplans.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import contains, is_, is_not, itemgetter
from typing import Callable, Iterable, Iterator

from ..errors import CatalogError, ExecutionError, ExpressionError
from ..sql import ast
from .aggregates import aggregate_factory
from .batch import (
    ColumnBatch,
    batches_from_rows,
    gatherer,
    resolve_batch_size,
    true_positions,
)
from .expressions import (
    AGGREGATE_SOURCE,
    Env,
    ExpressionCompiler,
    Scope,
    aggregate_key,
)
from . import plan as plan_ir
from .aggregates import is_aggregate_name
from .plan import Optimizer, Planner
from .schema import ColumnBinding, RowShape
from .types import SqlType, python_type_matches, require_orderable


_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_NUMERIC = frozenset({SqlType.INTEGER, SqlType.DOUBLE, SqlType.TIMESTAMP})


def _may_raise(conjunct: ast.Expression, shape: RowShape, params) -> bool:
    """Whether ``conjunct`` might raise on some row: anything but a column
    compared with a literal or a bound parameter its type admits."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in _COMPARISONS):
        return True
    left, right = conjunct.left, conjunct.right
    for column, value in ((left, right), (right, left)):
        if isinstance(value, ast.Parameter) and value.key in (params or ()):
            value = ast.Literal(params[value.key])
        if isinstance(column, ast.ColumnRef) and isinstance(value, ast.Literal):
            table = column.table.lower() if column.table else None
            sql_type = shape.resolve(column.name.lower(), table).sql_type
            if sql_type in _NUMERIC:
                sql_type = SqlType.DOUBLE  # any number compares with any
            return not python_type_matches(sql_type, value.value)
    return True


class TrackingScope(Scope):
    """A scope that records when resolution escapes to an enclosing block."""

    def __init__(self, shape: RowShape, parent: Scope | None = None):
        super().__init__(shape, parent)
        self.escaped = False

    def resolve(self, name: str, table: str | None) -> tuple[int, int]:
        depth, index = super().resolve(name, table)
        scope = self
        for _ in range(depth):  # so does every block in between
            if isinstance(scope, TrackingScope):
                scope.escaped = True
            scope = scope.parent
        return depth, index


class SourcePlan:
    """A physical FROM-clause operator: a row shape plus its one producer.

    ``kind``/``detail``/``children`` describe the node for EXPLAIN output;
    a ``detail`` printing expressions is a callable rendered when described,
    under the caller's :func:`~repro.sql.printer.bound_literals`.

    A batch-native node carries a ``batch_producer`` yielding
    :class:`~repro.engine.batch.ColumnBatch` pages, a row-native one a
    ``producer`` yielding tuples — never both.  A parent pulls whichever
    shape it works in: :meth:`rows` flattens a batch-native child's pages,
    :meth:`batches` chunks a row-native child's stream into ``batch_size``
    pages.  Each node is consumed by exactly one parent through exactly one
    of the two per execution, so the trace's per-node row ledger stays
    per-row-accurate.

    A base-table scan emits the ascending row ids a policy guard above it
    hands down through ``batches(env, ids)``, and every row without them.
    An index scan also carries ``candidate_ids``: ``env`` → the ascending
    row ids its probe selects (``None`` when the index is gone and every
    row is a candidate).  The guard resolves those itself and hands them
    back — one probe per execution, the scanned rows still counted against
    the scan.
    """

    def __init__(
        self,
        shape: RowShape,
        kind: str,
        detail: "str | Callable[[], str]" = "",
        children: "list[SourcePlan] | None" = None,
        *,
        producer: "Callable[..., Iterable[tuple]] | None" = None,
        batch_producer: "Callable[..., Iterator[ColumnBatch]] | None" = None,
        batch_size: int | None = None,
        candidate_ids: "Callable[[Env], list[int] | None] | None" = None,
        scopes: "tuple[TrackingScope, ...]" = (),
    ):
        self.shape = shape
        self.kind = kind
        self.detail = detail
        self.children = children or []
        self.producer = producer
        self.batch_producer = batch_producer
        self.batch_size = batch_size
        self.candidate_ids = candidate_ids
        self.scopes = scopes

    def escapes(self) -> bool:
        """Whether a join condition in this subtree names an outer column."""
        return any(scope.escaped for scope in self.scopes) or any(
            child.escapes() for child in self.children
        )

    def rows(self, env: Env, *ids) -> Iterable[tuple]:
        """Produce this node's output as row tuples."""
        if self.producer is None:
            return chain.from_iterable(
                batch.to_rows() for batch in self.batches(env, *ids)
            )
        if env.trace is not None:
            return env.trace.count_rows(self, self.producer(env, *ids))
        return self.producer(env, *ids)

    def batches(self, env: Env, *ids) -> Iterator[ColumnBatch]:
        """Produce this node's output as column batches.

        Traced executions credit the sum of batch lengths (not the batch
        count) to this node, so EXPLAIN ANALYZE's ``rows=`` figures mean
        rows whichever shape the node was pulled in.
        """
        if self.batch_producer is not None:
            produced = self.batch_producer(env, *ids)
        else:
            produced = batches_from_rows(
                self.producer(env, *ids), self.shape.width(), self.batch_size
            )
        if env.trace is not None:
            return env.trace.count_batches(self, produced)
        return produced

    def describe(self, indent: int = 0, annotate=None) -> list[str]:
        """Render this node and its children as EXPLAIN lines.

        ``annotate`` (a ``node -> str`` callable, typically
        :meth:`repro.obs.tracing.Trace.annotation`) appends per-node suffixes
        such as ``" (rows=N)"`` for EXPLAIN ANALYZE; ``None`` renders the
        bare plan.
        """
        detail = self.detail() if callable(self.detail) else self.detail
        label = self.kind if not detail else f"{self.kind} {detail}"
        if annotate is not None:
            label += annotate(self)
        lines = ["  " * indent + label]
        for child in self.children:
            lines.extend(child.describe(indent + 1, annotate))
        return lines


class PreparedSelect:
    """A fully planned SELECT, bound to a database snapshot."""

    def __init__(self, executor: "SelectExecutor", select: ast.Select, parent_scope: Scope | None):
        self.executor = executor
        self.select = select
        block = Planner(executor).plan_block(select)
        block.parent_scope = parent_scope
        executor.optimizer.optimize(block)
        self.block = block
        source_plan = executor.compile_plan(block.source_root, parent_scope)
        self.source_plan = source_plan
        self.scope = TrackingScope(source_plan.shape, parent_scope)

        # A pushed-down conjunct was claimed by the first leaf able to
        # resolve all of its references — but an unqualified reference that
        # is ambiguous *block-wide* must still be rejected, exactly as it
        # would be without pushdown.  The check runs against the block's
        # pre-optimization shape: projection pruning may have narrowed the
        # physical shapes past columns (like a hoisted guard's policy
        # column) that name resolution legitimately saw.
        for expression in block.claimed:
            for ref in ast.iter_column_refs(expression):
                block.binder_shape.resolve(
                    ref.name.lower(), ref.table.lower() if ref.table else None
                )

        compiler = executor.compiler(self.scope)
        residual_where = block.residual_where()
        self.residual_where_ast = residual_where
        self.where = (
            compiler.compile(residual_where) if residual_where is not None else None
        )

        self.items = self._expand_items(select.items, source_plan.shape)
        self.aggregated, self.aggregate_specs = self._collect_aggregates()
        self.descending = [item.descending for item in select.order_by]

        if self.aggregated:
            self.group_keys = [compiler.compile(e) for e in select.group_by]
            self.aggregate_args = [
                (compiler.compile(arg) if arg is not None else None)
                for (_, _, _, arg) in self.aggregate_specs
            ]
            # HAVING, the select list and ORDER BY run over one batch of
            # group representatives whose extra columns are the aggregates.
            self.output_scope = TrackingScope(self._group_shape(), parent_scope)
        else:
            if select.having is not None:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            self.output_scope = self.scope
        output = executor.compiler(self.output_scope)
        self.projections = [output.compile(item.expression) for item in self.items]
        self.having = (
            output.compile(select.having) if select.having is not None else None
        )
        self.order_keys = [
            output.compile(expression) for expression in self._order_expressions()
        ]

        self.output_columns = [self._output_name(item) for item in self.items]
        self.output_bindings = self._derive_output_bindings()
        # Every expression of the block has compiled: whether one of them
        # (join conditions included) names a column of an enclosing block.
        self.correlated = (
            source_plan.escapes() or self.scope.escaped or self.output_scope.escaped
        )

    # -- optimizer surface -------------------------------------------------------

    @property
    def optimizer_notes(self) -> list[str]:
        """Per-pass annotations recorded while optimizing this block."""
        return self.block.notes

    # -- planning helpers ---------------------------------------------------------

    def _expand_items(
        self, items: tuple[ast.SelectItem, ...], shape: RowShape
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                table_key = expression.table.lower() if expression.table else None
                matched = False
                for binding in shape.bindings:
                    if table_key is not None and binding.source != table_key:
                        continue
                    matched = True
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(binding.name, table=binding.source)
                        )
                    )
                if not matched:
                    raise ExecutionError(
                        f"'*' expansion found no columns for "
                        f"{expression.table or '<all>'!r}"
                    )
            else:
                expanded.append(item)
        return expanded

    def _collect_aggregates(self) -> tuple[bool, list]:
        """Find aggregate calls in select/having/order-by expressions.

        Returns ``(aggregated, specs)`` where each spec is
        ``(key, name, (star, distinct), arg_expression_or_None)``.
        """
        specs: dict[str, tuple] = {}

        def scan(expression: ast.Expression) -> None:
            for node in ast.walk_expression(expression):
                if isinstance(node, ast.FunctionCall) and is_aggregate_name(node.name):
                    key = aggregate_key(node)
                    if key in specs:
                        continue
                    star = bool(node.args) and isinstance(node.args[0], ast.Star)
                    arg = None if (star or not node.args) else node.args[0]
                    if len(node.args) > 1:
                        raise ExecutionError(
                            f"aggregate {node.name}() takes one argument"
                        )
                    specs[key] = (key, node.name, (star, node.distinct), arg)

        for item in self.items:
            scan(item.expression)
        if self.select.having is not None:
            scan(self.select.having)
        for order_item in self.select.order_by:
            scan(order_item.expression)

        aggregated = bool(specs) or bool(self.select.group_by)
        return aggregated, list(specs.values())

    def _group_shape(self) -> RowShape:
        """The group batch's shape: the source columns, then one column per
        aggregate call, bound under ``AGGREGATE_SOURCE`` by its key."""
        shape = self.source_plan.shape
        width = shape.width()
        return RowShape([
            *shape.bindings,
            *(
                ColumnBinding(AGGREGATE_SOURCE, key, width + slot)
                for slot, (key, _, _, _) in enumerate(self.aggregate_specs)
            ),
        ])

    def _order_expressions(self) -> list[ast.Expression]:
        """ORDER BY expressions with ordinals and output aliases resolved."""
        resolved: list[ast.Expression] = []
        for order_item in self.select.order_by:
            expression = order_item.expression
            # ORDER BY <ordinal> selects the i-th projected column.
            if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
                index = expression.value - 1
                if not 0 <= index < len(self.items):
                    raise ExecutionError(
                        f"ORDER BY position {expression.value} out of range"
                    )
                expression = self.items[index].expression
            elif isinstance(expression, ast.ColumnRef) and expression.table is None:
                # An output alias takes precedence over source columns.
                for item in self.items:
                    if item.alias and item.alias.lower() == expression.name.lower():
                        expression = item.expression
                        break
            resolved.append(expression)
        return resolved

    def _output_name(self, item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        expression = item.expression
        if isinstance(expression, ast.ColumnRef):
            return expression.name
        if isinstance(expression, ast.FunctionCall):
            return expression.name
        from ..sql.printer import print_expression

        return print_expression(expression)

    def _derive_output_bindings(self) -> list[ColumnBinding]:
        """Provenance of output columns, for use as a derived table.

        A plain column reference keeps its base table/column so the
        access-control layer can categorize derived data (DESIGN.md §5).
        """
        bindings: list[ColumnBinding] = []
        for index, item in enumerate(self.items):
            name = self.output_columns[index].lower()
            base_table = base_column = None
            sql_type = None
            expression = item.expression
            if isinstance(expression, ast.ColumnRef):
                try:
                    depth, _ = self.scope.resolve(expression.name, expression.table)
                except ExpressionError:
                    depth = -1
                if depth == 0:
                    binding = self.scope.shape.resolve(
                        expression.name.lower(),
                        expression.table.lower() if expression.table else None,
                    )
                    base_table = binding.base_table
                    base_column = binding.base_column
                    sql_type = binding.sql_type
            bindings.append(
                ColumnBinding("", name, index, sql_type, base_table, base_column)
            )
        return bindings

    # -- EXPLAIN ---------------------------------------------------------------------

    def describe(self, annotate=None) -> list[str]:
        """EXPLAIN-style plan lines for this SELECT.

        ``annotate`` (see :meth:`SourcePlan.describe`) adds EXPLAIN
        ANALYZE's per-node row-count suffixes; the block header itself is
        annotated with the rows this SELECT emitted after filtering,
        grouping and limiting.
        """
        from ..sql.printer import print_expression

        lines = []
        header = "Select"
        if self.select.distinct:
            header += " distinct"
        if self.aggregated:
            header += " [aggregate]"
        if self.select.order_by:
            header += " [sort]"
        if self.select.limit is not None:
            header += f" [limit {self.select.limit}]"
        if annotate is not None:
            header += annotate(self)
        lines.append(header)
        if self.residual_where_ast is not None:
            lines.append(f"  Where [{print_expression(self.residual_where_ast)}]")
        if self.select.having is not None:
            lines.append(f"  Having [{print_expression(self.select.having)}]")
        lines.extend(self.source_plan.describe(indent=1, annotate=annotate))
        return lines

    # -- execution ------------------------------------------------------------------

    def rows(self, env: Env) -> list[tuple]:
        """Execute the pipeline; uncorrelated results are cached.

        The cache lives in ``env.subq`` (keyed by plan identity), so it is
        scoped to one statement execution: a plan shared across executions —
        or across threads, on the prepared-statement path — never carries
        results from one run into the next.  Environments without a ``subq``
        dict simply skip the memoization.
        """
        return self._once(env, id(self), self._execute)

    def batches(self, env: Env) -> list[ColumnBatch]:
        """The result pages of a block without ORDER BY, DISTINCT, LIMIT
        or OFFSET; cached as :meth:`rows` is, beside it."""
        return self._once(env, (id(self), "pages"), lambda e: list(self._output(e)))

    def _once(self, env: Env, key, run: Callable[[Env], list]) -> list:
        if self.correlated or env.subq is None:
            return run(env)
        cached = env.subq.get(key)
        if cached is None:
            cached = env.subq[key] = run(env)
        return cached

    def _output(self, env: Env) -> Iterator[ColumnBatch]:
        """The one pipeline — FROM → WHERE → group → HAVING → the select
        list — a page at a time: each page holds the select list's columns,
        then one per ORDER BY key."""
        batches = self.source_plan.batches(env)
        if self.where is not None:
            batches = self._filter_batches(batches, env)
        if self.aggregated:
            batches = [self._group(batches, env)]
        outputs = [*self.projections, *self.order_keys]
        for batch in batches:
            if self.having is not None:
                keep = true_positions(self.having(batch, env))
                if not keep:
                    continue
                if len(keep) < batch.length:
                    batch = batch.take(keep)
            yield ColumnBatch([out(batch, env) for out in outputs], batch.length)

    def _execute(self, env: Env) -> list[tuple]:
        width = len(self.projections)
        rows: list[tuple] = []
        keys: list[list] = [[] for _ in self.order_keys]
        for page in self._output(env):
            rows.extend(zip(*page.columns[:width]))
            for column, values in zip(keys, page.columns[width:]):
                column.extend(values)
        if keys:
            rows = self._sorted(rows, keys)
        elif self.select.distinct:
            rows = list(dict.fromkeys(rows))
        if self.select.offset is not None:
            rows = rows[self.select.offset :]
        if self.select.limit is not None:
            rows = rows[: self.select.limit]
        if env.trace is not None:
            env.trace.add_rows(self, len(rows))
        return rows

    def _filter_batches(
        self, batches: Iterator[ColumnBatch], env: Env
    ) -> Iterator[ColumnBatch]:
        """Apply the residual WHERE, dropping non-True rows."""
        where = self.where
        for batch in batches:
            keep = true_positions(where(batch, env))
            if not keep:
                continue
            yield batch if len(keep) == len(batch) else batch.take(keep)

    def _sorted(self, rows: list[tuple], keys: list[list]) -> list[tuple]:
        """``rows`` in ORDER BY order (``keys``: one value list per key).

        DISTINCT first keeps each row's first appearance, with its keys.
        Then one stable sort of the row positions per key, the last key
        first; NULLs sort last for ASC, first for DESC (PostgreSQL
        default).
        """
        if self.select.distinct:
            # Iterated backwards, each row's slot ends holding its first
            # position.
            first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
            order = sorted(first.values())
        else:
            order = list(range(len(rows)))
        for column, descending in reversed(list(zip(keys, self.descending))):
            require_orderable(gatherer(order)(column))
            ranks = [(value is None, value) for value in column]
            order.sort(key=ranks.__getitem__, reverse=descending)
        return list(gatherer(order)(rows))

    def _group(self, batches: Iterator[ColumnBatch], env: Env) -> ColumnBatch:
        """Aggregate ``batches`` into one batch of group representatives
        whose extra columns are the aggregate results (``_group_shape``).

        A page at a time: its rows are partitioned by key (ascending
        positions per key, keys in first-appearance order), then each
        accumulator folds each group's slice of its argument column in one
        call.  A single-column key is the scalar, as in ``HashJoin``."""
        groups: dict[object, list] = {}
        factories = [
            aggregate_factory(name, star, distinct)
            for (_, name, (star, distinct), _) in self.aggregate_specs
        ]
        single_key = len(self.group_keys) == 1
        for batch in batches:
            length = batch.length
            if not length:
                continue
            key_columns = [key(batch, env) for key in self.group_keys]
            arg_columns = [
                (arg(batch, env) if arg is not None else None)
                for arg in self.aggregate_args
            ]
            if key_columns:
                parts: dict[object, list] = {}
                part = parts.get
                keys = key_columns[0] if single_key else zip(*key_columns)
                for i, key in enumerate(keys):
                    positions = part(key)
                    if positions is None:
                        parts[key] = [i]
                    else:
                        positions.append(i)
            else:
                parts = {(): range(length)}
            for key, positions in parts.items():
                group = groups.get(key)
                if group is None:
                    # Representative rows are materialized lazily — only the
                    # first row of each group ever becomes a tuple.
                    group = [batch.row(positions[0]), [new() for new in factories]]
                    groups[key] = group
                whole = len(positions) == length
                for accumulator, column in zip(group[1], arg_columns):
                    if column is None:  # count(*): only the length counts
                        accumulator.fold(positions)
                    elif whole:
                        accumulator.fold(column)
                    else:
                        accumulator.fold([column[i] for i in positions])
        width = self.source_plan.shape.width()
        if not groups and not self.select.group_by:
            # Aggregates over an empty input still yield one row.
            groups[()] = [(None,) * width, [new() for new in factories]]
        representatives = ColumnBatch.from_rows(
            [representative for representative, _ in groups.values()], width
        )
        results = [
            [accumulator.result() for accumulator in accumulators]
            for _, accumulators in groups.values()
        ]
        aggregates = [
            [values[slot] for values in results]
            for slot in range(len(self.aggregate_specs))
        ]
        return ColumnBatch([*representatives.columns, *aggregates], len(groups))


class SelectExecutor:
    """Compiles optimized logical plans and runs SELECT statements.

    The executor makes no planning decisions of its own: the
    :class:`~repro.engine.plan.Planner` shapes the plan, the
    :class:`~repro.engine.plan.Optimizer` (one per executor, carrying the
    resolved mode) rewrites it, and :meth:`compile_plan` turns each logical
    node into its one physical :class:`SourcePlan` operator.
    """

    def __init__(
        self,
        database,
        optimizer: str | None = None,
        batch_size: int | None = None,
    ):
        self.database = database
        self.optimizer = Optimizer(optimizer, database)
        self.batch_size = resolve_batch_size(batch_size)

    @property
    def optimizer_mode(self) -> str:
        """The resolved optimizer mode this executor plans under."""
        return self.optimizer.mode

    # -- compiler / subquery hooks ---------------------------------------------------

    def compiler(self, scope: Scope) -> ExpressionCompiler:
        """An expression compiler for ``scope`` that plans nested SELECTs here."""
        return ExpressionCompiler(scope, self.database.functions, self)

    def prepare_block(
        self, select: ast.Select, parent_scope: Scope | None
    ) -> PreparedSelect:
        """Plan one nested SELECT block: a derived table (no parent scope) or
        a subquery inside an expression of the block with ``parent_scope``."""
        return PreparedSelect(self, select, parent_scope)

    # -- physical compilation ---------------------------------------------------------

    def compile_plan(
        self, node: plan_ir.LogicalNode, parent_scope: Scope | None
    ) -> SourcePlan:
        """Compile one optimized logical node into a physical operator."""
        if isinstance(node, plan_ir.Values):
            return SourcePlan(
                node.shape, "Values", "(one row)",
                batch_producer=lambda env: iter([ColumnBatch([], 1)]),
            )
        if isinstance(node, plan_ir.IndexScan):  # before Scan: a subclass
            return self._compile_index_scan(node)
        if isinstance(node, plan_ir.Scan):
            return self._compile_scan(node)
        if isinstance(node, plan_ir.DerivedTable):
            return self._compile_derived(node)
        if isinstance(node, plan_ir.Filter):
            return self._compile_filter(node, parent_scope)
        if isinstance(node, plan_ir.PolicyGuard):
            return self._compile_policy_guard(node, parent_scope)
        if isinstance(node, plan_ir.HashJoin):
            return self._compile_hash_join(node, parent_scope)
        if isinstance(node, plan_ir.NestedLoop):
            if node.condition is None:
                return self._compile_cross_join(node, parent_scope)
            return self._compile_nested_loop(node, parent_scope)
        raise ExecutionError(
            f"unsupported plan node {type(node).__name__}"
        )

    def _scan_detail(self, table, node: plan_ir.Scan) -> str:
        """A scan's EXPLAIN text: table, alias, access path, pruned columns."""
        detail = table.name
        if node.binding != table.name.lower():
            detail += f" as {node.binding}"
        if isinstance(node, plan_ir.IndexScan):
            detail += f" using {node.index_name} [{node.predicate()}]"
        if node.kept is not None:
            detail += f" (cols: {', '.join(node.kept)})"
        return detail

    def _fetcher(self, table, node: plan_ir.Scan):
        """The page emitter shared by every base-table access.

        Takes the visible row list and the ascending row ids to emit
        (``None`` = every row) and applies the scan's column narrowing.
        Pages slice the table's column image (``Table.column_image``) when
        it keeps one for the list — a full scan or an id fetch of more than
        a page (a guard's passing ids) builds or carries it, a shorter one
        (a point lookup) carries it only by the latest commit's record — and
        transpose row tuples otherwise (a pinned snapshot's list, a staged
        overlay).
        """
        width = node.shape.width()
        batch_size = self.batch_size
        kept = (
            [table.schema.column_index(name) for name in node.kept]
            if node.kept is not None
            else None
        )

        def fetch(rows: list, ids: "list[int] | None") -> Iterator[ColumnBatch]:
            image = table.column_image(rows, ids is None or len(ids) > batch_size)
            if image is not None:
                _, length, columns = image
                if kept is not None:
                    columns = [columns[p] for p in kept]
                if ids is None:
                    for start in range(0, length, batch_size):
                        page = [c[start : start + batch_size] for c in columns]
                        yield ColumnBatch(page, min(batch_size, length - start))
                    return
                for start in range(0, len(ids), batch_size):
                    page = ids[start : start + batch_size]
                    gather = gatherer(page)
                    yield ColumnBatch([gather(c) for c in columns], len(page))
                return
            source = rows if ids is None else [rows[i] for i in ids]
            for start in range(0, len(source), batch_size):
                page = source[start : start + batch_size]
                if kept is None:
                    yield ColumnBatch.from_rows(page, width)
                else:
                    yield ColumnBatch(
                        [[row[p] for row in page] for p in kept], len(page)
                    )

        return fetch

    def _compile_scan(self, node: plan_ir.Scan) -> SourcePlan:
        table = self.database.table(node.table_name)
        fetch = self._fetcher(table, node)
        # table.rows is read at execution time (not planning time): prepared
        # plans are re-executed after inserts/updates replace the row list.
        return SourcePlan(
            node.shape, "SeqScan", self._scan_detail(table, node),
            batch_producer=lambda env, ids=None: fetch(table.rows, ids),
        )

    def _compile_index_scan(self, node: plan_ir.IndexScan) -> SourcePlan:
        """Index probe / prefix or range walk: candidate row ids → rows.

        The matched predicates stay in the parent filter (a recheck), so
        this node only has to narrow candidates.  Whenever it cannot — the
        index was dropped after planning, the probe value cannot be
        compared with the index's keys, or a conjunct ahead of the key
        might raise on a row the probe skips — it degrades to a full
        sequential read and the recheck decides, exactly as without the
        index.
        """
        table = self.database.table(node.table_name)
        manager = self.database.indexes
        fetch = self._fetcher(table, node)
        ranged = isinstance(node, plan_ir.IndexRangeScan)
        values = node.values

        def probe(env: Env) -> "list[int] | None":
            if ranged:
                return manager.lookup_range(
                    node.index_name,
                    node.lower, node.upper,
                    node.lower_inclusive, node.upper_inclusive, env.costs,
                )
            key = []
            for value in values:
                if isinstance(value, ast.Parameter):
                    if env.params is None or value.key not in env.params:
                        return None  # unbound: the recheck reports it
                    value = env.params[value.key]
                if value is None:
                    return []  # column = NULL is never true
                key.append(value)
            return manager.lookup_prefix(node.index_name, tuple(key), env.costs)

        def candidate_ids(env: Env) -> "list[int] | None":
            # Resolved at execution time: prepared plans are re-executed
            # with new bindings, after DML and after DDL drops the index.
            try:
                if any(_may_raise(c, node.shape, env.params) for c in node.ahead):
                    return None
                return probe(env)
            except (CatalogError, TypeError):
                return None  # index dropped, or an incomparable probe value

        def produce(env: Env, *ids) -> Iterator[ColumnBatch]:
            (chosen,) = ids or (candidate_ids(env),)
            return fetch(table.rows, chosen)

        return SourcePlan(
            node.shape, type(node).__name__, lambda: self._scan_detail(table, node),
            batch_producer=produce, candidate_ids=candidate_ids,
        )

    def _compile_derived(self, node: plan_ir.DerivedTable) -> SourcePlan:
        prepared, select = node.prepared, node.select
        whole = select.order_by or select.distinct or select.offset
        if not whole and select.limit is None:  # its pages, as they come
            return SourcePlan(
                node.shape, "Subquery", node.alias, [prepared.source_plan],
                batch_producer=lambda env: iter(prepared.batches(env)),
            )
        return SourcePlan(
            node.shape, "Subquery", node.alias, [prepared.source_plan],
            producer=lambda env: prepared.rows(env),
            batch_size=self.batch_size,
        )

    def _compile_filter(
        self, node: plan_ir.Filter, parent_scope: Scope | None
    ) -> SourcePlan:
        child = self.compile_plan(node.input, parent_scope)
        claimed = list(node.conjuncts or [])
        # Pushed conjuncts resolve fully inside the leaf (that is what made
        # them pushable), so they compile without the enclosing scope chain.
        compiler = self.compiler(TrackingScope(child.shape, parent=None))
        predicates = [compiler.compile(expr) for expr in claimed]

        def produce(env: Env) -> Iterator[ColumnBatch]:
            for batch in child.batches(env):
                # Progressive narrowing: each conjunct sees only the rows
                # the previous ones kept — an and-chain's short circuit.
                for predicate in predicates:
                    keep = true_positions(predicate(batch, env))
                    if len(keep) == len(batch):
                        continue
                    batch = batch.take(keep)
                    if not batch.length:
                        break
                if batch.length:
                    yield batch

        from ..sql.printer import print_expression

        def detail() -> str:
            return f"[{' and '.join(print_expression(e) for e in claimed)}]"

        return SourcePlan(
            child.shape, "Filter", detail, [child], batch_producer=produce,
        )

    def _compile_policy_guard(
        self, node: plan_ir.PolicyGuard, parent_scope: Scope | None
    ) -> SourcePlan:
        """Answer the hoisted guards from the policy posting lists.

        The guard hands its scan the row ids it may emit through
        ``batches(env, ids)``.  Over a sequential scan, or an index scan
        whose index is gone, those are the ascending ids of the rows whose
        policy passes every mask.  Over a live index scan they are the
        probe's candidates: the scan reads each of them (so EXPLAIN ANALYZE
        counts the rows the probe examined against it) and the guard keeps
        the ones whose policy value passes, judging only their values.
        """
        child = self.compile_plan(node.scan, parent_scope)
        table = self.database.table(node.scan.table_name)
        function_name = self.database.policy_function
        policy_column = self.database.policy_column
        registry = self.database.functions
        bitmaps = self.database.policy_bitmaps
        candidate_ids = child.candidate_ids

        masks = tuple(guard.args[0].bits for guard in node.guards)

        def produce(env: Env) -> Iterator[ColumnBatch]:
            ids = None if candidate_ids is None else candidate_ids(env)
            if ids is None:
                ordered = bitmaps.passing_ids(
                    table, policy_column, masks, registry, function_name,
                    env.costs,
                )
                yield from child.batches(env, ordered)
                return
            rows = table.rows
            position = table.schema.column_index(policy_column)
            allowed = bitmaps.admitted(
                table, masks, {rows[i][position] for i in ids}, registry,
                function_name, env.costs,
            )
            offset = 0
            for batch in child.batches(env, ids):
                page = ids[offset : offset + batch.length]
                offset += batch.length
                keep = [k for k, i in enumerate(page) if rows[i][position] in allowed]
                if len(keep) == batch.length:
                    yield batch
                elif keep:
                    yield batch.take(keep)

        from ..sql.printer import print_expression

        detail = " and ".join(print_expression(guard) for guard in node.guards)
        return SourcePlan(
            child.shape, "PolicyGuard", f"[{detail}]", [child],
            batch_producer=produce,
        )

    def _compile_cross_join(
        self, node: plan_ir.NestedLoop, parent_scope: Scope | None
    ) -> SourcePlan:
        left = self.compile_plan(node.left, parent_scope)
        right = self.compile_plan(node.right, parent_scope)

        def produce(env: Env) -> Iterable[tuple]:
            right_rows = list(right.rows(env))
            for left_row in left.rows(env):
                for right_row in right_rows:
                    yield left_row + right_row

        return SourcePlan(
            node.shape, "NestedLoop", "(cross)", [left, right],
            producer=produce, batch_size=self.batch_size,
        )

    def _compile_nested_loop(
        self, node: plan_ir.NestedLoop, parent_scope: Scope | None
    ) -> SourcePlan:
        left = self.compile_plan(node.left, parent_scope)
        right = self.compile_plan(node.right, parent_scope)
        kind = node.join_kind
        merged_scope = TrackingScope(node.shape, parent_scope)
        predicate = self.compiler(merged_scope).compile(node.condition)
        left_width = left.shape.width()
        right_width = right.shape.width()

        def produce(env: Env) -> Iterable[tuple]:
            right_rows = list(right.rows(env))
            right_columns = ColumnBatch.from_rows(right_rows, right_width).columns
            count = len(right_rows)
            matched_right: set[int] = set()
            for left_row in left.rows(env):
                emitted = False
                if count:
                    # The condition runs once per left row, over the batch
                    # of that row paired with every right row.
                    pairs = ColumnBatch(
                        [*([value] * count for value in left_row), *right_columns],
                        count,
                    )
                    for index, verdict in enumerate(predicate(pairs, env)):
                        if verdict is True:
                            emitted = True
                            matched_right.add(index)
                            yield left_row + right_rows[index]
                if not emitted and kind == "LEFT":
                    yield left_row + (None,) * right_width
            if kind == "RIGHT":
                for index, right_row in enumerate(right_rows):
                    if index not in matched_right:
                        yield (None,) * left_width + right_row

        return SourcePlan(
            node.shape, "NestedLoop", f"({kind.lower()})", [left, right],
            producer=produce, batch_size=self.batch_size, scopes=(merged_scope,),
        )

    def _compile_hash_join(
        self, node: plan_ir.HashJoin, parent_scope: Scope | None
    ) -> SourcePlan:
        """Columnar hash join: one build/probe body for every variant.

        The build side maps each key to *global row indices* and keeps its
        values column-wise; the probe side gathers matching (probe, build)
        index pairs per page, and output pages are built by per-column
        takes — no row tuple is ever constructed.  While every non-NULL
        build key is unique the map is ``key → index``, built a page at a
        time by ``dict(zip(keys, ids))``, and a probe page is one
        ``map(index.get, keys)``; a page that matched completely keeps its
        own columns.  The first build page that repeats a key (within
        itself or with an earlier page) converts the map once to
        ``key → [indices]`` buckets.  The build side is the right input,
        or — ``build_side == "smaller"``, INNER joins on the full pipeline —
        whichever input turns out smaller on this execution: pages are
        pulled from the input that has yielded fewer rows so far (ties:
        right) until one input ends; that one builds, and the other is
        probed from its pulled pages, then its rest.  Either way each input
        is read once, in full.  Output order follows the probe side, all
        matches of one probe row together in build order, columns always
        left-then-right.  The residual predicate is evaluated on the
        candidate pairs as one batch.  A LEFT join splices a NULL-extended
        row in for every probe row left without a match, a RIGHT join
        appends the build rows nothing matched.
        """
        left = self.compile_plan(node.left, parent_scope)
        right = self.compile_plan(node.right, parent_scope)
        kind = node.join_kind
        equi_pairs = node.equi_pairs
        shapes = (left.shape, right.shape, node.shape)
        scopes = tuple(TrackingScope(shape, parent_scope) for shape in shapes)
        left_compiler, right_compiler, residual_compiler = map(self.compiler, scopes)
        left_keys = [left_compiler.compile(le) for le, _ in equi_pairs]
        right_keys = [right_compiler.compile(re) for _, re in equi_pairs]
        residual = (
            residual_compiler.compile(node.residual)
            if node.residual is not None
            else None
        )
        smaller = kind == "INNER" and node.build_side == "smaller"
        single_key = len(equi_pairs) == 1
        has_null = is_ if single_key else contains  # (key, None) -> NULL in key

        def batch_keys(batch, evaluators, env):
            """One hashable join key per row: a scalar for single-column
            joins (the common case — no per-row tuple construction), a
            tuple otherwise.  Scalar and 1-tuple keys hash/compare the
            same way, so match semantics are unchanged."""
            columns = [k(batch, env) for k in evaluators]
            return columns[0] if single_key else list(zip(*columns))

        def sides(env: Env):
            """``(build_left, build pages, probe pages)`` for one execution."""
            if not smaller:
                return False, right.batches(env), left.batches(env)
            inputs = (left.batches(env), right.batches(env))
            pulled: tuple[list, list] = ([], [])
            counts = [0, 0]
            while True:
                side = 0 if counts[0] < counts[1] else 1
                batch = next(inputs[side], None)
                if batch is None:  # this input ended: it is the smaller one
                    other = 1 - side
                    return side == 0, pulled[side], chain(pulled[other], inputs[other])
                pulled[side].append(batch)
                counts[side] += batch.length

        def produce(env: Env) -> Iterator[ColumnBatch]:
            build_left, build_pages, probe_pages = sides(env)
            if build_left:
                build, build_keys, probe_keys = left, left_keys, right_keys
            else:
                build, build_keys, probe_keys = right, right_keys, left_keys
            index: dict[object, int] = {}  # key -> its one build row
            buckets: "dict[object, list[int]] | None" = None  # once one repeats
            build_columns: list[list] = [[] for _ in range(build.shape.width())]
            base = 0
            for batch in build_pages:
                keys = batch_keys(batch, build_keys, env)
                for column, values in zip(build_columns, batch.columns):
                    column.extend(values)
                if buckets is None:
                    page = dict(zip(keys, range(base, base + batch.length)))
                    nulls = sum(map(has_null, keys, repeat(None)))
                    if nulls and single_key:  # NULL never joins
                        del page[None]
                    elif nulls:
                        page = {k: j for k, j in page.items() if None not in k}
                    unique = len(page) + nulls == batch.length
                    if unique and index.keys().isdisjoint(page):
                        index.update(page)
                        base += batch.length
                        continue
                    buckets = {key: [j] for key, j in index.items()}
                bucket_get = buckets.get
                for offset, key in enumerate(keys):
                    if (key is None) if single_key else (None in key):
                        continue  # NULL never joins
                    bucket = bucket_get(key)
                    if bucket is None:
                        buckets[key] = [base + offset]
                    else:
                        bucket.append(base + offset)
                base += batch.length
            # Build index -1 reads this NULL: the padding of a LEFT join.
            for column in build_columns:
                column.append(None)
            lookup = index.get if buckets is None else buckets.get

            def joined(batch, probe_take, build_take) -> ColumnBatch:
                # probe_take None: every probe row once, in order, as it is.
                if probe_take is None:
                    probed = batch.columns
                else:
                    gather = gatherer(probe_take)
                    probed = [gather(c) for c in batch.columns]
                gather = gatherer(build_take)
                built = [gather(c) for c in build_columns]
                return ColumnBatch(
                    [*built, *probed] if build_left else [*probed, *built],
                    len(build_take),
                )

            matched: set[int] = set()
            # NULL probe keys were never stored, so lookup() already misses
            # them — no per-row NULL check needed.
            for batch in probe_pages:
                keys = batch_keys(batch, probe_keys, env)
                probe_take: "list[int] | None" = None
                if buckets is None:
                    build_take = list(map(lookup, keys))
                    if None in build_take:
                        hit = list(map(is_not, build_take, repeat(None)))
                        probe_take = list(compress(range(batch.length), hit))
                        build_take = list(compress(build_take, hit))
                else:
                    probe_take, build_take = [], []
                    for i, key in enumerate(keys):
                        bucket = lookup(key)
                        if bucket is not None:
                            build_take.extend(bucket)
                            probe_take.extend(repeat(i, len(bucket)))
                if residual is not None and build_take:
                    keep = true_positions(
                        residual(joined(batch, probe_take, build_take), env)
                    )
                    if len(keep) < len(build_take):
                        gather = gatherer(keep)
                        probe_take = keep if probe_take is None else gather(probe_take)
                        build_take = gather(build_take)
                if kind == "RIGHT":
                    matched.update(build_take)
                elif kind == "LEFT" and probe_take is not None:
                    hit = set(probe_take)
                    if len(hit) < batch.length:
                        pairs = sorted(
                            chain(
                                zip(probe_take, build_take),
                                ((i, -1) for i in range(batch.length) if i not in hit),
                            ),
                            key=itemgetter(0),
                        )
                        probe_take = [i for i, _ in pairs]
                        build_take = [j for _, j in pairs]
                if build_take:
                    yield joined(batch, probe_take, build_take)
            if kind == "RIGHT":
                rest = [j for j in range(base) if j not in matched]
                if rest:
                    yield ColumnBatch(
                        [[None] * len(rest) for _ in range(left.shape.width())]
                        + [[column[j] for j in rest] for column in build_columns],
                        len(rest),
                    )

        from ..sql.printer import print_expression

        keys = ", ".join(
            f"{print_expression(le)} = {print_expression(re)}"
            for le, re in equi_pairs
        )
        return SourcePlan(
            node.shape, "HashJoin", f"({kind.lower()}) on {keys}", [left, right],
            batch_producer=produce, scopes=scopes,
        )
