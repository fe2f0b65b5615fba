"""The in-memory relational database: catalog + statement execution.

:class:`Database` is the stand-in for PostgreSQL in the paper's evaluation
(Section 6.3).  It owns the table catalog, the scalar-function registry
(where the enforcement framework installs ``complieswith``) and the total
its executions' cost ledgers fold into, and executes SQL statements: SELECT
through :class:`~repro.engine.executor.SelectExecutor`, DML/DDL here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from ..errors import CatalogError, ExecutionError, TransactionError
from ..sql import ast, parse_statement
from .catalog import Catalog, CatalogOp
from .executor import PreparedSelect, SelectExecutor
from .batch import ColumnBatch, true_positions
from .expressions import Env, ExpressionCompiler, Scope, evaluate_constant
from .functions import CostTotal, FunctionRegistry
from .index import IndexDefinition, IndexManager
from .mvcc import Transaction, TransactionManager, WritePlan, current_transaction
from .plan import PolicyBitmapCache, Scan, best_index_path, flatten_conjuncts
from .result import ResultSet
from .schema import Column, ColumnBinding, RowShape, TableSchema
from .table import Table
from .types import SqlType, coerce_value


class PreparedQuery:
    """A planned SELECT (or set-operation chain) reusable across executions.

    Planning — FROM-tree layout, join strategy, expression compilation —
    happens once in the constructor; :meth:`execute` then runs the compiled
    pipeline against the *current* table contents, with parameter values
    supplied through an execution-time environment rather than baked-in
    literals.  This is the engine half of the prepare-once/execute-many
    discipline the enforcement monitor builds its plan cache on.
    """

    def __init__(
        self,
        database: "Database",
        statement: "ast.Select | ast.SetOperation",
        optimizer: str | None = None,
        batch_size: int | None = None,
    ):
        self.database = database
        self.statement = statement
        self.executor = SelectExecutor(
            database, optimizer=optimizer, batch_size=batch_size
        )
        self.optimizer_mode = self.executor.optimizer_mode
        self.batch_size = self.executor.batch_size
        self.parameters = ast.collect_parameters(statement)
        self._plan = self._prepare_node(statement)

    def _prepare_node(self, node):
        if isinstance(node, ast.SetOperation):
            return (
                node,
                self._prepare_node(node.left),
                self._prepare_node(node.right),
            )
        return PreparedSelect(self.executor, node, parent_scope=None)

    def execute(self, params=None, trace=None, costs=None) -> ResultSet:
        """Run the prepared pipeline under the given parameter bindings.

        ``params`` is a sequence (bound to ``$1``, ``$2``, ... in order) or
        a mapping keyed by parameter index/name; missing bindings raise
        :class:`ExecutionError` before execution starts.  ``trace`` (a
        :class:`~repro.obs.tracing.Trace`) makes plan nodes record per-node
        row counts for this execution only; ``None`` is the untraced fast
        path.  ``costs`` is the caller's ledger to charge (``None``: a
        ledger of its own, folded into the database total at the end).
        """
        bound = bind_parameters(params, self.parameters)
        # A fresh subquery-result cache per execution: the compiled plan is
        # immutable and may be running on several threads at once, so all
        # per-run state lives in the environment.
        with self.database.cost_total.ledger(costs) as ledger:
            return self._execute_node(
                self._plan, Env(params=bound, subq={}, trace=trace, costs=ledger)
            )

    def _execute_node(self, plan, env: Env) -> ResultSet:
        if isinstance(plan, PreparedSelect):
            return ResultSet(plan.output_columns, plan.rows(env))
        from .result import combine_set_operation

        node, left, right = plan
        return combine_set_operation(
            self._execute_node(left, env),
            self._execute_node(right, env),
            node.op,
            node.all,
        )

    # -- optimizer surface ----------------------------------------------------------

    def _arms(self) -> "tuple[list[str], list[PreparedSelect]]":
        """Flatten the (possibly set-operation) plan into ordered arms."""
        ops: list[str] = []
        arms: list[PreparedSelect] = []

        def walk(plan) -> None:
            if isinstance(plan, PreparedSelect):
                arms.append(plan)
                return
            node, left, right = plan
            walk(left)
            ops.append(node.op)
            walk(right)

        walk(self._plan)
        return ops, arms

    @property
    def columns(self) -> list[str]:
        """Output column names (a set operation shows its leftmost arm's)."""
        return self._arms()[1][0].output_columns

    def describe(self, annotate=None) -> list[str]:
        """EXPLAIN lines: the physical plan of every set-operation arm.

        A single SELECT renders as its block's
        :meth:`~repro.engine.executor.PreparedSelect.describe`; a
        set-operation chain labels each arm (``Union arm 1/2`` ...) and
        indents its plan beneath the label.  ``annotate`` threads through
        for EXPLAIN ANALYZE's row-count suffixes.
        """
        ops, arms = self._arms()
        if len(arms) == 1:
            return arms[0].describe(annotate=annotate)
        lines: list[str] = []
        for index, arm in enumerate(arms):
            op = ops[index - 1] if index else ops[0]
            lines.append(f"{op.title()} arm {index + 1}/{len(arms)}")
            lines.extend(
                "  " + line for line in arm.describe(annotate=annotate)
            )
        return lines

    def optimizer_notes(self) -> list[str]:
        """Per-pass optimizer annotations, prefixed per set-operation arm."""
        _, arms = self._arms()
        if len(arms) == 1:
            return list(arms[0].optimizer_notes)
        notes: list[str] = []
        for index, arm in enumerate(arms):
            notes.extend(
                f"arm {index + 1}: {note}" for note in arm.optimizer_notes
            )
        return notes

    def plan_summary(self) -> dict[str, int]:
        """Count of plan nodes by kind (``{"HashJoin": 1, "SeqScan": 2}``).

        A cheap structural fingerprint for trace/span attributes — join
        strategy and scan count without shipping the whole plan text.
        """
        counts: dict[str, int] = {}

        def visit(node) -> None:
            counts[node.kind] = counts.get(node.kind, 0) + 1
            for child in node.children:
                visit(child)

        for arm in self._arms()[1]:
            visit(arm.source_plan)
        return counts


def bind_parameters(params, declared) -> dict | None:
    """Normalize user-supplied bindings and check them against ``declared``.

    Sequences bind positionally to ``$1..$n``; mappings bind by index or by
    (case-insensitive) name.  Raises :class:`ExecutionError` when a declared
    parameter has no binding — surplus bindings are ignored.
    """
    if params is None:
        bound: dict = {}
    elif isinstance(params, dict):
        bound = {}
        for key, value in params.items():
            if isinstance(key, str):
                bound[key.lower()] = value
            else:
                bound[int(key)] = value
    elif isinstance(params, (list, tuple)):
        bound = {index: value for index, value in enumerate(params, start=1)}
    else:
        raise ExecutionError(
            f"parameters must be a sequence or mapping, got {type(params).__name__}"
        )
    missing = [p.placeholder for p in declared if p.key not in bound]
    if missing:
        raise ExecutionError(
            f"missing values for parameters: {', '.join(sorted(missing))}"
        )
    return bound


class Database:
    """A named collection of tables with a SQL execution interface."""

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: dict[str, Table] = {}
        # What every finished execution spent: the counters below read it.
        self.cost_total = CostTotal()
        self.functions = FunctionRegistry(self.cost_total)
        # Policy-enforcement hooks, set by the admin layer when the
        # framework is configured.  ``policy_function``/``policy_column``
        # tell the optimizer what a rewriter-injected guard conjunct looks
        # like; ``policy_bitmaps`` answers those guards from one policy
        # posting index per table and one verdict map per (table, mask):
        # one ``complieswith`` call per distinct policy value instead of
        # one per row.  ``policy_reencoder(table, old schema, new schema)``
        # gives ALTER TABLE the row function (or None) that moves a stored
        # policy mask to the new schema's mask layout in the same commit.
        self.policy_function: str | None = None
        self.policy_column: str | None = None
        self.policy_reencoder: Callable[..., Callable | None] | None = None
        self.policy_bitmaps = PolicyBitmapCache(self.cost_total)
        # Secondary-index catalog (DESIGN.md §13).
        self.indexes = IndexManager(self)
        # The versioned metadata catalog (DESIGN.md §15): schemas and index
        # definitions as commit-stamped versions, and a marker each
        # taxonomy edit moves.  Snapshots pin ``catalog.version``; it
        # subsumes the policy epoch.
        self.catalog = Catalog()
        # MVCC: the commit clock + active-snapshot registry (DESIGN.md §15).
        self.transactions = TransactionManager(self)
        # Durability hook; set by engine.wal.DurabilityManager when attached.
        self.durability = None

    # -- catalog -----------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True when a table with this name exists."""
        return name.lower() in self.tables

    def table_names(self) -> list[str]:
        """All table names, in creation order."""
        return [table.name for table in self.tables.values()]

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a prepared schema (an autocommit DDL commit).

        CREATE/DROP TABLE stay outside transactions: a staged table would
        need catalog-overlaid name resolution through every reader.
        """
        self._forbid_txn("CREATE TABLE")
        key = schema.name.lower()
        with self.transactions.statement_transaction() as txn:
            txn.add_catalog_op(
                CatalogOp(
                    "table",
                    key,
                    {"op": "create_table", "schema": schema},
                    validate=lambda: self._require_table_absent(schema.name),
                )
            )
        return self.tables[key]

    def drop_table(self, name: str) -> None:
        """Drop a table and, in the same commit, its indexes; unknown names
        raise."""
        self._forbid_txn("DROP TABLE")
        key = name.lower()
        with self.transactions.statement_transaction() as txn:
            txn.add_catalog_op(
                CatalogOp(
                    "table",
                    key,
                    {"op": "drop_table", "table": key},
                    validate=lambda: self.table(name),
                )
            )

    def _require_table_absent(self, name: str) -> None:
        if name.lower() in self.tables:
            raise CatalogError(f"table {name!r} already exists")

    # -- commit application ------------------------------------------------------

    def apply_commit(
        self, ts: int, ddl: "Iterable[dict]", plans: "Iterable[WritePlan]", pins=()
    ) -> None:
        """Apply one commit at ``ts``: its row effects, then its catalog
        entries at one new catalog version, then the live state those
        entries describe.

        The one applier: the transaction manager runs it under its lock for
        every live commit, :func:`~repro.engine.codec.apply_record` for each
        logged one and checkpoint image, a shard worker for the DDL its
        coordinator ships.  ``ddl`` are logical catalog ops holding engine
        objects (:func:`~repro.engine.codec.decode_op` makes them); ``plans`` are
        :class:`~repro.engine.mvcc.WritePlan` row effects.  Only committed
        state is read — latest schemas and the latest catalog, never a
        snapshot — so a committing transaction's staged schema is not
        applied twice.  ``pins`` as for :meth:`Table.apply_committed`.
        """
        entries: dict[tuple[str, str], object] = {}
        for op in ddl:
            self._catalog_entries(op, entries)
        for plan in plans:
            plan.table.apply_committed(plan.op, plan.payload, ts, plan.written, pins)
        if not entries:
            return
        version = self.catalog.commit(
            [(kind, key, value) for (kind, key), value in entries.items()], ts
        )
        for (kind, key), value in entries.items():
            if kind == "index":
                self.indexes.discard(key)
            elif kind == "acm":
                continue  # a version marker: the taxonomy is Pr/Pm rows
            elif kind == "schema":
                self.tables[key].commit_schema(value, version)
            elif value is None:
                del self.tables[key]
                self.policy_bitmaps.forget(key)
            else:
                self.tables[key] = Table(value, self.transactions, version)

    def _catalog_entries(self, op: dict, entries: dict) -> None:
        """Add the catalog entries of one logical catalog op to ``entries``
        (``(kind, key) -> value``; a later op on a slot overwrites)."""
        kind = op["op"]
        if kind == "create_table":
            entries["table", op["schema"].name.lower()] = op["schema"]
        elif kind == "drop_table":
            key = op["table"].lower()
            entries["table", key] = None
            self._cascade_to_indexes(entries, key)
        elif kind in ("add_column", "drop_column"):
            key = op["table"].lower()
            schema = entries.get(("schema", key)) or self.table(key)._schema
            if kind == "add_column":
                entries["schema", key] = schema.with_column(op["column"])
            else:
                entries["schema", key] = schema.without_column(op["column"])
                self._cascade_to_indexes(entries, key, op["column"].lower())
        elif kind == "create_index":
            entries["index", op["definition"].name] = op["definition"]
        elif kind == "drop_index":
            entries["index", op["name"].lower()] = None
        elif kind == "taxonomy":
            entries["acm", "taxonomy"] = True
        else:
            raise CatalogError(f"unknown catalog op {kind!r}")

    def _cascade_to_indexes(
        self, entries: dict, table: str, column: "str | None" = None
    ) -> None:
        """Tombstone, in this same commit, every index of ``table`` (only
        those keyed on ``column``, when given) — one the commit creates
        too: an index on a column that is gone could never be probed or
        reloaded from a checkpoint."""
        indexes = self.catalog.values_at("index", self.catalog.version)
        indexes.update(
            (name, value) for (kind, name), value in entries.items() if kind == "index"
        )
        for name, definition in indexes.items():
            if (
                definition is not None
                and definition.table == table
                and (column is None or column in definition.columns)
            ):
                entries["index", name] = None

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a snapshot-isolation transaction and activate it in context.

        The embedded single-context equivalent of the SQL ``BEGIN``: until
        :meth:`commit`/:meth:`rollback`, every statement executed from
        this thread/task reads the transaction's snapshot and stages its
        writes.  Server sessions instead hold the returned handle and
        activate it per statement with :func:`~repro.engine.mvcc.txn_scope`.
        """
        if current_transaction(self.transactions) is not None:
            raise TransactionError("a transaction is already in progress")
        txn = self.transactions.begin()
        from .mvcc import _ACTIVE

        _ACTIVE.set(txn)
        return txn

    def commit(self) -> int:
        """Commit the context's transaction; returns its commit timestamp."""
        txn = self._take_context_txn("COMMIT")
        return self.transactions.commit(txn)

    def rollback(self) -> None:
        """Roll back the context's transaction."""
        txn = self._take_context_txn("ROLLBACK")
        self.transactions.rollback(txn)

    def _take_context_txn(self, verb: str) -> Transaction:
        from .mvcc import _ACTIVE

        txn = current_transaction(self.transactions)
        if txn is None:
            raise TransactionError(f"{verb} without an active transaction")
        _ACTIVE.set(None)
        return txn

    def _forbid_txn(self, operation: str) -> None:
        if current_transaction(self.transactions) is not None:
            raise TransactionError(
                f"{operation} is not allowed inside a transaction"
            )

    # -- statement execution -----------------------------------------------------

    def execute(self, sql: str | ast.Statement, costs=None) -> ResultSet | int:
        """Execute one statement.

        Returns a :class:`ResultSet` for SELECT and an affected-row count for
        DML; DDL returns 0.  ``costs`` as for :meth:`PreparedQuery.execute`.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self.prepare(statement).execute(costs=costs)
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            # Autocommit DML reads and commits as one step under the write
            # fence, so no concurrent commit lands in between and is
            # overwritten.
            fence = self.transactions.autocommit_exclusive()
            with fence, self.cost_total.ledger(costs) as ledger:
                env = Env(subq={}, costs=ledger)
                if isinstance(statement, ast.Insert):
                    return self._execute_insert(statement, env)
                if isinstance(statement, ast.Update):
                    return self._execute_update(statement, env)
                return self._execute_delete(statement, env)
        if isinstance(statement, ast.Begin):
            self.begin()
            return 0
        if isinstance(statement, ast.Commit):
            self.commit()
            return 0
        if isinstance(statement, ast.Rollback):
            self.rollback()
            return 0
        if isinstance(statement, ast.CreateTable):
            columns = [_column_from_def(column) for column in statement.columns]
            self.create_table(TableSchema(statement.name, columns))
            return 0
        if isinstance(statement, ast.DropTable):
            self.drop_table(statement.name)
            return 0
        if isinstance(statement, ast.AlterTableAddColumn):
            self.table(statement.table).add_column(
                _column_from_def(statement.column)
            )
            return 0
        if isinstance(statement, ast.AlterTableDropColumn):
            self.table(statement.table).drop_column(statement.column_name)
            return 0
        if isinstance(statement, ast.CreateIndex):
            self._execute_create_index(statement)
            return 0
        if isinstance(statement, ast.DropIndex):
            self._execute_drop_index(statement)
            return 0
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def query(
        self,
        sql: "str | ast.Select | ast.SetOperation",
        optimizer: str | None = None,
    ) -> ResultSet:
        """Execute a SELECT (or a set-operation chain) and return rows.

        ``optimizer`` picks the pass pipeline for this query: ``"on"`` (or
        ``None``) or ``"off"``, the per-row ``complieswith`` pipeline.
        """
        return self.prepare(sql, optimizer).execute()

    def prepare(
        self,
        sql: "str | ast.Select | ast.SetOperation",
        optimizer: str | None = None,
        executor: str | None = None,
        batch_size: int | None = None,
        indexes: str | None = None,
    ) -> PreparedQuery:
        """Plan a SELECT once for repeated execution (prepare/execute).

        The returned :class:`PreparedQuery` is bound to the current schema
        (``*`` expansion, column resolution) but reads table contents at
        execution time, so it observes later inserts/updates.  ``optimizer``
        picks the plan-rewrite mode as in :meth:`query`; ``batch_size`` is
        the rows-per-page of the batch pipeline.

        There is one physical executor and no index mode; ``executor``
        (``None``/``"batch"``) and ``indexes`` (``None``/``"on"``) are
        accepted only because the frozen ``benchmarks/e2e/layers.py``
        (``--trace 1``) still passes ``monitor.executor_mode`` and
        ``monitor.indexes_mode`` here — ROADMAP item 1 lists both arguments
        for the benchmark PR to remove.
        """
        if executor not in (None, "batch"):
            raise ExecutionError(f"unknown executor mode {executor!r}")
        if indexes not in (None, "on"):
            raise ExecutionError(f"unknown index mode {indexes!r}")
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(statement, (ast.Select, ast.SetOperation)):
            raise ExecutionError(
                f"expected a SELECT statement, got {type(statement).__name__}"
            )
        return PreparedQuery(
            self, statement, optimizer=optimizer, batch_size=batch_size
        )

    def execute_prepared(
        self, prepared: PreparedQuery, params=None, trace=None, costs=None
    ) -> ResultSet:
        """Run a prepared query under parameter bindings (see :meth:`prepare`)."""
        if prepared.database is not self:
            raise ExecutionError("prepared query belongs to a different database")
        return prepared.execute(params, trace=trace, costs=costs)

    def explain(self, sql: "str | ast.Select | ast.SetOperation") -> str:
        """An EXPLAIN-style plan description for a query.

        Shows scans, join strategies (hash vs. nested loop), pushed-down
        filters and the residual WHERE — useful to confirm where the
        ``complieswith`` conjuncts are evaluated.
        """
        return "\n".join(self.prepare(sql).describe())

    # -- DML -----------------------------------------------------------------------

    def _execute_insert(self, statement: ast.Insert, env: Env) -> int:
        table = self.table(statement.table)
        # Bulk-append: one commit per statement (not per row), so the policy
        # posting index follows an INSERT ... SELECT or a multi-row VALUES
        # list in one pass.
        if statement.select is not None:
            result = self.prepare(statement.select).execute(costs=env.costs)
            return table.append_rows(result.rows, statement.columns)
        return table.append_rows(
            (
                [_constant(expression, self, env.costs) for expression in value_row]
                for value_row in statement.rows
            ),
            statement.columns,
        )

    def _dml_compiler(
        self, table: Table
    ) -> tuple[SelectExecutor, ExpressionCompiler, RowShape]:
        bindings = [
            ColumnBinding(
                table.name.lower(), column.name.lower(), index,
                column.sql_type, table.name.lower(), column.name.lower(),
            )
            for index, column in enumerate(table.schema.columns)
        ]
        shape = RowShape(bindings)
        executor = SelectExecutor(self)
        return executor, executor.compiler(Scope(shape)), shape

    def _matching_rows(
        self,
        executor: SelectExecutor,
        table: Table,
        shape: RowShape,
        where: "ast.Expression | None",
        predicate,
        env: Env,
    ) -> tuple[list[int], ColumnBatch]:
        """The positions of the rows an UPDATE/DELETE's WHERE selects, and
        those rows as one batch.

        ``predicate`` (the compiled ``where``) runs once, over every
        candidate row as one batch: the rows an index narrows ``where`` to,
        or every row.
        """
        rows = table.rows
        positions = self._index_candidates(executor, table, shape, where, env)
        if positions is None:
            positions = list(range(len(rows)))
        batch = ColumnBatch.from_rows([rows[p] for p in positions], shape.width())
        if predicate is None:
            return positions, batch
        keep = true_positions(predicate(batch, env))
        return [positions[i] for i in keep], batch.take(keep)

    def _index_candidates(
        self,
        executor: SelectExecutor,
        table: Table,
        shape: RowShape,
        where: "ast.Expression | None",
        env: Env,
    ) -> "list[int] | None":
        """Row positions an index narrows an UPDATE/DELETE's WHERE to.

        The same access paths a SELECT gets (equality on a leading run of
        an index's key columns, a range on a single-column ``btree`` index)
        over the top-level conjuncts of ``where``; the statement still
        evaluates its *whole* predicate — ``complieswith`` conjuncts
        included — on every candidate, so the index only spares rows a key
        conjunct rejects outright.  Rows with a NULL key are candidates
        too: the conjunct is unknown for them, not false, and a scan goes
        on to check them.

        ``None`` means scan: no index path, a probe value the held keys
        cannot be compared with (or NULL), a conjunct ahead of the key that
        might raise or check policies (it would run on fewer rows), or a
        table this transaction already staged (its overlay is private; the
        shared index entries describe committed rows).
        """
        if where is None:
            return None
        txn = current_transaction(self.transactions)
        if txn is not None and txn.staged(table) is not None:
            return None
        name = table.name.lower()
        conjuncts = flatten_conjuncts(where)
        path = best_index_path(
            self.indexes.for_table(name), conjuncts, Scan(name, name, shape)
        )
        if path is None or None in path.values:
            return None  # ``key = NULL`` is unknown, not false, on every row
        found = executor.compile_plan(path, None).candidate_ids(env)
        if found is None:
            return None
        unknown = self.indexes.null_key_rows(path.index_name, env.costs)
        return sorted({*found, *unknown}) if unknown else found

    def _execute_update(self, statement: ast.Update, env: Env) -> int:
        table = self.table(statement.table)
        executor, compiler, shape = self._dml_compiler(table)
        predicate = (
            compiler.compile(statement.where)
            if statement.where is not None
            else None
        )
        assignments = [
            (table.schema.column_index(name), compiler.compile(expression))
            for name, expression in statement.assignments
        ]
        positions, matched = self._matching_rows(
            executor, table, shape, statement.where, predicate, env
        )
        columns = list(matched.columns)
        for index, assign in assignments:
            coerce = partial(coerce_value, table.schema.columns[index].sql_type)
            columns[index] = list(map(coerce, assign(matched, env)))
        # update_rows visits the positions in order, one updater call each.
        replacements = iter(zip(*columns))
        return table.update_rows(
            lambda row: True, lambda row: next(replacements), positions
        )

    def _execute_delete(self, statement: ast.Delete, env: Env) -> int:
        table = self.table(statement.table)
        positions = None
        if statement.where is not None:
            executor, compiler, shape = self._dml_compiler(table)
            positions, _ = self._matching_rows(
                executor, table, shape, statement.where,
                compiler.compile(statement.where), env,
            )
        return table.delete_rows(lambda row: True, positions)

    # -- DDL -----------------------------------------------------------------------

    def _execute_create_index(self, statement: ast.CreateIndex) -> None:
        self.create_index(
            IndexDefinition(
                name=statement.name,
                table=statement.table,
                columns=statement.columns,
                kind=statement.kind,
            )
        )

    def create_index(self, definition: IndexDefinition) -> None:
        """CREATE INDEX: staged in the transaction's catalog overlay, visible
        at commit, first-committer-wins on the index name."""
        with self.transactions.statement_transaction() as txn:
            normalized = self.indexes.normalize(definition)
            if (
                self.indexes.find(normalized.name) is not None
                or txn.has_staged_catalog("index", normalized.name)
            ):
                raise CatalogError(f"index {normalized.name!r} already exists")
            txn.add_catalog_op(
                CatalogOp(
                    "index",
                    normalized.name,
                    {"op": "create_index", "definition": normalized},
                    validate=lambda: self._require_index_absent(normalized.name),
                )
            )

    def _execute_drop_index(self, statement: ast.DropIndex) -> None:
        """DROP INDEX: staged like CREATE INDEX; unknown names raise at
        statement time."""
        key = statement.name.lower()
        with self.transactions.statement_transaction() as txn:
            self.indexes.get(key)
            txn.add_catalog_op(
                CatalogOp(
                    "index",
                    key,
                    {"op": "drop_index", "name": key},
                    validate=lambda: self.indexes.get(key),
                )
            )

    def _require_index_absent(self, name: str) -> None:
        if self.indexes.find(name) is not None:
            raise CatalogError(f"index {name!r} already exists")

    # -- instrumentation ---------------------------------------------------------------

    def register_function(self, name: str, func, strict: bool = True) -> None:
        """Install a scalar UDF (the paper's ``compliesWith`` goes here)."""
        self.functions.register(name, func, strict)

    def function_calls(self, name: str) -> int:
        """Invocation count of a registered function since the last reset."""
        return self.functions.call_count(name)

    def reset_function_counters(self) -> None:
        """Zero all function invocation counters."""
        self.functions.reset_counters()


def _column_from_def(definition: ast.ColumnDef) -> Column:
    default = None
    if definition.default is not None:
        default = _constant(definition.default, None)
    return Column(
        definition.name,
        SqlType.from_name(definition.type_name),
        primary_key=definition.primary_key,
        not_null=definition.not_null,
        default=default,
    )


def _constant(expression: ast.Expression, database: "Database | None", costs=None):
    """Evaluate a row-independent expression (INSERT values, defaults)."""
    registry = database.functions if database is not None else FunctionRegistry()
    return evaluate_constant(expression, registry, costs)
