"""The in-memory relational database: catalog + statement execution.

:class:`Database` is the stand-in for PostgreSQL in the paper's evaluation
(Section 6.3).  It owns the table catalog, the scalar-function registry
(where the enforcement framework installs ``complieswith``), and executes
parsed or textual SQL statements.  SELECT goes through
:class:`~repro.engine.executor.SelectExecutor`; DML/DDL are handled here.
"""

from __future__ import annotations

from ..errors import CatalogError, ExecutionError, TransactionError
from ..sql import ast, parse_statement
from .catalog import Catalog, CatalogOp
from .executor import PreparedSelect, SelectExecutor
from .batch import ColumnBatch
from .expressions import Env, ExpressionCompiler, Scope, evaluate_constant
from .functions import FunctionRegistry
from .index import IndexDefinition, IndexManager, StatisticsCollector
from .mvcc import Transaction, TransactionManager, current_transaction
from .plan import PolicyBitmapCache, Scan, best_index_path, flatten_conjuncts
from .result import ResultSet
from .schema import Column, ColumnBinding, RowShape, TableSchema
from .table import Table
from .types import SqlType


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

    def execute(self, params=None, trace=None) -> ResultSet:
        """Run the prepared pipeline under the given parameter bindings.

        ``params`` is a sequence (bound to ``$1``, ``$2``, ... in order) or
        a mapping keyed by parameter index/name; missing bindings raise
        :class:`ExecutionError` before execution starts.  ``trace`` (a
        :class:`~repro.obs.tracing.Trace`) makes plan nodes record per-node
        row counts for this execution only; ``None`` is the untraced fast
        path.
        """
        bound = bind_parameters(params, self.parameters)
        # A fresh subquery-result cache per execution: the compiled plan is
        # immutable and may be running on several threads at once, so all
        # per-run state lives in the environment.
        return self._execute_node(
            self._plan, Env(params=bound, subq={}, trace=trace)
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

    def describe(self, annotate=None) -> list[str]:
        """EXPLAIN-style plan lines (set-operation branches concatenated).

        ``annotate`` threads through to every block's
        :meth:`~repro.engine.executor.PreparedSelect.describe` for EXPLAIN
        ANALYZE row-count suffixes.
        """
        lines: list[str] = []

        def walk(plan) -> None:
            if isinstance(plan, PreparedSelect):
                lines.extend(plan.describe(annotate=annotate))
                return
            node, left, right = plan
            walk(left)
            lines.append(f"-- {node.op.lower()} --")
            walk(right)

        walk(self._plan)
        return lines

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

    def describe_arms(self, annotate=None) -> list[str]:
        """Physical plan lines with set-operation arms labeled explicitly.

        A single SELECT renders exactly like :meth:`describe`; a
        set-operation chain labels each branch (``Union arm 1/2`` ...) and
        indents its plan beneath the label, so EXPLAIN output attributes
        every operator to its branch.
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

    def logical_lines(self) -> list[str]:
        """The optimized logical plan(s) as indented EXPLAIN lines."""
        ops, arms = self._arms()
        if len(arms) == 1:
            return arms[0].logical_lines()
        lines = [f"SetOp [{' '.join(op.lower() for op in ops)}]"]
        for arm in arms:
            lines.extend("  " + line for line in arm.logical_lines())
        return lines

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

        def walk(plan) -> None:
            if isinstance(plan, PreparedSelect):
                visit(plan.source_plan)
                return
            _node, left, right = plan
            walk(left)
            walk(right)

        walk(self._plan)
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
        self.functions = FunctionRegistry()
        # Policy-enforcement hooks, set by the admin layer when the
        # framework is configured.  ``policy_function``/``policy_column``
        # tell the optimizer what a rewriter-injected guard conjunct looks
        # like; ``policy_bitmaps`` caches the row-index sets those guards
        # are answered with (one ``complieswith`` call per distinct policy
        # value instead of one per row).
        self.policy_function: str | None = None
        self.policy_column: str | None = None
        self.policy_bitmaps = PolicyBitmapCache()
        # Secondary-index catalog and optimizer statistics (DESIGN.md §13).
        self.indexes = IndexManager(self)
        self.statistics = StatisticsCollector(self)
        # MVCC: the commit clock + active-snapshot registry (DESIGN.md §15).
        self.transactions = TransactionManager()
        # The versioned metadata catalog (DESIGN.md §16): schemas, index
        # definitions and the purpose taxonomy as commit-stamped versions.
        # Snapshots pin ``catalog.version``; it subsumes the policy epoch.
        self.catalog = Catalog()
        self.transactions.catalog = self.catalog
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

    def create_table(self, schema: TableSchema, record_catalog: bool = True) -> Table:
        """Create a table from a prepared schema.

        The creation commits a ``("table", name)`` catalog entry (and a WAL
        DDL record when durability is attached); WAL replay passes
        ``record_catalog=False`` because it stamps the entry itself at the
        recovered commit's timestamp.
        """
        key = schema.name.lower()
        if key in self.tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        table.attach_manager(self.transactions)
        self.tables[key] = table
        if record_catalog:
            self.transactions.commit_ddl(
                [
                    CatalogOp(
                        "table",
                        key,
                        schema,
                        wal={"op": "create_table", "schema": schema},
                        describe=f"CREATE TABLE {schema.name}",
                    )
                ]
            )
        return table

    def drop_table(self, name: str, record_catalog: bool = True) -> None:
        """Drop a table (and its indexes/statistics); unknown names raise."""
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"unknown table {name!r}")
        del self.tables[key]
        doomed = self.indexes.drop_for_table(key)
        self.statistics.forget(key)
        self.policy_bitmaps.forget(key)
        if record_catalog:
            ops = [
                CatalogOp(
                    "table",
                    key,
                    None,
                    wal={"op": "drop_table", "table": key},
                    describe=f"DROP TABLE {name}",
                )
            ]
            # The cascade-dropped indexes get catalog tombstones in the same
            # commit (no WAL descriptor: replaying drop_table re-cascades).
            ops.extend(
                CatalogOp("index", definition.name, None)
                for definition in doomed
            )
            self.transactions.commit_ddl(ops)

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

    def execute(self, sql: str | ast.Statement) -> ResultSet | int:
        """Execute one statement.

        Returns a :class:`ResultSet` for SELECT and an affected-row count for
        DML; DDL returns 0.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self.query(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
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
            # CREATE/DROP TABLE stay autocommit-only: a staged table would
            # need catalog-overlaid name resolution through every reader.
            # They are still WAL-logged DDL commits (no forced checkpoint).
            self._forbid_txn("CREATE TABLE")
            self._execute_create(statement)
            return 0
        if isinstance(statement, ast.DropTable):
            self._forbid_txn("DROP TABLE")
            self.drop_table(statement.name)
            return 0
        if isinstance(statement, ast.AlterTableAddColumn):
            # Transactional: Table.add_column stages inside a transaction
            # (first-committer-wins on the schema catalog entry) and
            # autocommits a DDL record otherwise.
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
        if isinstance(statement, ast.Analyze):
            # ANALYZE reports the number of tables whose statistics were
            # refreshed, mirroring DML's affected-row convention.  Inside a
            # transaction the stats snapshot is stamped with the *staged*
            # version identity, so it can never outlive a rollback.
            return len(self.statistics.collect(statement.table))
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
        if isinstance(sql, str):
            statement = parse_statement(sql)
            if not isinstance(statement, (ast.Select, ast.SetOperation)):
                raise ExecutionError("query() requires a SELECT statement")
        else:
            statement = sql
        if isinstance(statement, ast.SetOperation):
            from .result import combine_set_operation

            left = self.query(statement.left, optimizer=optimizer)
            right = self.query(statement.right, optimizer=optimizer)
            return combine_set_operation(left, right, statement.op, statement.all)
        return SelectExecutor(self, optimizer=optimizer).execute_select(statement)

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
        if isinstance(sql, str):
            statement = parse_statement(sql)
        else:
            statement = sql
        if not isinstance(statement, (ast.Select, ast.SetOperation)):
            raise ExecutionError("prepare() requires a SELECT statement")
        return PreparedQuery(
            self, statement, optimizer=optimizer, batch_size=batch_size
        )

    def execute_prepared(
        self, prepared: PreparedQuery, params=None, trace=None
    ) -> ResultSet:
        """Run a prepared query under parameter bindings (see :meth:`prepare`)."""
        if prepared.database is not self:
            raise ExecutionError("prepared query belongs to a different database")
        return prepared.execute(params, trace=trace)

    def explain(self, sql: "str | ast.Select | ast.SetOperation") -> str:
        """An EXPLAIN-style plan description for a query.

        Shows scans, join strategies (hash vs. nested loop), pushed-down
        filters and the residual WHERE — useful to confirm where the
        ``complieswith`` conjuncts are evaluated.
        """
        if isinstance(sql, str):
            statement = parse_statement(sql)
        else:
            statement = sql
        if isinstance(statement, ast.SetOperation):
            parts = []
            for index, branch in enumerate(statement.branches()):
                if index:
                    parts.append(f"-- {statement.op.lower()} --")
                parts.append(self.explain(branch))
            return "\n".join(parts)
        if not isinstance(statement, ast.Select):
            raise ExecutionError("explain() requires a SELECT statement")
        executor = SelectExecutor(self)
        prepared = PreparedSelect(executor, statement, parent_scope=None)
        return "\n".join(prepared.describe())

    # -- DML -----------------------------------------------------------------------

    def _execute_insert(self, statement: ast.Insert) -> int:
        table = self.table(statement.table)
        # Bulk-append: one version bump per statement (not per row), so the
        # policy-bitmap cache rebuilds once after an INSERT ... SELECT or a
        # multi-row VALUES list.
        if statement.select is not None:
            result = self.query(statement.select)
            return table.append_rows(result.rows, statement.columns)
        return table.append_rows(
            (
                [_constant(expression, self) for expression in value_row]
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
        verdicts = predicate(batch, env)
        keep = [i for i, verdict in enumerate(verdicts) if verdict is True]
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
        an index's key columns, a range on a single-column B-tree) over the
        top-level conjuncts of ``where``; the statement still evaluates its
        *whole* predicate — ``complieswith`` conjuncts included — on every
        candidate, so the index only spares rows a key conjunct rejects
        outright.  Rows with a NULL key are candidates too: the conjunct is
        unknown for them, not false, and a scan goes on to check them.

        ``None`` means scan: no selective path, a probe value the tree
        cannot compare (or NULL), a conjunct ahead of the key that checks
        policies itself (it would run on fewer rows), or a table this
        transaction already staged (its overlay is private; the shared
        index entries describe committed rows).
        """
        if where is None:
            return None
        txn = current_transaction(self.transactions)
        if txn is not None and txn.staged(table) is not None:
            return None
        name = table.name.lower()
        conjuncts = flatten_conjuncts(where)
        path = best_index_path(
            self,
            self.indexes.for_table(name),
            conjuncts,
            Scan(name, name, shape),
        )
        if path is None or None in path.values:
            return None  # ``key = NULL`` is unknown, not false, on every row
        keyed = max(conjuncts.index(conjunct) for conjunct in path.matched)
        if any(self._checks_policies(c) for c in conjuncts[:keyed]):
            return None
        found = executor.compile_plan(path, None).candidate_ids(env)
        if found is None:
            return None
        unknown = self.indexes.null_key_rows(path.index_name)
        return sorted({*found, *unknown}) if unknown else found

    def _checks_policies(self, expression: ast.Expression) -> bool:
        """Whether evaluating ``expression`` can call the policy function —
        in place, or from a subquery the rewriter guarded."""
        return any(
            node.child_selects()
            or (
                isinstance(node, ast.FunctionCall)
                and node.name.lower() == self.policy_function
            )
            for node in ast.walk_expression(expression)
        )

    def _execute_update(self, statement: ast.Update) -> int:
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
        env = Env(subq={})
        positions, matched = self._matching_rows(
            executor, table, shape, statement.where, predicate, env
        )
        columns = list(matched.columns)
        for index, assign in assignments:
            columns[index] = assign(matched, env)
        # update_rows visits the positions in order, one updater call each.
        replacements = iter(zip(*columns))
        return table.update_rows(
            lambda row: True, lambda row: next(replacements), positions
        )

    def _execute_delete(self, statement: ast.Delete) -> int:
        table = self.table(statement.table)
        executor, compiler, shape = self._dml_compiler(table)
        predicate = (
            compiler.compile(statement.where)
            if statement.where is not None
            else None
        )
        env = Env(subq={})
        if predicate is None:
            count = len(table)
            table.truncate()
            return count
        positions, _ = self._matching_rows(
            executor, table, shape, statement.where, predicate, env
        )
        return table.delete_rows(lambda row: True, positions)

    # -- DDL -----------------------------------------------------------------------

    def _execute_create(self, statement: ast.CreateTable) -> None:
        columns = [_column_from_def(definition) for definition in statement.columns]
        self.create_table(TableSchema(statement.name, columns))

    def _execute_create_index(self, statement: ast.CreateIndex) -> None:
        """CREATE INDEX: staged in the transaction's catalog overlay when one
        is active (visible at commit, first-committer-wins on the index
        name), an autocommit DDL record otherwise."""
        definition = IndexDefinition(
            name=statement.name,
            table=statement.table,
            columns=statement.columns,
            kind=statement.kind,
        )
        txn = current_transaction(self.transactions)
        if txn is None:
            normalized = self.indexes.create(definition)
            self.transactions.commit_ddl(
                [
                    CatalogOp(
                        "index",
                        normalized.name,
                        normalized,
                        wal={"op": "create_index", "definition": normalized},
                        describe=f"CREATE INDEX {normalized.name}",
                    )
                ]
            )
            return
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
                normalized,
                wal={"op": "create_index", "definition": normalized},
                apply=lambda ts: self.indexes.register(normalized),
                validate=lambda: self._require_index_absent(normalized.name),
                describe=f"CREATE INDEX {normalized.name}",
            )
        )

    def _execute_drop_index(self, statement: ast.DropIndex) -> None:
        """DROP INDEX: staged when a transaction is active, else autocommit."""
        txn = current_transaction(self.transactions)
        if txn is None:
            dropped = self.indexes.drop(statement.name)
            self.transactions.commit_ddl(
                [
                    CatalogOp(
                        "index",
                        dropped.name,
                        None,
                        wal={"op": "drop_index", "name": dropped.name},
                        describe=f"DROP INDEX {dropped.name}",
                    )
                ]
            )
            return
        key = statement.name.lower()
        self.indexes.get(key)  # unknown names raise at statement time
        txn.add_catalog_op(
            CatalogOp(
                "index",
                key,
                None,
                wal={"op": "drop_index", "name": key},
                apply=lambda ts: self.indexes.drop(key),
                validate=lambda: self.indexes.get(key),
                describe=f"DROP INDEX {key}",
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


def _constant(expression: ast.Expression, database: "Database | None") -> object:
    """Evaluate a row-independent expression (INSERT values, defaults)."""
    registry = database.functions if database is not None else FunctionRegistry()
    return evaluate_constant(expression, registry)
