"""The scatter-gather coordinator and its epoch fence.

:class:`ShardCoordinator` owns one full local replica (for ``LOCAL``-routed
statements) plus N shard workers, and turns every statement into one of
four executions (:mod:`repro.shard.router`):

* ``SCATTER_ROWS`` — the original SELECT fans out verbatim; results
  concatenate.
* ``SCATTER_AGG`` — the decomposed partial-aggregate statement fans out;
  partial rows fold through the :class:`~repro.shard.partial.MergeSpec`.
* ``SINGLE`` — a lookup on a table's full primary key goes verbatim to the
  one shard the bound key hashes to.
* ``LOCAL`` — the statement runs on the local replica's monitor.

Shards never see users: the coordinator authorizes the purpose once and
writes the one audit record of a scattered statement (a ``LOCAL`` one is
audited by the replica's monitor, like any single-node execution).

**Two-phase epoch broadcast.**  Policy and DML writes take the write side
of an :class:`AsyncReadWriteLock` (the *fence*), which first drains every
in-flight scatter and blocks new ones.  The write applies to the local
replica; a policy write then broadcasts the replica's policy epoch and
collects one ack per shard — each shard adopts the epoch, which
invalidates its cached plans when a taxonomy edit moved it — and every
write pushes the re-partitioned rows that moved down (``sync_table``).
Only then does the fence open.  Every shard's ``query`` response carries
the epoch it executed under, and the coordinator rejects (and retries) any
scatter whose responses straddle two epochs — with a correct fence that
code path never fires, which is exactly what the epoch-race stress test
pins down.

**Row resync.**  A policy mask is row data (a mask store moves no epoch),
so the epoch cannot tell the shards that masks changed.  One rule moves
rows instead: the coordinator records the commit timestamp of every
shard-held table's rows as it pushes them, and pushes a table again
whenever that timestamp has moved — after its own writes, and, before it
scatters, in :meth:`~ShardCoordinator.query` for a commit made straight
on the replica (``apply_policy``, an ``UPDATE … SET policy``, any DML,
an ALTER TABLE).  No scatter serves rows the replica's committed masks
forbid.

**Catalog shipping.**  The epoch is the replica's catalog version, and DDL
moves it too.  The coordinator remembers the version it last broadcast;
when the replica has since moved by DDL alone (``index`` / ``schema`` /
``table`` catalog entries — ``CREATE INDEX`` run straight on
:attr:`ShardCoordinator.database`, the audit trail's ``CREATE TABLE``) the
next :meth:`~ShardCoordinator.query` takes the fence, sends every shard the
logical ops that bring its tables and indexes level with the replica's
(the WAL's op dicts, applied by the WAL's applier), broadcasts the epoch
and pushes the rows that moved; :meth:`~ShardCoordinator.policy_write`
does the same as part of every write.  (A DDL that commits on the replica
under a scatter in flight costs that scatter one retry, which ships it.)
Movement that is *not* DDL and did not come through ``policy_write`` — a
taxonomy (``acm``) commit made behind the coordinator's back — is left
alone: the shards cannot replay a taxonomy edit, so scatters keep failing
closed with :class:`SplitEpochError` until a ``policy_write`` resyncs
them, and no rows are pushed while the catalogs disagree.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass

from ..core.query_model import query_id
from ..engine import ResultSet
from ..engine.wal import encode_ddl_op
from ..errors import (
    AccessControlError,
    ExecutionError,
    ParseError,
    ServerError,
    UnauthorizedPurposeError,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACE, Trace
from ..server.protocol import E_ENGINE, E_PARSE, E_POLICY, E_UNAUTHORIZED
from ..sql import ast, parse_statement
from ..sql.printer import to_sql
from .partial import decompose, merge_rows
from .recipe import WorldRecipe, build_world
from .router import Route, classify, single_shard, split_rows
from .worker import InlineShard, ShardWorker

#: How many times a split-epoch scatter is retried before giving up.  With
#: the write fence held through both broadcast phases the only retry that
#: fires is the one a DDL commit on the replica costs the scatter it lands
#: under (the retry ships it); the bound exists so a fence regression fails
#: loudly instead of looping.
EPOCH_RETRIES = 3

#: Bound on distinct cached route decisions (cleared wholesale at the cap —
#: route entries are tiny and real workloads repeat far fewer statements).
ROUTE_CACHE_LIMIT = 512

#: Catalog entry kinds whose commits the coordinator can ship as DDL ops.
_DDL_KINDS = frozenset({"index", "schema", "table"})

#: Wire-code → exception class for errors propagated up from shards.
_SHARD_ERRORS = {
    E_UNAUTHORIZED: AccessControlError,
    E_POLICY: AccessControlError,
    E_PARSE: ParseError,
    E_ENGINE: ExecutionError,
}


class SplitEpochError(ServerError):
    """A scatter observed two policy epochs — the fence was breached."""


def _schema_ops(table: str, old: tuple, new: tuple) -> list[dict]:
    """The column ops that turn a shard's ``old`` columns into ``new``.

    ALTER TABLE removes a column in place or appends one, so ``new`` is
    the surviving columns of ``old``, in order, then the appended ones.
    """
    dropped, added, position = [], (), 0
    for index, column in enumerate(new):
        try:
            found = old.index(column, position)
        except ValueError:
            added = new[index:]
            break
        dropped.extend(old[position:found])
        position = found + 1
    dropped.extend(old[position:])
    return [
        {"op": "drop_column", "table": table, "column": column.name}
        for column in dropped
    ] + [{"op": "add_column", "table": table, "column": column} for column in added]


class AsyncReadWriteLock:
    """The coordinator's fence: a writer-preferring asyncio readers–writer
    lock.

    Scatters hold it shared, epoch broadcasts and resyncs hold it
    exclusive, and arriving readers queue behind a waiting writer so a
    stream of SELECTs cannot starve a policy write.  It orders a scatter
    against the shards' copies of the data — something the local
    replica's write fence (:meth:`~repro.engine.mvcc.TransactionManager
    .exclusive`) cannot see, since the shards are other databases.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer_active = False

    async def acquire_read(self) -> None:
        async with self._cond:
            while self._writer_active or self._waiting_writers:
                await self._cond.wait()
            self._active_readers += 1

    async def release_read(self) -> None:
        async with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    await self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @asynccontextmanager
    async def read_locked(self):
        await self.acquire_read()
        try:
            yield
        finally:
            await self.release_read()

    @asynccontextmanager
    async def write_locked(self):
        await self.acquire_write()
        try:
            yield
        finally:
            await self.release_write()

    def state(self) -> dict:
        """Point-in-time occupancy (only touched from the loop thread)."""
        return {
            "active_readers": self._active_readers,
            "waiting_writers": self._waiting_writers,
            "writer_active": self._writer_active,
        }


@dataclass
class ShardedReport:
    """One coordinated execution: merged result plus scatter metadata."""

    result: ResultSet
    compliance_checks: int
    cache_hit: bool
    route: str
    epoch: int
    shards: int
    trace: "object | None" = None


class ShardCoordinator:
    """Scatter-gather front end over N hash-partitioned shard workers.

    ``optimizer="off"`` pins the replica and every shard to the per-row
    ``complieswith`` pipeline.  There is one shard transport, in-process;
    ``backend`` accepts only ``"inline"`` because the frozen
    ``benchmarks/e2e/serve.py`` and ``layers.py`` still pass it — ROADMAP
    item 1 lists the argument for the benchmark PR to remove.
    """

    def __init__(
        self,
        recipe: WorldRecipe,
        shard_count: int,
        backend: str = "inline",
        optimizer: str | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if backend != "inline":
            raise ValueError(f"unknown shard backend {backend!r}")
        self.recipe = recipe
        self.shard_count = shard_count
        self.world = build_world(recipe)
        self.monitor = self.world.monitor
        self.monitor.set_optimizer(optimizer)
        self.admin = self.world.admin
        self.database = self.world.database
        self.metrics = metrics or self.monitor.metrics or MetricsRegistry()
        self.monitor.attach_metrics(self.metrics)
        self.metrics.counter(
            "repro_shard_queries_total", "Coordinated statements by route"
        )
        self.metrics.counter(
            "repro_shard_fanout_total", "Per-shard calls issued by scatters"
        )
        self.metrics.counter(
            "repro_shard_epoch_broadcasts_total",
            "Two-phase epoch broadcasts completed by the coordinator",
        )
        self.metrics.counter(
            "repro_shard_resyncs_total",
            "Table partitions pushed down to shards after writes",
        )
        self.metrics.counter(
            "repro_shard_epoch_retries_total",
            "Scatters retried because shard epochs disagreed",
        )
        self.metrics.histogram(
            "repro_shard_seconds", "Per-shard call latency within scatters"
        )
        self.fence = AsyncReadWriteLock()
        self._shards = [
            InlineShard(ShardWorker(recipe, index, shard_count, optimizer))
            for index in range(shard_count)
        ]
        self._epoch_broadcasts = 0
        self._resyncs = 0
        self._route_counts: dict[str, int] = {}
        # Route decisions depend only on SQL text + catalog, so repeat
        # statements skip the parse/classify/decompose work the same way
        # shard-side plan caches skip recompilation.  The cache is stamped
        # with the catalog version it was built under: any catalog commit
        # (DDL — transactional or autocommit — and taxonomy edits included)
        # invalidates it on the next lookup, because DDL can change a
        # statement's route.  Write paths additionally clear it eagerly.
        self._route_cache: dict = {}
        self._route_cache_version = self.database.catalog.version
        # What the shards hold as far as DDL goes — the recipe world's
        # tables (key → columns) and the indexes over them — and the
        # catalog version they were last brought level with.  A table
        # created on the replica later (the audit trail's ``al``) is
        # coordinator-local: never shipped, always routed ``local``.
        self._shard_tables = {
            key: table.schema.columns for key, table in self.database.tables.items()
        }
        self._shard_indexes = {
            definition.name: definition
            for definition in self.database.indexes.definitions()
        }
        self._shipped_version = self.database.catalog.version
        # The commit timestamp of each shard-held table's rows as the
        # shards last received them (they start as built from the recipe).
        self._pushed = {
            key: table.last_commit_ts for key, table in self.database.tables.items()
        }

    def close(self) -> None:
        """Nothing to release: every shard runs in this process."""

    # -- scatter plumbing -----------------------------------------------------------

    async def _scatter(
        self, request: dict, trace=NULL_TRACE, targets=None
    ) -> list[dict]:
        """Send one request to the ``targets`` shards (default: every shard)
        concurrently; gather the responses, failing on the first bad one."""
        if targets is None:
            targets = range(len(self._shards))
        self.metrics.counter("repro_shard_fanout_total").inc(len(targets))
        histogram = self.metrics.histogram("repro_shard_seconds")

        async def call(index: int) -> dict:
            begin = time.perf_counter()
            with trace.span(f"shard{index}"):
                response = await self._shards[index].call(request)
            histogram.observe(time.perf_counter() - begin, shard=str(index))
            return response

        responses = list(await asyncio.gather(*map(call, targets)))
        for response in responses:
            if not response.get("ok"):
                self._raise_shard_error(response)
        return responses

    @staticmethod
    def _raise_shard_error(response: dict) -> None:
        code = str(response.get("code", "internal_error"))
        message = str(response.get("error", "shard failure"))
        raise _SHARD_ERRORS.get(code, ServerError)(message)

    def _count_route(self, route: str) -> None:
        self._route_counts[route] = self._route_counts.get(route, 0) + 1
        self.metrics.counter("repro_shard_queries_total").inc(route=route)

    # -- queries ----------------------------------------------------------------------

    async def query(
        self, sql: str, purpose: str, user: str | None = None, params=None
    ) -> ShardedReport:
        """Enforce and execute one SELECT across the deployment."""
        attempt = 0
        while True:
            if self._catalog_shippable() or self._moved_tables():
                async with self.fence.write_locked():
                    # Checked again: a concurrent caller may have brought
                    # the shards level while this one waited for the fence.
                    if self._catalog_shippable():
                        await self._ship_catalog()
                    else:
                        await self._resync(self._moved_tables())
            try:
                async with self.fence.read_locked():
                    return await self._query_fenced(sql, purpose, user, params)
            except SplitEpochError:
                self.metrics.counter("repro_shard_epoch_retries_total").inc()
                attempt += 1
                if attempt == EPOCH_RETRIES:
                    raise

    def _routed(self, sql: str):
        """``(route, shard_sql, merge_spec, key, query_id)`` for one
        statement, cached (the key recipe of a ``SINGLE`` route is cached,
        its target shard is computed from each execution's bindings)."""
        version = self.database.catalog.version
        if version != self._route_cache_version:
            self._route_cache.clear()
            self._route_cache_version = version
        cached = self._route_cache.get(sql)
        if cached is not None:
            return cached
        statement = parse_statement(sql)
        plan = classify(statement, self.database, self._shard_tables.keys())
        shard_sql, merge_spec = sql, None
        if plan.route is Route.SCATTER_AGG:
            shard_select, merge_spec = decompose(statement)
            shard_sql = to_sql(shard_select)
        qid = "" if plan.route is Route.LOCAL else query_id(to_sql(statement))
        routed = (plan.route, shard_sql, merge_spec, plan.key, qid)
        if len(self._route_cache) >= ROUTE_CACHE_LIMIT:
            self._route_cache.clear()
        self._route_cache[sql] = routed
        return routed

    async def _query_fenced(
        self, sql: str, purpose: str, user: str | None, params
    ) -> ShardedReport:
        route, shard_sql, merge_spec, key, qid = self._routed(sql)
        trace = Trace() if self.monitor.tracing_enabled else NULL_TRACE
        if route is Route.LOCAL:
            self._count_route("local")
            await asyncio.sleep(0)
            report = self.monitor.execute_with_report(
                sql, purpose, user=user, params=params
            )
            return ShardedReport(
                result=report.result,
                compliance_checks=report.compliance_checks,
                cache_hit=report.cache_hit,
                route="local",
                epoch=self.admin.policy_epoch,
                shards=0,
                trace=report.trace,
            )
        # Purpose authorization is checked once, here: shards never see users.
        if user is not None and not self.monitor.authorizer.is_authorized(
            user, purpose
        ):
            self.monitor.record_audit(user, purpose, qid, sql, "denied")
            raise UnauthorizedPurposeError(user, purpose)
        targets = None
        if route is Route.SINGLE:
            target = single_shard(key, params, self.shard_count)
            if target is None:
                route = Route.SCATTER_ROWS
            else:
                targets = (target,)
        request = {
            "verb": "query",
            "sql": shard_sql,
            "purpose": purpose,
            "params": params,
        }
        responses = await self._scatter(request, trace, targets)
        epochs = {response["epoch"] for response in responses}
        if epochs != {self.admin.policy_epoch}:
            raise SplitEpochError(
                f"scatter observed epochs {sorted(epochs)} at coordinator "
                f"epoch {self.admin.policy_epoch}"
            )

        if route is Route.SCATTER_AGG:
            assert merge_spec is not None
            columns: tuple[str, ...] = merge_spec.names
            rows = merge_rows(
                merge_spec, [response["rows"] for response in responses]
            )
        else:
            columns = tuple(responses[0]["columns"])
            rows = [
                tuple(row) for response in responses for row in response["rows"]
            ]
        checks = sum(response["checks"] for response in responses)
        self._count_route(route.value)
        self.monitor.record_audit(
            user, purpose, qid, sql, "allowed",
            rows=len(rows), checks=checks, route=route.value,
        )
        return ShardedReport(
            result=ResultSet(columns, rows),
            compliance_checks=checks,
            cache_hit=all(r["cache_hit"] for r in responses),
            route=route.value,
            epoch=self.admin.policy_epoch,
            shards=len(responses),
            trace=trace if trace.enabled else None,
        )

    # -- writes -----------------------------------------------------------------------

    async def execute(
        self, sql: str, purpose: str, user: str | None = None
    ) -> int:
        """Run one DML statement: local replica first, then partition resync."""
        statement = parse_statement(sql)
        if isinstance(statement, (ast.Select, ast.SetOperation, ast.Explain)):
            raise ValueError("execute() is the DML path; use query()")
        async with self.fence.write_locked():
            self._route_cache.clear()
            affected = self.monitor.execute_statement(
                statement, purpose, user=user, text=sql
            )
            await self._resync(self._moved_tables())
        return int(affected)

    async def commit(self, txn) -> int:
        """Commit a transaction of the local replica; returns its commit ts.

        The write fence drains in-flight scatters, so none straddles the
        commit and the resync of the tables it wrote.
        """
        written = tuple(txn.written_tables())
        async with self.fence.write_locked():
            commit_ts = self.database.transactions.commit(txn)
            if written:
                self._route_cache.clear()
            await self._resync(self._moved_tables())
        return commit_ts

    async def policy_write(self, fn):
        """Apply a policy mutation and broadcast the new epoch to every shard.

        ``fn`` runs against the local replica's
        :class:`~repro.shard.recipe.BuiltWorld` under the write fence.  Any
        DDL the replica has and the shards lack is shipped, the replica's
        policy epoch — moved only if ``fn`` moved it — is broadcast with
        one ack per shard collected, and the rows of every table whose
        committed rows moved are re-partitioned and pushed down, all before
        any fenced reader resumes.

        Mutations must be expressible as DDL ops and row rewrites
        (policy-mask writes, DML side effects); admin-state changes such as
        grants or re-categorizations are part of the
        :class:`~repro.shard.recipe.WorldRecipe` and cannot be replayed to
        already-built shards.
        """
        async with self.fence.write_locked():
            self._route_cache.clear()
            result = fn(self.world)
            await self._ship_catalog()
        return result

    async def bump_epoch(self) -> int:
        """Fence, bump and broadcast without touching any policy rows."""
        await self.policy_write(lambda world: world.admin.bump_policy_epoch())
        return self.admin.policy_epoch

    def _catalog_shippable(self) -> bool:
        """Whether the replica's catalog has moved since the last broadcast
        by DDL alone (the only movement a reader may ship by itself)."""
        catalog = self.database.catalog
        if catalog.version == self._shipped_version:
            return False
        kinds = catalog.kinds_since(self._shipped_version)
        return bool(kinds) and kinds <= _DDL_KINDS

    def _moved_tables(self) -> list[str]:
        """Shard-held tables whose committed rows moved since they were
        last pushed down; none while the shards' catalog is behind, whose
        scatters fail closed until it is shipped."""
        database = self.database
        if database.catalog.version != self._shipped_version:
            return []
        return [
            name
            for name in self._shard_tables
            if database.tables[name].last_commit_ts != self._pushed[name]
        ]

    async def _ship_catalog(self) -> None:
        """Bring every shard level with the replica's catalog version, then
        push the rows that moved (an ALTER TABLE's among them).

        Called under the write fence.  The version is read first: DDL that
        commits on the replica while this runs may or may not be in the
        ops, but it is past ``target`` either way, so the next check still
        sees it as unshipped.
        """
        target = self.database.catalog.version
        await self._ship_ddl(target)
        await self._broadcast_epoch(target)
        await self._resync(self._moved_tables())

    async def _ship_ddl(self, target: int) -> None:
        """Send the shards the logical DDL ops that turn the tables and
        indexes they hold into the replica's."""
        database = self.database
        ops: list[dict] = []
        tables = dict(self._shard_tables)
        for key in self._shard_tables:
            # Dropped since — and if it exists again it is a new,
            # coordinator-local table that only shares the name.
            if (
                database.catalog.last_commit_version("table", key)
                > self._shipped_version
            ):
                ops.append({"op": "drop_table", "table": key})
                del tables[key]
        for key, columns in tables.items():
            current = database.table(key).schema.columns
            if current != columns:
                ops.extend(_schema_ops(key, columns, current))
                tables[key] = current
        held = {
            name: definition
            for name, definition in self._shard_indexes.items()
            if definition.table in tables  # DROP TABLE cascades on the shard
        }
        live = {
            definition.name: definition
            for definition in database.indexes.definitions()
            if definition.table in tables
        }
        # Drops first: a dropped column may have taken its index with it.
        ops[:0] = [
            {"op": "drop_index", "name": name}
            for name, definition in held.items()
            if live.get(name) != definition
        ]
        ops.extend(
            {"op": "create_index", "definition": definition}
            for name, definition in live.items()
            if held.get(name) != definition
        )
        if ops:
            request = {"verb": "ddl", "ops": [encode_ddl_op(op) for op in ops]}
            for response in await self._scatter(request):
                if response["catalog_version"] > target:
                    raise SplitEpochError(
                        f"shard catalog version {response['catalog_version']} "
                        f"is ahead of the coordinator's {target}"
                    )
            self._shard_tables, self._shard_indexes = tables, live

    async def _resync(self, tables: list[str]) -> None:
        """Re-partition each shard-held table's rows and push them down."""
        for name in tables:
            table = self.database.table(name)
            # Read before the rows: a commit landing in between moves the
            # timestamp past this one, and the next query pushes again.
            self._pushed[name] = table.last_commit_ts
            partitions = split_rows(
                table, self.shard_count, self.database.policy_column
            )
            responses = await asyncio.gather(
                *(
                    shard.call(
                        {
                            "verb": "sync_table",
                            "table": name,
                            "rows": partitions[index],
                        }
                    )
                    for index, shard in enumerate(self._shards)
                )
            )
            for response in responses:
                if not response.get("ok"):
                    self._raise_shard_error(response)
            self._resyncs += 1
            self.metrics.counter("repro_shard_resyncs_total").inc()

    async def _broadcast_epoch(self, target: int) -> None:
        for response in await self._scatter({"verb": "epoch", "epoch": target}):
            if response["epoch"] != target:
                raise SplitEpochError(
                    f"shard acked epoch {response['epoch']}, expected {target}"
                )
        self._shipped_version = target
        self._epoch_broadcasts += 1
        self.metrics.counter("repro_shard_epoch_broadcasts_total").inc()

    # -- observability ------------------------------------------------------------------

    @property
    def epoch_broadcasts(self) -> int:
        """Completed two-phase broadcasts (each acked by every shard)."""
        return self._epoch_broadcasts

    async def stats(self) -> dict:
        """The ``shards`` section of the server's ``stats`` verb."""
        responses = await self._scatter({"verb": "stats"})
        return {
            "shard_count": self.shard_count,
            "epoch": self.admin.policy_epoch,
            "catalog_version": self.database.catalog.version,
            "route_cache": {
                "size": len(self._route_cache),
                "version": self._route_cache_version,
            },
            "epoch_invalidations": int(
                self.metrics.counter("repro_epoch_invalidations_total").value()
            ),
            "epoch_broadcasts": self._epoch_broadcasts,
            "resyncs": self._resyncs,
            "routes": dict(self._route_counts),
            "fence": self.fence.state(),
            "shards": [response["stats"] for response in responses],
        }
