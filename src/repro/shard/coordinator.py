"""The scatter-gather coordinator and its epoch fence.

:class:`ShardCoordinator` owns one full local replica (for ``LOCAL``-routed
statements) plus N shard workers, and turns every statement into one of
three executions (:mod:`repro.shard.router`):

* ``SCATTER_ROWS`` — the original SELECT fans out verbatim; results
  concatenate.
* ``SCATTER_AGG`` — the decomposed partial-aggregate statement fans out;
  partial rows fold through the :class:`~repro.shard.partial.MergeSpec`.
* ``LOCAL`` — the statement runs on the local replica's monitor.

**Two-phase epoch broadcast.**  Policy and DML writes take the write side
of an :class:`AsyncReadWriteLock` (the *fence*), which first drains every
in-flight scatter and blocks new ones.  Phase one applies the write to the
local replica and pushes re-partitioned rows down (``sync_table``); phase
two broadcasts the bumped policy epoch and collects one ack per shard —
each shard adopts the epoch, clearing its epoch-scoped caches
(``compliesWith`` memo, policy bitmaps) and invalidating its cached plans.
Only then does the fence open.  Every shard's ``query`` response carries
the epoch it executed under, and the coordinator rejects (and retries) any
scatter whose responses straddle two epochs — with a correct fence that
code path never fires, which is exactly what the epoch-race stress test
pins down.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass

from ..engine import ResultSet
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
from .router import Route, classify, partition_rows
from .worker import InlineShard, ProcessShard, ShardWorker

#: How many times a split-epoch scatter is retried before giving up.  With
#: the write fence held through both broadcast phases a retry never fires;
#: the bound exists so a fence regression fails loudly instead of looping.
EPOCH_RETRIES = 3

#: Bound on distinct cached route decisions (cleared wholesale at the cap —
#: route entries are tiny and real workloads repeat far fewer statements).
ROUTE_CACHE_LIMIT = 512

#: Wire-code → exception class for errors propagated up from shards.
_SHARD_ERRORS = {
    E_UNAUTHORIZED: AccessControlError,
    E_POLICY: AccessControlError,
    E_PARSE: ParseError,
    E_ENGINE: ExecutionError,
}


class SplitEpochError(ServerError):
    """A scatter observed two policy epochs — the fence was breached."""


class AsyncReadWriteLock:
    """The asyncio twin of :class:`repro.server.locks.ReadWriteLock`.

    Same discipline, same writer preference: scatters hold the lock shared,
    epoch broadcasts and resyncs hold it exclusive, and arriving readers
    queue behind a waiting writer so a stream of SELECTs cannot starve a
    policy write.
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
    """Scatter-gather front end over N hash-partitioned shard workers."""

    def __init__(
        self,
        recipe: WorldRecipe,
        shard_count: int,
        backend: str = "inline",
        optimizer: str | None = None,
        indexes: str | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        self.recipe = recipe
        self.shard_count = shard_count
        self.backend = backend
        self.world = build_world(recipe).apply_modes(optimizer, indexes)
        self.monitor = self.world.monitor
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
        modes = (optimizer, indexes)
        if backend == "inline":
            self._shards: list = [
                InlineShard(ShardWorker(recipe, index, shard_count, *modes))
                for index in range(shard_count)
            ]
        else:
            self._shards = [
                ProcessShard(recipe, index, shard_count, *modes)
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

    def close(self) -> None:
        """Release the shard transports (processes for the process backend)."""
        for shard in self._shards:
            shard.close()

    # -- scatter plumbing -----------------------------------------------------------

    async def _scatter(self, request: dict, trace=NULL_TRACE) -> list[dict]:
        """Send one request to every shard concurrently; gather responses."""
        self.metrics.counter("repro_shard_fanout_total").inc(len(self._shards))
        histogram = self.metrics.histogram("repro_shard_seconds")

        async def call(index: int, shard) -> dict:
            begin = time.perf_counter()
            with trace.span(f"shard{index}"):
                response = await shard.call(request)
            histogram.observe(time.perf_counter() - begin, shard=str(index))
            return response

        return list(
            await asyncio.gather(
                *(call(index, shard) for index, shard in enumerate(self._shards))
            )
        )

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
        async with self.fence.read_locked():
            return await self._query_fenced(sql, purpose, user, params)

    def _routed(self, sql: str):
        """``(route, shard_sql, merge_spec)`` for one statement, cached."""
        version = self.database.catalog.version
        if version != self._route_cache_version:
            self._route_cache.clear()
            self._route_cache_version = version
        cached = self._route_cache.get(sql)
        if cached is not None:
            return cached
        statement = parse_statement(sql)
        plan = classify(statement, self.database)
        if plan.route is Route.SCATTER_AGG:
            shard_select, merge_spec = decompose(statement)
            routed = (plan.route, to_sql(shard_select), merge_spec)
        else:
            routed = (plan.route, sql, None)
        if len(self._route_cache) >= ROUTE_CACHE_LIMIT:
            self._route_cache.clear()
        self._route_cache[sql] = routed
        return routed

    async def _query_fenced(
        self, sql: str, purpose: str, user: str | None, params
    ) -> ShardedReport:
        route, shard_sql, merge_spec = self._routed(sql)
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
            raise UnauthorizedPurposeError(user, purpose)
        request = {
            "verb": "query",
            "sql": shard_sql,
            "purpose": purpose,
            "params": params,
        }

        responses: list[dict] = []
        for attempt in range(EPOCH_RETRIES):
            responses = await self._scatter(request, trace=trace)
            for response in responses:
                if not response.get("ok"):
                    self._raise_shard_error(response)
            epochs = {response["epoch"] for response in responses}
            if epochs == {self.admin.policy_epoch}:
                break
            self.metrics.counter("repro_shard_epoch_retries_total").inc()
            if attempt == EPOCH_RETRIES - 1:
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
        self._count_route(route.value)
        return ShardedReport(
            result=ResultSet(columns, rows),
            compliance_checks=sum(r["checks"] for r in responses),
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
            affected = self.monitor.execute_statement(sql, purpose, user=user)
            table = getattr(statement, "table", None)
            if table is not None:
                await self._resync((table,))
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
                await self._resync(written)
        return commit_ts

    async def policy_write(self, fn, tables: "tuple[str, ...] | None" = None):
        """Apply a policy mutation and broadcast the new epoch to every shard.

        ``fn`` runs against the local replica's
        :class:`~repro.shard.recipe.BuiltWorld` under the write fence.  The
        rows of ``tables`` (default: every policy-protected table) are then
        re-partitioned and pushed down, the policy epoch — bumped by ``fn``
        or, failing that, here — is broadcast, and one ack per shard is
        collected before any fenced reader resumes.

        Mutations must be expressible as row rewrites + an epoch bump
        (policy-mask writes, DML side effects); admin-state changes such as
        grants or re-categorizations are part of the
        :class:`~repro.shard.recipe.WorldRecipe` and cannot be replayed to
        already-built shards.
        """
        async with self.fence.write_locked():
            self._route_cache.clear()
            epoch_before = self.admin.policy_epoch
            result = fn(self.world)
            if self.admin.policy_epoch == epoch_before:
                self.admin.bump_policy_epoch()
            await self._resync(
                tuple(self.admin.target_tables()) if tables is None else tables
            )
            await self._broadcast_epoch()
        return result

    async def bump_epoch(self) -> int:
        """Fence, bump and broadcast without touching any rows."""
        await self.policy_write(lambda world: None, tables=())
        return self.admin.policy_epoch

    async def _resync(self, tables: "tuple[str, ...]") -> None:
        for name in tables:
            partitions = partition_rows(
                self.database.table(name),
                self.shard_count,
                self.database.policy_column,
            )
            responses = await self._scatter_sync(name, partitions)
            for response in responses:
                if not response.get("ok"):
                    self._raise_shard_error(response)
            self._resyncs += 1
            self.metrics.counter("repro_shard_resyncs_total").inc()

    async def _scatter_sync(
        self, table: str, partitions: "list[list[tuple]]"
    ) -> list[dict]:
        return list(
            await asyncio.gather(
                *(
                    shard.call(
                        {
                            "verb": "sync_table",
                            "table": table,
                            "rows": partitions[index],
                        }
                    )
                    for index, shard in enumerate(self._shards)
                )
            )
        )

    async def _broadcast_epoch(self) -> None:
        target = self.admin.policy_epoch
        responses = await self._scatter({"verb": "epoch", "epoch": target})
        for response in responses:
            if not response.get("ok"):
                self._raise_shard_error(response)
            if response["epoch"] != target:
                raise SplitEpochError(
                    f"shard acked epoch {response['epoch']}, expected {target}"
                )
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
            "backend": self.backend,
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
            "shards": [
                response.get("stats", response) for response in responses
            ],
        }
