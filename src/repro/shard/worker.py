"""Shard workers: one enforcement stack per hash partition.

A :class:`ShardWorker` rebuilds the deployment's world from its
:class:`~repro.workload.recipe.WorldRecipe`, prunes every protected table to
the rows of its hash partition (placement from :mod:`repro.shard.router`;
the meta-tables stay whole, they are the shard's taxonomy), and then
answers a tiny message-dict protocol:

``query``
    Enforce and execute a SELECT under a purpose.  Policy guards, filters
    and partial aggregates all run *here*, on the shard's own monitor —
    the coordinator only merges.  The response carries the shard's policy
    epoch so the coordinator can reject split-epoch scatters.
``sync_table``
    Replace one table's partition rows (DML and policy writes re-partition
    on the coordinator and push the new rows down).
``ddl``
    Apply logical DDL ops (``create_index``, ``drop_index``, ``add_column``,
    ``drop_column``, ``drop_table``) the coordinator's replica committed, in
    the JSON-ready form the WAL logs them in, through the applier every
    commit and every recovery goes through
    (:meth:`repro.engine.database.Database.apply_commit`).  A created index
    is built at once; the rows of an altered table follow in a
    ``sync_table``.
``epoch``
    Adopt the coordinator's policy epoch: bump the local admin until it
    matches, which invalidates cached plans (their keys embed the epoch).
``stats``
    Observability snapshot.

One transport wraps the worker: :class:`InlineShard` keeps it in the
coordinator's process and on its event loop, with a cooperative yield
before each call that preserves the interleavings the epoch fence must
survive.
"""

from __future__ import annotations

import asyncio

from ..engine.codec import decode_op
from ..errors import ReproError
from ..server.protocol import error_code_for
from ..workload.recipe import WorldRecipe, build_world
from .router import split_rows


class ShardWorker:
    """One shard's enforcement stack over its hash partition."""

    def __init__(
        self,
        recipe: WorldRecipe,
        shard_index: int,
        shard_count: int,
        optimizer: str | None = None,
    ):
        if not 0 <= shard_index < shard_count:
            raise ValueError("shard_index must be within shard_count")
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.world = build_world(recipe)
        self.monitor = self.world.monitor
        self.monitor.set_optimizer(optimizer)
        self.admin = self.world.admin
        self._queries = 0
        self._epoch_bumps = 0
        self._syncs = 0
        self._prune()

    def _prune(self) -> None:
        """Keep only this shard's partition of every protected table."""
        database = self.world.database
        for name in self.admin.target_tables():
            table = database.table(name)
            partitions = split_rows(
                table, self.shard_count, database.policy_column
            )
            table.rows = partitions[self.shard_index]

    # -- the message protocol -----------------------------------------------------

    def handle(self, request: dict) -> dict:
        """One request dict → one response dict (exceptions become codes)."""
        verb = request.get("verb")
        try:
            if verb == "query":
                return self._handle_query(request)
            if verb == "sync_table":
                return self._handle_sync(request)
            if verb == "ddl":
                return self._handle_ddl(request)
            if verb == "epoch":
                return self._handle_epoch(request)
            if verb == "stats":
                return {"ok": True, "stats": self.stats()}
            raise ValueError(f"unknown shard verb {verb!r}")
        except ReproError as exc:
            return {
                "ok": False,
                "code": error_code_for(exc),
                "error": f"{type(exc).__name__}: {exc}",
            }
        except Exception as exc:  # noqa: BLE001 - workers must answer
            return {
                "ok": False,
                "code": "internal_error",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _handle_query(self, request: dict) -> dict:
        self._queries += 1
        report = self.monitor.execute_with_report(
            request["sql"],
            request["purpose"],
            params=request.get("params"),
        )
        return {
            "ok": True,
            "columns": list(report.result.columns),
            "rows": [tuple(row) for row in report.result.rows],
            "checks": report.compliance_checks,
            "cache_hit": report.cache_hit,
            "epoch": self.admin.policy_epoch,
        }

    def _handle_sync(self, request: dict) -> dict:
        table = self.world.database.table(request["table"])
        table.rows = [tuple(row) for row in request["rows"]]
        self._syncs += 1
        return {"ok": True, "rows": len(table.rows)}

    def _handle_ddl(self, request: dict) -> dict:
        database = self.world.database
        transactions = database.transactions
        ops = request["ops"]
        with transactions.exclusive() as clock:
            database.apply_commit(clock + 1, [decode_op(op) for op in ops], ())
            transactions.advance_clock_to(clock + 1)
        # A new index is built here, under the coordinator's write fence,
        # not by the first reader that probes it — unless this batch also
        # altered its table, whose rows are about to be replaced.
        altered = {
            op["table"] for op in ops if op["op"] in ("add_column", "drop_column")
        }
        for op in ops:
            if op["op"] == "create_index" and op["definition"]["table"] not in altered:
                database.indexes.build(op["definition"]["name"])
        return {"ok": True, "catalog_version": database.catalog.version}

    def _handle_epoch(self, request: dict) -> dict:
        target = int(request["epoch"])
        while self.admin.policy_epoch < target:
            self.admin.bump_policy_epoch()
            self._epoch_bumps += 1
        return {
            "ok": True,
            "epoch": self.admin.policy_epoch,
            "epoch_bumps": self._epoch_bumps,
        }

    def stats(self) -> dict:
        """The shard's row of the coordinator's ``stats`` section."""
        database = self.world.database
        index_stats = database.indexes.stats()
        return {
            "shard": self.shard_index,
            "epoch": self.admin.policy_epoch,
            "catalog_version": database.catalog.version,
            "indexes": {
                "names": [d.name for d in database.indexes.definitions()],
                "hits": index_stats["hits"],
                "rebuilds": index_stats["rebuilds"],
            },
            "epoch_bumps": self._epoch_bumps,
            "queries": self._queries,
            "syncs": self._syncs,
            "rows": {name: len(database.table(name)) for name in database.table_names()},
            "plan_cache": self.monitor.plan_cache_info(),
        }


class InlineShard:
    """In-process transport: the worker runs on the caller's event loop.

    ``call`` yields to the loop before executing, so a scatter of N shard
    calls interleaves with concurrent coordinator work exactly like a
    remote transport would — without the yield, the epoch fence would be
    untestable (and bugs in it invisible).
    """

    def __init__(self, worker: ShardWorker):
        self.worker = worker

    async def call(self, request: dict) -> dict:
        await asyncio.sleep(0)
        return self.worker.handle(request)

