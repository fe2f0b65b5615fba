"""The traced run: per-layer numbers from a staged, in-process replay.

End-to-end numbers are measured over the wire with no spans.  This module
then replays a seeded 10 % sample of the same op list, single-threaded, on
fresh worlds: once through a *staged* path that calls each layer's public
function in order under the benchmark's recorder (``spans.py``), once through
the monolithic ``monitor.execute_with_report`` — their ratio,
``monitor.stage_coverage``, says how much of the real path the stages explain.
Micro-measurements of layers the staged path does not cross (protocol, MVCC,
WAL, shards, index) follow, each with the workload's real payloads.

Per-statement stage metrics are *means* over the sample (so they add up to
``monitor.execute_ms``); a stage a statement skips counts as 0 for it.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import socket
import statistics
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

from repro.core.query_model import query_id
from repro.core.masks import complies_with
from repro.core.rewriter import rewrite_query
from repro.engine.types import BitString
from repro.obs.metrics import MetricsRegistry
from repro.server.protocol import (
    ok_response,
    recv_message,
    result_to_wire,
    rows_from_wire,
    send_message,
)
from repro.sql import parse_statement
from repro.sql.printer import to_sql

import machine
import ops
import world
from ops import Op
from spans import Recorder

SAMPLE_SHARE = 0.10
PLAN_CACHE = 128  # mirror of EnforcementMonitor.plan_cache_size
FRONT_END = ("sql.parse", "signatures.derive", "rewriter.rewrite", "sql.print", "plan.compile")
STAGES = FRONT_END + ("executor.run", "audit.record")
READ_KINDS = ("prep", "sql", "post")
USER = world.USERS[0]


def _sample(name: str, seed: int, op_list: list) -> list:
    """A seeded 10 % of the ``(op, wire seconds)`` pairs, in their original order."""
    rng = random.Random(f"e2e-trace:{seed}")
    if name == "adhoc_cold":  # whole blocks, so bumps keep their post-change q2
        size = ops.ADHOC_BLOCK_STATEMENTS + 2
        blocks = [op_list[i : i + size] for i in range(0, len(op_list), size)]
        keep = sorted(rng.sample(range(len(blocks)), max(1, round(len(blocks) * SAMPLE_SHARE))))
        return [op for index in keep for op in blocks[index]]
    if name == "paper_overhead":
        return op_list
    by_kind: dict[str, list[int]] = {}
    for index, (op, _) in enumerate(op_list):
        by_kind.setdefault(op.kind, []).append(index)
    keep = sorted(  # 10 % of each kind, so a short run still samples a txn
        index
        for indexes in by_kind.values()
        for index in rng.sample(indexes, max(1, round(len(indexes) * SAMPLE_SHARE)))
    )
    return [op_list[index] for index in keep]


def _fresh_world():
    scenario = world.build_single_world()
    scenario.monitor.attach_metrics(MetricsRegistry())  # as the servers do
    return scenario


def _mean_ms(seconds: list[float], count: int) -> float:
    return 1e3 * sum(seconds) / max(1, count)


# -- staged vs monolithic -------------------------------------------------------


class _StagedPath:
    """Each layer's public function, called in order under a span.

    Keeps its own plan table (LRU of ``PLAN_CACHE``, cleared when the epoch
    moves) so a statement skips the front-end stages exactly when the
    monitor's plan cache would have hit.
    """

    def __init__(self, scenario):
        self.monitor, self.admin, self.database = (
            scenario.monitor, scenario.admin, scenario.database
        )
        self.plans: "OrderedDict[str, tuple]" = OrderedDict()

    def bump(self, op: Op) -> None:
        world.bump_policy(self.admin, *op.params)
        self.plans.clear()

    def run(self, op: Op, record: Recorder) -> None:
        monitor, database = self.monitor, self.database
        with record.request(op.kind):
            plan = self.plans.get(op.sql)
            if plan is None:
                with record.span("sql.parse"):
                    statement = parse_statement(op.sql)
                with record.span("signatures.derive"):
                    signature = monitor.derive_signature(statement, world.PURPOSE)
                with record.span("rewriter.rewrite"):
                    rewritten = rewrite_query(statement, signature, self.admin)
                with record.span("sql.print"):  # the monitor prints these three
                    identifier = query_id(to_sql(statement))
                    to_sql(statement)
                    to_sql(rewritten)
                with record.span("plan.compile"):
                    compiled = database.prepare(
                        rewritten,
                        optimizer=monitor.optimizer_mode,
                        executor=monitor.executor_mode,
                        batch_size=monitor.batch_size,
                        indexes=monitor.indexes_mode,
                    )
                plan = self.plans[op.sql] = (identifier, compiled)
                while len(self.plans) > PLAN_CACHE:
                    self.plans.popitem(last=False)
            else:
                self.plans.move_to_end(op.sql)
            with record.span("executor.run"):
                result = database.execute_prepared(plan[1], op.params)
            with record.span("audit.record"):
                monitor.audit.record(
                    USER, world.PURPOSE, plan[0], op.sql, "allowed", rows=len(result)
                )


def _execute(scenario, op: Op):
    return scenario.monitor.execute_with_report(
        op.sql, world.PURPOSE, user=USER, params=op.params
    )


def _replay(recorder: Recorder, sample: list[Op], warm: bool):
    """Staged and monolithic replays, interleaved statement by statement.

    Each runs on its own fresh world, and each statement goes through one
    and then the other, so both see the same machine state.  Returns the
    monolithic world (warm afterwards), its per-statement seconds and results.
    """
    staged, scenario = _StagedPath(_fresh_world()), _fresh_world()
    if warm:
        for op in sample:
            if op.kind in READ_KINDS:
                staged.run(op, Recorder())
                _execute(scenario, op)
    seconds, results = [], []
    for op in sample:
        if op.kind == "bump":
            staged.bump(op)
            world.bump_policy(scenario.admin, *op.params)
        elif op.kind in READ_KINDS:
            staged.run(op, recorder)
            with recorder.request("monitor.execute"):
                begin = time.perf_counter()
                report = _execute(scenario, op)
                seconds.append(time.perf_counter() - begin)
            results.append(report.result)
    return scenario, seconds, results


def _tracing_ratio(scenario, reads: list[Op]) -> float:
    """``set_tracing(True)`` ÷ off, alternating per statement, plans cached."""
    monitor = scenario.monitor
    totals = {False: 0.0, True: 0.0}
    for op in reads:
        _execute(scenario, op)  # the cold replay left older epochs' plans behind
        for enabled in (False, True):
            monitor.set_tracing(enabled)
            begin = time.perf_counter()
            _execute(scenario, op)
            totals[enabled] += time.perf_counter() - begin
    monitor.set_tracing(False)
    return totals[True] / totals[False]


# -- layers the staged path does not cross --------------------------------------


def _protocol(recorder: Recorder, reads: list[Op], results) -> tuple[list[float], float]:
    """Frame, send, receive and decode the real payloads over a socketpair.

    Returns the per-statement round-trip seconds and the mean response size.
    """
    near, far = socket.socketpair()
    pending: deque = deque()

    def echo() -> None:
        while recv_message(far) is not None:
            send_message(far, pending.popleft())

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    seconds, sizes = [], []
    for op, result in zip(reads, results):
        response = ok_response(result=result_to_wire(result), cache_hit=True, checks=0)
        if op.kind == "prep":
            request = {"op": "execute_prepared", "statement": "s1", "params": op.params}
        else:
            request = {"op": "query", "sql": op.sql}
        sizes.append(len(json.dumps(response, separators=(",", ":"))))
        pending.append(response)
        with recorder.request("protocol.roundtrip"):
            begin = time.perf_counter()
            send_message(near, request)
            rows_from_wire(recv_message(near)["result"])
            seconds.append(time.perf_counter() - begin)
    near.close()
    thread.join(timeout=5)
    far.close()
    return seconds, statistics.mean(sizes)


_SCAN_ROWS = re.compile(r"Scan\b.*\(rows=(\d+)")
_RESULT_ROWS = re.compile(r"^Execution: rows=(\d+)")


def _row_ledger(scenario, reads: list[Op]) -> tuple[int, int]:
    """(rows examined by scans, rows returned) from EXPLAIN ANALYZE."""
    examined = returned = 0
    for op in reads:
        lines = scenario.monitor.explain(
            op.sql, world.PURPOSE, user=USER, params=op.params, analyze=True
        ).rows
        for (line,) in lines:
            scan = _SCAN_ROWS.search(line)
            if scan:
                examined += int(scan.group(1))
            total = _RESULT_ROWS.match(line.strip())
            if total:
                returned += int(total.group(1))
    return examined, returned


def _distinct(reads: list[Op], limit: int = 40) -> list[Op]:
    seen: dict[str, Op] = {}
    for op in reads:
        seen.setdefault(op.sql, op)
    return list(seen.values())[:limit]


def _bitmap_and_masks(scenario) -> tuple[float, float]:
    """(bitmap rebuild ms for q2, ns per ``complies_with`` call)."""
    monitor = scenario.monitor

    def q2() -> float:
        begin = time.perf_counter()
        monitor.execute(ops.Q2_SQL, world.PURPOSE, user=USER)
        return time.perf_counter() - begin

    q2()
    cold, warm = [], []
    for _ in range(7):
        monitor.clear_policy_bitmaps()
        cold.append(q2())
        warm.append(q2())
    build_ms = 1e3 * (statistics.median(cold) - statistics.median(warm))

    signature_masks = [
        BitString.from_bits(bits)
        for bits in re.findall(r"b'([01]+)'", monitor.rewrite_sql(ops.Q2_SQL, world.PURPOSE))
    ]
    policy_masks = list({m for m in scenario.admin.policy_masks("sensed_data") if m is not None})
    pairs = [(a, p) for a in signature_masks for p in policy_masks]
    begin = time.perf_counter()
    for _ in range(20):
        for asm, pm in pairs:
            complies_with(asm, pm)
    per_call_ns = 1e9 * (time.perf_counter() - begin) / (20 * len(pairs))
    return build_ms, per_call_ns


def _snapshot_us(scenario) -> float:
    transactions = scenario.database.transactions
    batches = []
    for _ in range(11):
        begin = time.perf_counter()
        for _ in range(200):
            with transactions.read_snapshot():
                pass
        batches.append((time.perf_counter() - begin) / 200)
    return 1e6 * statistics.median(batches)


def _index(scenario, reads: list[Op]) -> tuple[float, float, float]:
    """(first-probe ms, B+-tree probe ms, rows the enforced lookup examines).

    The first probe pays the lazy rebuild when the table's version moved
    since the index was built (every policy change and every commit).
    """
    keys = [op.point[:2] for op in reads if op.point is not None] or [("watch0", 1)]
    indexes = scenario.database.indexes
    begin = time.perf_counter()
    indexes.lookup_equal(world.INDEX_NAME, keys[0])
    first_ms = 1e3 * (time.perf_counter() - begin)
    begin = time.perf_counter()
    for key in keys:
        indexes.lookup_equal(world.INDEX_NAME, key)
    probe_ms = _mean_ms([time.perf_counter() - begin], len(keys))
    examined, _ = _row_ledger(scenario, [Op("prep", ops.POINT_SQL, list(keys[0]))])
    return first_ms, probe_ms, float(examined)


def _write_path(recorder: Recorder, txns: list[Op], scratch: Path) -> dict:
    """MVCC commit with the WAL detached, then WAL append and fsync alone."""
    from repro.engine.wal import DurabilityManager, WriteAheadLog

    scenario = _fresh_world()
    database, monitor = scenario.database, scenario.monitor
    commits = []
    database.begin()  # one unrecorded commit first: it pays the engine's lazy set-up
    monitor.execute_statement(txns[0].sql, world.PURPOSE, user=USER)
    database.commit()
    for op in txns:
        with recorder.request("txn"):
            with recorder.span("mvcc.stage"):
                database.begin()
                monitor.execute_statement(op.sql, world.PURPOSE, user=USER)
            with recorder.span("mvcc.commit") as span:
                database.commit()
        commits.append(span["end"] - span["start"])

    durability = DurabilityManager(database, scratch / "trace-wal", sync=True)
    appends, syncs = [], []
    table = database.table("sensed_data")
    for _ in txns:
        payload = {"sensed_data": ("replace", table.rows)}  # what a one-row commit logs
        with recorder.request("wal"):
            with recorder.span("wal.append") as span:
                lsn = durability.log_commit(database.transactions.clock + 1, payload)
            appends.append(span["end"] - span["start"])
            with recorder.span("wal.fsync") as span:
                durability.sync(lsn)
            syncs.append(span["end"] - span["start"])
    durability.close()
    out = {
        "mvcc.commit_ms": 1e3 * statistics.median(commits),
        "wal.append_ms": 1e3 * statistics.median(appends),
        "wal.fsync_ms": 1e3 * statistics.median(syncs),
    }
    replay_log = scratch / "replay.log"
    if replay_log.exists():
        begin = time.perf_counter()
        WriteAheadLog(replay_log, sync=False).replay()
        out["wal.replay_s"] = time.perf_counter() - begin
    return out


def _scatter(recorder: Recorder, scenario, reads: list[Op]) -> float:
    """Coordinator execute − single-world monitor execute, same statements."""
    from repro.core import AuditLog
    from repro.shard import ShardCoordinator

    coordinator = ShardCoordinator(world.RECIPE, 3, backend="inline")
    world.create_index(coordinator.database)
    coordinator.monitor.attach_audit(AuditLog(coordinator.database))
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(coordinator.bump_epoch())

        def sharded(op: Op) -> None:
            loop.run_until_complete(
                coordinator.query(op.sql, world.PURPOSE, user=USER, params=op.params)
            )

        def single(op: Op) -> None:
            scenario.monitor.execute_with_report(op.sql, world.PURPOSE, user=USER, params=op.params)

        calls = {"shard.coordinator": sharded, "shard.single_world": single}
        seconds = {label: 0.0 for label in calls}
        for op in reads:  # warm both
            sharded(op)
            single(op)
        for op in reads:  # then alternate, so both see the same machine state
            for label, call in calls.items():
                with recorder.request(label):
                    begin = time.perf_counter()
                    call(op)
                    seconds[label] += time.perf_counter() - begin
    finally:
        loop.close()
        coordinator.close()
    return 1e3 * (seconds["shard.coordinator"] - seconds["shard.single_world"]) / len(reads)


# -- entry point ----------------------------------------------------------------

#: Statements the secondary passes (tracing ratio, unprotected) are run on.
SECONDARY_READS = 48


def trace(name: str, seed: int, outcome, scratch: Path, path: Path) -> None:
    """Fill ``outcome.layer`` with the per-layer metrics; write the spans."""
    recorder = Recorder()
    layer = outcome.layer
    before = set(layer)
    spins = machine.spins()
    pairs = _sample(name, seed, outcome.trace_ops)
    sample = [op for op, _ in pairs]
    reads = [op for op in sample if op.kind in READ_KINDS]
    wire = [seconds for op, seconds in pairs if op.kind in READ_KINDS]
    warm = name != "adhoc_cold"  # the cold workload is replayed cold

    scenario, monolithic, results = _replay(recorder, sample, warm)
    spins += machine.spins()
    self_times = recorder.self_times()
    for stage in STAGES:
        layer[f"{stage}_ms"] = _mean_ms(self_times.get(stage, []), len(reads))
    layer["monitor.execute_ms"] = _mean_ms(monolithic, len(reads))
    layer["monitor.front_end_share"] = sum(
        sum(self_times.get(stage, [])) for stage in FRONT_END
    ) / sum(monolithic)
    layer["monitor.stage_coverage"] = sum(
        sum(self_times.get(stage, [])) for stage in STAGES
    ) / sum(monolithic)

    # From here on ``scenario`` is warm: every sampled statement ran once.
    layer["obs.tracing_overhead_ratio"] = _tracing_ratio(scenario, reads[:SECONDARY_READS])
    unprotected = []
    for op in reads[:SECONDARY_READS]:
        plan = scenario.database.prepare(op.sql)
        with recorder.request("executor.unprotected"):
            begin = time.perf_counter()
            scenario.database.execute_prepared(plan, op.params)
            unprotected.append(time.perf_counter() - begin)
    layer["executor.unprotected_ms"] = _mean_ms(unprotected, len(unprotected))
    spins += machine.spins()

    roundtrips, layer["protocol.response_bytes"] = _protocol(recorder, reads, results)
    layer["protocol.roundtrip_ms"] = _mean_ms(roundtrips, len(reads))
    examined, returned = _row_ledger(scenario, _distinct(reads))
    layer["executor.rows_examined_per_row_returned"] = examined / max(1, returned)
    (
        layer["index.first_probe_ms"],
        layer["index.point_lookup_ms"],
        layer["index.rows_examined_per_lookup"],
    ) = _index(scenario, reads)
    layer["bitmap.build_ms"], layer["masks.complies_with_ns"] = _bitmap_and_masks(scenario)
    spins += machine.spins()
    layer["mvcc.snapshot_us"] = _snapshot_us(scenario)
    spins += machine.spins()

    if name == "write_mixed":
        layer.update(_write_path(recorder, [op for op in sample if op.kind == "txn"], scratch))
    if name == "sharded_read":
        layer["shard.scatter_ms"] = _scatter(recorder, scenario, _distinct(reads))
        routed = max(1, layer.get("shard.routed", 0))
        layer["shard.scattered_share"] = layer.get("shard.scattered", 0) / routed
        layer["shard.route_cache_hit_ratio"] = 1 - layer.get("shard.route_cache_growth", 0) / routed

    # Replay timings go into the same reference-machine time as the wire ones
    # (``machine.py``): one factor for the whole replay.
    spins += machine.spins()
    factor = machine.slowdown(spins)
    for key in set(layer) - before:
        if key.endswith(("_ms", "_us", "_ns", "_s")):
            layer[key] /= factor
    if name in ("read_hot", "sharded_read", "adhoc_cold"):
        # Statement by statement: what the wire took beyond monitor + protocol.
        layer["server.overhead_ms"] = 1e3 * statistics.median(
            w - (m + p) / factor for w, m, p in zip(wire, monolithic, roundtrips)
        )
    recorder.write(path)
