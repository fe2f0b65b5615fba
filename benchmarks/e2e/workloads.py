"""The five workloads: set-up, measured rounds, correctness check, metrics.

Every workload returns an :class:`Outcome`.  End-to-end numbers come from the
measured rounds only and are taken with no benchmark spans; the traced replay
(``layers.py``) adds the per-layer numbers afterwards.

Timings here are wall-clock.  A run is a fixed number of fixed-size rounds;
between rounds (and after every set-up) the process that does the work times
a few spins of ``machine.py``'s loop into ``Outcome.spins``, from
which ``run.py`` puts the whole run into reference-machine time, once.
"""

from __future__ import annotations

import math
import os
import re
import resource
import shutil
import statistics
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import parse_exposition
from repro.server.client import QueryResult
from repro.workload import AD_HOC_QUERIES

import machine
import ops
import world
from ops import Op
from wire import HERE, ServerChild, Session, run_round

#: Set-ups per run; ``setup_s`` is their median (the last stack is measured).
SETUPS = 3
RESULTS = HERE / "results"

#: Timestamp (on the first visible watch) of the row the warm-up and seal
#: transactions update; ``ops.write_round`` never draws it.
RESERVED_TS = 1


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: metric name → value; every workload fills every universal metric.
    e2e: dict = field(default_factory=dict)
    #: workload-specific end-to-end metrics and outside-view layer counters.
    layer: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    #: ``(op, wire seconds or None)`` of every measured op, for the
    #: traced replay to sample.
    trace_ops: list = field(default_factory=list)
    #: Milliseconds per spin (``machine.spins``), sampled before, between and
    #: after the measured rounds.
    spins: list = field(default_factory=list)
    #: metric → spins sampled right around that one measurement, for those
    #: taken seconds before or after the measured rounds (set-up, recovery).
    own_spins: dict = field(default_factory=dict)


@dataclass
class Round:
    wall: float
    #: ``(op, seconds, answer)`` of the measured connection(s).
    records: list
    #: Same, for background load that is scored but not timed into latency.
    background: list = field(default_factory=list)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values) -> tuple[int, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    count = len(values)
    for pct in (99, 95, 90, 75):
        if count - math.ceil(pct / 100 * count) >= 10:
            return pct, percentile(values, pct / 100)
    return 50, percentile(values, 0.5)


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- set-up ---------------------------------------------------------------------


def _start_stack(flavor: str, users, warm_ops, wal_dir: "Path | None"):
    """Spawn → READY → hello → prepare → warm-up; returns (child, sessions)."""
    child = ServerChild(flavor, wal_dir)
    try:
        sessions = [Session(child.port, user, child) for user in users]
        for session, warm in zip(sessions, warm_ops):
            for op in warm:
                session.send(op)
    except BaseException:
        child.kill()
        raise
    return child, sessions


def _tear_down(child: ServerChild, sessions) -> None:
    child.kill()
    for session in sessions:
        session.client.close()


def set_up(stack: ExitStack, outcome: Outcome, flavor: str, users, warm_ops, wal_root=None):
    """Set the wire stack up ``SETUPS`` times; keep and return the last one.

    ``setup_s`` spans process spawn to the end of warm-up: world build,
    policies, index, (WAL attach + base checkpoint), server ready, sessions,
    prepares and one pass over the statements so caches are full.
    """
    durations, timings, spins = [], [], []
    for attempt in range(SETUPS):
        wal_dir = None if wal_root is None else wal_root / f"db{attempt}"
        begin = time.perf_counter()
        child, sessions = _start_stack(flavor, users, warm_ops, wal_dir)
        durations.append(time.perf_counter() - begin)
        spins += child.spins()
        timings.append(child.timings)
        if attempt < SETUPS - 1:
            _tear_down(child, sessions)
    stack.callback(_tear_down, child, sessions)
    _report_setup(outcome, durations, timings, spins)
    return child, sessions, wal_dir


def _report_setup(outcome: Outcome, durations, timings, spins) -> None:
    """``setup_s`` and the child's own step timers: medians over the set-ups."""
    outcome.e2e["setup_s"] = statistics.median(durations)
    outcome.own_spins["setup_s"] = spins
    for step in timings[0]:
        outcome.layer[f"setup.{step}"] = statistics.median(t[step] for t in timings)
        outcome.own_spins[f"setup.{step}"] = spins


def measure(count: int, spins, outcome: Outcome, jobs_for) -> list[Round]:
    """Run ``count`` rounds, sampling ``spins()`` before, between and after them.

    ``jobs_for(index)`` → ``(jobs, records, background)`` where ``jobs`` is
    what :func:`wire.run_round` takes.
    """
    rounds = []
    outcome.spins += spins()
    for index in range(count):
        jobs, records, background = jobs_for(index)
        rounds.append(Round(run_round(jobs), records, background))
        outcome.spins += spins()
    return rounds


def _server_counters(session: Session) -> dict:
    """Flat server-side counters from the ``stats`` verb (for deltas)."""
    stats = session.client.stats()
    samples = parse_exposition(session.client.metrics())
    manager = stats["transactions"]["manager"]
    wal = stats["transactions"].get("wal", {})
    shards = stats.get("shards", {})
    routes = shards.get("routes", {})
    return {
        "server.busy_rejects": stats["server"]["busy_responses"],
        "bitmap.builds": stats["optimizer"]["bitmaps"]["built"],
        "index.probes": stats["indexes"]["manager"]["hits"],
        "index.rebuilds": stats["indexes"]["manager"]["rebuilds"],
        "audit.records": samples.get("repro_audit_records_total", 0.0),
        "mvcc.aborts": manager["conflicts"],
        "mvcc.rebases": manager["rebased"],
        "mvcc.active_snapshots_end": manager["active"],
        "wal.appends": wal.get("appends", 0),
        "wal.syncs": wal.get("syncs", 0),
        "shard.scattered": sum(n for route, n in routes.items() if route != "local"),
        "shard.routed": sum(routes.values()),
        "shard.route_cache_growth": shards.get("route_cache", {}).get("size", 0),
    }


class Window:
    """Server-side counter and CPU deltas around the measured rounds."""

    def __init__(self, child: ServerChild, session: Session):
        self.child, self.session = child, session
        self.before = _server_counters(session)
        self.cpu_before = child.cpu_seconds()

    def close(self, outcome: Outcome) -> None:
        self.cpu = self.child.cpu_seconds() - self.cpu_before
        after = _server_counters(self.session)
        gauge = "mvcc.active_snapshots_end"
        outcome.layer.update(
            {k: after[k] if k == gauge else after[k] - self.before[k] for k in after}
        )


# -- scoring --------------------------------------------------------------------


def _is_correct(op: Op, answer, expected: ops.Expected) -> bool:
    if op.kind == "bump":
        return answer == "OK"
    if op.kind == "txn":
        return isinstance(answer, tuple) and answer[0] == 1
    return isinstance(answer, QueryResult) and ops.digest(answer.rows) == expected.of(op)


def fold(outcome: Outcome, rounds: "list[tuple[float, list[float], int]]") -> None:
    """Fold ``(wall, latencies, correct ops)`` per round into the metrics every
    workload has.

    Latency is the median of all the run's per-op samples: a round holds too
    few (16 on ``paper_overhead``, 6 on ``write_mixed``) of too mixed a cost
    for its own median to be steady.  Throughput is the median over rounds of
    the round's rate, so one stalled round does not move it.
    """
    pooled = [seconds for _, latencies, _ in rounds for seconds in latencies]
    pct, value = tail(pooled)
    outcome.e2e["latency_p50_ms"] = ms(percentile(pooled, 0.5))
    outcome.e2e["throughput_ops_s"] = statistics.median(
        correct / wall for wall, _, correct in rounds
    )
    outcome.layer.update({"latency_tail_ms": ms(value), "latency_tail_pct": pct})
    outcome.samples.update(latency=len(pooled), rounds=len(rounds))


def score(outcome: Outcome, rounds: list[Round], expected: ops.Expected, window=None) -> None:
    """Check every answer; fold the rounds into the universal metrics.

    Control ops (``bump``) must succeed but are not requests: they are
    neither attempted ops nor latency samples, though their time is inside
    the round's wall.  Background records are checked and counted into
    throughput, not into latency.
    """
    folded = []
    for r in rounds:
        correct = 0
        latencies = []
        for records, timed in ((r.records, True), (r.background, False)):
            for op, seconds, answer in records:
                good = _is_correct(op, answer, expected)
                outcome.failed += not good
                if op.kind == "bump":
                    continue
                outcome.attempted += 1
                correct += good
                if timed:
                    latencies.append(seconds)
        folded.append((r.wall, latencies, correct))
    fold(outcome, folded)
    results = [
        a
        for r in rounds
        for _, _, a in r.records + r.background
        if isinstance(a, QueryResult)
    ]
    if results:  # as the responses themselves report them
        outcome.layer["plan.cache_hit_ratio"] = sum(a.cache_hit for a in results) / len(results)
        outcome.layer["masks.complies_with_calls"] = sum(a.checks for a in results) / len(results)
    if window is not None:
        outcome.layer["server.cpu_ms_per_op"] = ms(window.cpu) / outcome.attempted
    outcome.trace_ops = [(op, s) for r in rounds for op, s, _ in r.records + r.background]


# -- read_hot / sharded_read ----------------------------------------------------


def read_workload(flavor, seed: int, seconds: float, expected: ops.Expected, scratch: Path) -> Outcome:
    outcome = Outcome()
    warm = [
        [Op("prep", q.sql) for q in AD_HOC_QUERIES]
        + [Op("prep", ops.POINT_SQL, ["watch0", 1]), Op("prep", ops.POINT_SQL, ["watch1", 2])]
    ] * len(world.USERS)
    with ExitStack() as stack:
        child, sessions, _ = set_up(stack, outcome, flavor, world.USERS, warm)

        def jobs_for(index: int):
            records: list = []
            client_ops = ops.read_round(seed, index)
            return [(s, o, records, None) for s, o in zip(sessions, client_ops)], records, []

        window = Window(child, sessions[0])
        rounds = measure(ops.rounds_for(seconds), child.spins, outcome, jobs_for)
        window.close(outcome)
        outcome.e2e["peak_rss_mb"] = child.peak_rss_mb()
    score(outcome, rounds, expected, window)
    return outcome


# -- adhoc_cold -----------------------------------------------------------------


def adhoc_cold(seed: int, seconds: float, expected: ops.Expected, scratch: Path) -> Outcome:
    outcome = Outcome()
    visible = expected.visible_watches
    count = ops.rounds_for(seconds)
    pool = ops.random_pool(count * ops.ADHOC_BLOCKS * ops.ADHOC_BLOCK_RANDOM)
    # Warm the bitmaps and the engine's lazy state, not the plan cache: none
    # of these texts (nor their epoch) recurs in the measured rounds.
    warm = [[Op("sql", q.sql) for q in AD_HOC_QUERIES]]
    with ExitStack() as stack:
        child, (session,), _ = set_up(stack, outcome, "threaded", world.USERS[:1], warm)

        def jobs_for(index: int):
            records: list = []
            round_ops = ops.adhoc_round(seed, index, visible, pool)
            return [(session, round_ops, records, None)], records, []

        window = Window(child, session)
        rounds = measure(count, child.spins, outcome, jobs_for)
        window.close(outcome)
        outcome.e2e["peak_rss_mb"] = child.peak_rss_mb()
    score(outcome, rounds, expected, window)

    def seconds_of(kind: str) -> list[float]:
        return [s for r in rounds for op, s, _ in r.records if op.kind == kind]

    post = seconds_of("post")
    outcome.layer["post_change_p50_ms"] = ms(statistics.median(post))
    outcome.layer["policy.bump_ms"] = ms(statistics.median(seconds_of("bump")))
    outcome.samples["post_change"] = len(post)
    return outcome


# -- write_mixed ----------------------------------------------------------------

_FRAME_TABLE = re.compile(rb'"tables":\{"([^"]+)"')


def _wal_frames(path: Path, start: int, end: int) -> dict[str, list[int]]:
    """Frame sizes per first-written table for the log bytes ``[start, end)``."""
    frames: dict[str, list[int]] = {}
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read(end - start)
    for line in data.splitlines(keepends=True):
        match = _FRAME_TABLE.search(line[:200])
        frames.setdefault(match.group(1).decode() if match else "-", []).append(len(line))
    return frames


def write_mixed(seed: int, seconds: float, expected: ops.Expected, scratch: Path) -> Outcome:
    from repro.engine.wal import open_database

    outcome = Outcome()
    visible = expected.visible_watches
    reserved = Op(
        "txn",
        ops.UPDATE_SQL.format(beats=199, watch=visible[0], ts=RESERVED_TS),
        (visible[0], RESERVED_TS, 199),
    )
    warm = [
        [reserved],
        [Op("prep", ops.Q2_SQL), Op("prep", ops.POINT_SQL, [visible[0], 2])],
    ]
    with ExitStack() as stack:
        child, (writer, reader), wal_dir = set_up(
            stack, outcome, "threaded", world.USERS, warm, wal_root=scratch
        )
        log = wal_dir / "wal.log"
        window_start = log.stat().st_size
        reader_ops = ops.reader_ops(seed, visible)

        def jobs_for(index: int):
            records, reads = [], []
            jobs = [
                (writer, ops.write_round(seed, index, visible), records, None),
                (reader, reader_ops, reads, threading.Event()),
            ]
            return jobs, records, reads

        window = Window(child, writer)
        rounds = measure(ops.rounds_for(seconds), child.spins, outcome, jobs_for)
        window.close(outcome)
        # Seal: with both connections idle the log is quiescent, so every byte
        # below ``flushed`` was written before the seal's COMMIT fsync returns
        # — the provably flushed prefix.  kill -9 keeps the OS cache, so the
        # test itself discards the rest: the copy is cut at ``flushed``.
        flushed = log.stat().st_size
        writer.send(reserved)
        outcome.e2e["peak_rss_mb"] = child.peak_rss_mb()  # SIGKILL + reap
        crashed = scratch / "crashed"
        shutil.copytree(wal_dir, crashed)
        os.truncate(crashed / "wal.log", flushed)
        shutil.copy(crashed / "wal.log", scratch / "replay.log")  # for the traced run

        around = machine.spins() + machine.spins()
        begin = time.perf_counter()
        database, durability = open_database(crashed, sync=True)
        outcome.layer["recovery_s"] = time.perf_counter() - begin
        outcome.own_spins["recovery_s"] = around + machine.spins() + machine.spins()
        recovered = {(row[0], row[1]): row[4] for row in database.table("sensed_data").rows}
        frames = _wal_frames(crashed / "wal.log", window_start, flushed)
        begin = time.perf_counter()
        durability.checkpoint()
        outcome.layer["persist.checkpoint_s"] = time.perf_counter() - begin
        outcome.layer["persist.snapshot_bytes"] = (crashed / "snapshot.json").stat().st_size
        durability.close()

    score(outcome, rounds, expected, window)
    acked = [
        op for r in rounds for op, _, answer in r.records if _is_correct(op, answer, expected)
    ]
    lost = [op for op in acked if recovered.get(op.params[:2]) != op.params[2]]
    outcome.failed += len(lost)
    commits = [s for r in rounds for _, s, _ in r.records]
    reads = [s for r in rounds for _, s, _ in r.background]
    pct, value = tail(commits)
    outcome.layer.update(
        {
            "commit_p50_ms": outcome.e2e["latency_p50_ms"],
            "commit_tail_ms": ms(value),
            "commit_tail_pct": pct,
            "wal_bytes_per_commit": sum(frames.get("sensed_data", [])) / max(1, len(acked)),
            "wal.commit_frames": len(frames.get("sensed_data", [])),
            "wal.audit_appends_per_read": (len(frames.get("al", [])) - len(acked))
            / max(1, len(reads)),
            "wal.commits_per_sync": len(acked) / max(1, outcome.layer["wal.syncs"]),
            "reader.latency_p50_ms": ms(statistics.median(reads)),
            "reader.reads": len(reads),
            "mvcc.lost_commits": len(lost),
        }
    )
    outcome.samples["commits"] = len(commits)
    return outcome


# -- paper_overhead -------------------------------------------------------------


def paper_overhead(seed: int, seconds: float, expected: ops.Expected, scratch: Path) -> Outcome:
    """In-process, one thread: q1–q8 enforced vs original, two optimizer modes.

    ``--seed`` only rotates the starting query: the paper's metric is defined
    on the fixed q1–q8 suite.  A *pass* runs each query enforced then
    original, back to back, so both see the same machine state; a ratio is
    taken per pass (Σ enforced ÷ Σ original) and the run reports the median
    over passes.
    """
    outcome = Outcome()
    user = world.USERS[0]
    queries = AD_HOC_QUERIES[seed % 8 :] + AD_HOC_QUERIES[: seed % 8]
    durations, steps, spins = [], [], []
    for _ in range(SETUPS):
        timings: dict = {}
        begin = time.perf_counter()
        scenario = world.build_single_world(timings)
        monitor = scenario.monitor
        for mode in (None, "off"):  # warm both plan-cache entries of each query
            monitor.set_optimizer(mode)
            for query in queries:
                monitor.execute(query.sql, world.PURPOSE, user=user)
                monitor.execute_unprotected(query.sql)
        monitor.set_optimizer(None)
        durations.append(time.perf_counter() - begin)
        spins += machine.spins()
        steps.append(timings)
    _report_setup(outcome, durations, steps, spins)

    checks: dict = {}

    def one_pass(mode) -> tuple[list[float], float]:
        """Every query enforced + original once → (enforced times, ratio)."""
        monitor.set_optimizer(mode)
        enforced, original = [], []
        for query in queries:
            begin = time.perf_counter()
            report = monitor.execute_with_report(query.sql, world.PURPOSE, user=user)
            enforced.append(time.perf_counter() - begin)
            begin = time.perf_counter()
            plain = monitor.execute_unprotected(query.sql)
            original.append(time.perf_counter() - begin)
            outcome.attempted += 2
            good = ops.digest(report.result.rows) == expected.of(Op("sql", query.sql))
            outcome.failed += (not good) + (len(plain) < len(report.result))
            checks[query.name, mode] = report.compliance_checks
        monitor.set_optimizer(None)
        return enforced, sum(enforced) / sum(original)

    folded, ratios, rowcheck_ratios = [], [], []
    outcome.spins += machine.spins()
    for _ in range(ops.rounds_for(seconds)):
        done = outcome.attempted
        enforced = []
        wall = 0.0
        for mode in (None,) * ops.PAPER_REPS + ("off",) * ops.PAPER_ROWCHECK_REPS:
            begin = time.perf_counter()
            times, ratio = one_pass(mode)
            wall += time.perf_counter() - begin
            # In-process, the host's speed can be sampled between passes.
            outcome.spins += machine.spins(2)
            if mode is None:
                # One latency sample a pass, the mean enforced statement: the
                # median of single executions would sit in the gap between two
                # of the eight queries' clusters and jump from one to the other.
                enforced.append(statistics.mean(times))
                ratios.append(ratio)
            else:
                rowcheck_ratios.append(ratio)
        folded.append((wall, enforced, outcome.attempted - done))
    fold(outcome, folded)
    # This process's own high-water mark: run.py gives every run its own process.
    outcome.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.layer.update(
        {
            "overhead_ratio": statistics.median(ratios),
            "overhead_ratio_rowcheck": statistics.median(rowcheck_ratios),
            "masks.complies_with_calls_q1_rowcheck": checks["q1", "off"],
            "masks.complies_with_calls": sum(
                n for (_, mode), n in checks.items() if mode is None
            ) / len(queries),
            "plan.cache_hit_ratio": 1.0,
        }
    )
    outcome.samples["passes"] = len(ratios)
    outcome.trace_ops = [(Op("sql", q.sql), None) for q in queries]
    return outcome


WORKLOADS = {
    "read_hot": lambda *a: read_workload("threaded", *a),
    "adhoc_cold": adhoc_cold,
    "write_mixed": write_mixed,
    "sharded_read": lambda *a: read_workload("sharded", *a),
    "paper_overhead": paper_overhead,
}
