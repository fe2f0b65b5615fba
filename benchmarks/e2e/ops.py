"""Seed → op lists, and the expected answer of every op.

An :class:`Op` is what the load generator knows how to send: a prepared
execution (``prep``), an ad-hoc ``query`` (``sql``; ``post`` when it is the
first statement after a policy change), a ``bump`` control line, or a ``txn``
(BEGIN; one-row UPDATE; COMMIT).

Op lists are grouped into *rounds* of fixed size and composition: a run
measures ``rounds`` of them; throughput is a median over rounds, so one
stalled round does not move it, and the host's speed is sampled between
them (``machine.py``).  ``--seed`` chooses
lookup keys, literals, bump targets and the order inside a round; it never
changes how much work a round holds — runs on different seeds measure the
same work, which is what lets the driver compare medians across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import NamedTuple

from repro.workload import AD_HOC_QUERIES, random_queries

import world

POINT_SQL = (
    "select temperature, beats from sensed_data where watch_id = ? and timestamp = ?"
)
Q2_SQL = AD_HOC_QUERIES[1].sql
UPDATE_SQL = "update sensed_data set beats = {beats} where watch_id = '{watch}' and timestamp = {ts}"

#: Seconds one round takes on the sandbox the benchmark was sized on; a run
#: of ``--seconds S`` measures ``max(1, round(S / ROUND_SECONDS))`` rounds.
ROUND_SECONDS = 0.8

#: Ops per round, sized so a round takes about ``ROUND_SECONDS`` on the seed.
READ_OPS_PER_CLIENT = 64  # × 2 clients: 32 lookups + 4 passes of q1–q8 each
ADHOC_BLOCKS = 7  # × (10 distinct statements + bump + post-change q2)
ADHOC_BLOCK_STATEMENTS = 10
#: Random-pool texts per block; the other six are literal point queries, so
#: the run's median latency sits inside the (dense) point-query population
#: instead of in the gap between two populations, where it would be jumpy.
ADHOC_BLOCK_RANDOM = 4
WRITE_TXNS = 6  # connection A; B reads until A is done
PAPER_REPS = 2  # default-mode passes of q1–q8 × (enforced, original) per round
PAPER_ROWCHECK_REPS = 1  # optimizer-off passes per round (q1 alone is 10⁴ checks)


class Op(NamedTuple):
    kind: str  # "prep" | "sql" | "post" | "bump" | "txn"
    sql: str = ""
    #: prep: bound parameters; bump: (watch, step); txn: (watch, ts, beats)
    params: "list | tuple | None" = None
    #: Set when the answer is the one visible row at (watch, ts):
    #: ``(watch, ts, *constants)``, the constants being what the statement
    #: projects after temperature and beats.
    point: "tuple | None" = None


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _rng(seed: int, *scope) -> random.Random:
    return random.Random(f"e2e:{seed}:" + ":".join(map(str, scope)))


def _random_key(rng: random.Random) -> list:
    return [f"watch{rng.randrange(world.PATIENTS)}", rng.randint(1, world.SAMPLES)]


def read_round(seed: int, index: int) -> list[list[Op]]:
    """One round for ``read_hot``/``sharded_read``: a list of ops per client.

    Even slots are point lookups on seed-chosen keys, odd slots walk q1–q8
    round-robin (offset per client so both never run the same query in step).
    """
    clients = []
    for client in range(len(world.USERS)):
        rng = _rng(seed, "read", index, client)
        ops = []
        for slot in range(READ_OPS_PER_CLIENT):
            if slot % 2 == 0:
                key = _random_key(rng)
                ops.append(Op("prep", POINT_SQL, key, point=tuple(key)))
            else:
                query = AD_HOC_QUERIES[(slot // 2 + 4 * client) % len(AD_HOC_QUERIES)]
                ops.append(Op("prep", query.sql))
        clients.append(ops)
    return clients


def random_pool(count: int) -> list[str]:
    """The first ``count`` distinct r1–r20 texts of generator seeds 1000, 1001, …

    Pinned on purpose — not drawn from ``--seed`` — so every run compiles the
    same statements (see the module docstring).
    """
    pool: dict[str, None] = {}
    generator_seed = 1000
    while len(pool) < count:
        for query in random_queries(generator_seed, world.PATIENTS, world.SAMPLES):
            pool.setdefault(query.sql)
        generator_seed += 1
    return list(pool)[:count]


def adhoc_round(seed: int, index: int, visible: list[str], pool: list[str]) -> list[Op]:
    """One round for ``adhoc_cold``: blocks of distinct texts, bump, q2.

    Each block is four texts of the pinned random-query ``pool`` and six
    literal point queries; the seed draws the literals, shuffles the block
    and picks which visible patient the bump recompiles.  No text repeats
    within a run, two rounds' 140 texts already exceed the plan cache (128),
    and every bump moves the epoch the cache is keyed on anyway.
    """
    rng = _rng(seed, "adhoc", index)
    ops: list[Op] = []
    share = ADHOC_BLOCK_RANDOM
    used_keys: set = set()
    for block in range(ADHOC_BLOCKS):
        ordinal = index * ADHOC_BLOCKS + block
        block_ops = [Op("sql", text) for text in pool[ordinal * share : (ordinal + 1) * share]]
        while len(block_ops) < ADHOC_BLOCK_STATEMENTS:
            watch, ts = _random_key(rng)
            if (watch, ts) in used_keys:
                continue
            used_keys.add((watch, ts))
            # The round number in the projection keeps texts distinct across
            # rounds even when two rounds draw the same key.
            text = (
                f"select temperature, beats, {index} from sensed_data "
                f"where watch_id = '{watch}' and timestamp = {ts}"
            )
            block_ops.append(Op("sql", text, point=(watch, ts, index)))
        rng.shuffle(block_ops)
        ops.extend(block_ops)
        ops.append(Op("bump", params=(rng.choice(visible), ordinal)))
        ops.append(Op("post", Q2_SQL))
    return ops


def _write_keys(seed: int, visible: list[str]) -> list[tuple]:
    """Every visible (watch, timestamp ≥ 2) once, in the run's seeded order.

    Connection A updates keys from the front, connection B reads keys from
    the back, so B's expected answers never depend on how far A has got;
    timestamp 1 is left to the warm-up and seal transactions.
    """
    keys = [(w, ts) for w in visible for ts in range(2, world.SAMPLES + 1)]
    _rng(seed, "write").shuffle(keys)
    return keys


def write_round(seed: int, index: int, visible: list[str]) -> list[Op]:
    """Connection A's round for ``write_mixed``: one-row UPDATE transactions.

    Keys are distinct across the whole run and always on *visible* patients:
    an enforced UPDATE skips rows the purpose may not see, and a workload
    whose ops legitimately affect 0 rows could not tell a lost write apart.
    """
    keys = _write_keys(seed, visible)
    ops = []
    for slot in range(WRITE_TXNS):
        watch, ts = keys[index * WRITE_TXNS + slot]
        beats = 200 + (index * WRITE_TXNS + slot) % 50  # outside the data's 50–140
        sql = UPDATE_SQL.format(beats=beats, watch=watch, ts=ts)
        ops.append(Op("txn", sql, (watch, ts, beats)))
    return ops


def reader_ops(seed: int, visible: list[str]):
    """Connection B's endless reads for ``write_mixed``: lookup, q2, lookup, …"""
    keys = _write_keys(seed, visible)
    for counter in itertools.count():
        key = keys[-1 - counter % 1000]
        yield Op("prep", POINT_SQL, list(key), point=key)
        yield Op("prep", Q2_SQL)


# -- expected answers -----------------------------------------------------------


def digest(rows) -> tuple[int, str]:
    """``(row count, order-insensitive digest)`` of a result.

    Floats are cut to 9 significant digits: the wire round-trips them exactly,
    but a sharded partial-aggregate merge may sum in another order.
    """
    canon = sorted(
        "\x1f".join(format(v, ".9g") if isinstance(v, float) else repr(v) for v in row)
        for row in rows
    )
    return len(canon), hashlib.sha1("\x1e".join(canon).encode()).hexdigest()


class Expected:
    """Expected ``(count, digest)`` per read op, computed once in-process.

    Point lookups are answered from one enforced full read of the visible
    rows (so 10³ lookups do not cost 10³ scans); every other statement is
    executed once through ``monitor.execute``.  Policy bumps keep each bumped
    patient compliant, so an answer does not depend on the op's position.
    """

    def __init__(self, monitor):
        self.monitor = monitor
        rows = monitor.execute(
            "select watch_id, timestamp, temperature, beats from sensed_data",
            world.PURPOSE,
            user=world.USERS[0],
        ).rows
        self.visible_rows = {(w, ts): (temp, beats) for w, ts, temp, beats in rows}
        self.visible_watches = sorted({w for w, _ in self.visible_rows})
        self._by_sql: dict = {}

    def of(self, op: Op) -> tuple[int, str]:
        if op.point is not None:
            watch, ts, *constants = op.point
            hit = self.visible_rows.get((watch, ts))
            return digest([hit + tuple(constants)] if hit is not None else [])
        if op.sql not in self._by_sql:
            self._by_sql[op.sql] = digest(
                self.monitor.execute(op.sql, world.PURPOSE, user=world.USERS[0]).rows
            )
        return self._by_sql[op.sql]
