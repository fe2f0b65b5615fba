"""Everything a table derives from its rows, under every commit kind.

A full scan of the latest committed row list reads column slices of the
table's column image, which is built once and then carried forward across
commits by tuple identity (``Table.column_image``); an id fetch (an index
probe, a policy guard) reads the image only when it already describes its
rows; a pinned snapshot's list and a staged overlay are read row by row.
Index entries and the policy posting index follow the visible list the
same way.  This battery commits random sequences of appends, delta
updates, deletes, whole-list replacements and ``ALTER TABLE … ADD
COLUMN``, interleaved with pinned snapshots and open transactions that
stage writes of their own, and after every step checks each reader — head, every pin, every open transaction — against its
visible row list: a full scan, a narrowed scan and an index fetch must
return exactly those rows, an image, where one is kept, must be the
list's columns, probes of a B-tree index on ``w`` (which ``update-many``
and ``txn`` steps change: key-changing updates) and of a hash index on
``v`` must return exactly the matching row ids, and a ``passing_ids``
guard over a pure UDF exactly the passing ones.

The tier-1 run is one short seed at a small page size; the ``slow``-marked
campaign runs ten seeds with longer sequences.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.engine import txn_scope
from repro.engine.database import Database
from repro.engine.types import BitString
from repro.errors import WriteConflictError

#: Rows per page: small, so a scan crosses several pages.
PAGE = 3

KINDS = ("append", "update", "update-many", "delete", "replace", "alter", "txn")

#: The guard checked per reader: its masks and their pure verdict over ``v``.
MASKS = ("01", "11")


def accepts(mask: BitString, value: str) -> bool:
    return (int(mask.bits(), 2) + len(value)) % 3 != 0


@dataclass
class CampaignResult:
    disagreements: list[str] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    image_reads: int = 0  # index fetches served from a kept image
    carried: int = 0  # index entries and posting indexes followed


def _commit(db: Database, rng: random.Random, kind: str, step: int) -> str:
    """Commit one autocommit write (or one transaction) of ``kind``."""
    rows = db.table("t").rows
    key = rng.choice(rows)[0] if rows else 0
    fresh = 1000 + step
    if kind == "alter":
        sql = f"alter table t add column c{step} integer"
    else:
        sql = {
            "append": f"insert into t (k, v, w) values ({fresh}, 'n{step}', {step})",
            "update": f"update t set v = 'u{step}' where k = {key}",
            "update-many": f"update t set w = w + 1 where k < {key}",
            "delete": f"delete from t where k = {key}",
            "replace": f"update t set v = 'r{step}'",
            "txn": f"update t set w = {-step} where k = {key}",
        }[kind]
    if kind == "txn":
        db.begin()
        db.execute(sql)
        db.execute(f"insert into t (k, v, w) values ({fresh}, 't{step}', 0)")
        db.commit()
        return f"txn: {sql}; insert {fresh}"
    if kind == "append" and rng.random() < 0.5:
        db.table("t").append_rows(
            [(fresh, f"b{step}", step), (fresh + 500, None, None)], ("k", "v", "w")
        )
        return f"append_rows {fresh}, {fresh + 500}"
    db.execute(sql)
    return sql


def _check(db: Database, where: str, step: str) -> tuple[list[str], bool]:
    """Compare this context's scans and fetches with its visible rows;
    also says whether its index fetch found an image to read."""
    table = db.table("t")
    rows = list(table.rows)
    width = len(table.schema)
    problems = []

    def differs(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{step} @ {where}: {what}: {got!r} != {want!r}")

    differs(
        "full scan",
        db.prepare("select * from t", batch_size=PAGE).execute().rows,
        rows,
    )
    differs(
        "narrowed scan",
        db.prepare("select w, k from t", batch_size=PAGE).execute().rows,
        [(row[2], row[0]) for row in rows],
    )
    image = table.column_image(table.rows, False)
    if image is not None:
        differs("image length", image[1], len(rows))
        differs(
            "image columns",
            [list(c) for c in image[2]],
            [list(c) for c in zip(*rows)],
        )
        differs("image width", len(image[2]), width)
    cut = sorted(row[0] for row in rows)[len(rows) // 2] if rows else 0
    for op, keep in ((">=", cut.__le__), ("=", cut.__eq__)):  # many ids, one
        fetched = db.prepare(
            f"select * from t where k {op} {cut}", batch_size=PAGE
        ).execute().rows
        differs(
            f"index fetch k {op} {cut}",
            sorted(map(repr, fetched)),
            sorted(repr(row) for row in rows if keep(row[0])),
        )
    return problems, image is not None  # what the index fetch read


def _check_derived(db: Database, where: str, step: str) -> list[str]:
    """Compare this context's index probes and policy guard with its
    visible rows."""
    table = db.table("t")
    rows = table.rows
    indexes = db.indexes
    problems = []

    def differs(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{step} @ {where}: {what}: {got!r} != {want!r}")

    def ids(column: int, keep) -> list[int]:
        """Ids of the rows whose ``column`` is non-NULL and passes ``keep``."""
        return [
            i for i, row in enumerate(rows)
            if row[column] is not None and keep(row[column])
        ]

    if rows:
        middle = rows[len(rows) // 2]
        probes = {
            ("t_w", 2, middle[2]), ("t_w", 2, rows[0][2]), ("t_v", 1, middle[1])
        }
        for name, column, key in sorted(probes, key=repr):
            if key is not None:  # SQL never probes NULL
                differs(
                    f"{name} = {key!r}",
                    indexes.lookup_equal(name, key),
                    ids(column, lambda value: value == key),
                )
        lower = -len(rows) // 4
        differs(
            f"t_w >= {lower}",
            indexes.lookup_range("t_w", lower),
            ids(2, lambda value: value >= lower),
        )
    differs("t_w nulls", indexes.null_key_rows("t_w"), [
        i for i, row in enumerate(rows) if row[2] is None
    ])
    masks = [BitString.from_bits(bits) for bits in MASKS]
    differs(
        "guard",
        db.policy_bitmaps.passing_ids(table, "v", MASKS, db.functions, "accepts"),
        ids(1, lambda value: all(accepts(mask, value) for mask in masks)),
    )
    return problems


def run_campaign(seed: int, steps: int) -> CampaignResult:
    db = Database()
    db.execute("create table t (k integer primary key, v text, w integer)")
    db.execute("create index t_k on t (k)")
    db.execute("create index t_w on t (w)")
    db.execute("create index t_v on t (v) using hash")
    db.functions.register("accepts", accepts)
    db.table("t").append_rows([(k, f"v{k}", k % 5) for k in range(20)])
    rng = random.Random(seed)
    result = CampaignResult()
    pins: list = []
    open_txns: list = []
    try:
        for step in range(steps):
            draw = rng.random()
            if draw < 0.15:
                pins.append(db.transactions.begin())
            elif draw < 0.3:
                txn = db.transactions.begin()
                with txn_scope(txn):
                    cut = rng.randint(0, 30)
                    db.execute(f"update t set v = 'staged{step}' where k < {cut}")
                    db.execute(f"insert into t (k, v, w) values ({5000 + step}, 's', 1)")
                open_txns.append(txn)
            elif draw < 0.4 and (pins or open_txns):
                done = (pins or open_txns).pop(0)
                try:
                    db.transactions.commit(done)
                except WriteConflictError:
                    pass
            kind = rng.choice(KINDS)
            result.steps.append(_commit(db, rng, kind, step))
            readers = [("head", None)]
            readers += [(f"pin {i}", txn) for i, txn in enumerate(pins)]
            readers += [(f"txn {i}", txn) for i, txn in enumerate(open_txns)]
            for where, txn in readers:
                with txn_scope(txn):
                    problems, image_read = _check(db, where, result.steps[-1])
                    derived = _check_derived(db, where, result.steps[-1])
                result.disagreements += problems + derived
                result.image_reads += image_read and txn is None
        result.carried = (
            db.indexes.stats()["carried_forward"]
            + db.policy_bitmaps.stats()["revalidated"]
        )
    finally:
        for txn in pins + open_txns:
            if txn.status == "active":
                db.transactions.rollback(txn)
    return result


def test_column_image_agrees_with_the_visible_rows() -> None:
    result = run_campaign(seed=2015, steps=30)
    assert not result.disagreements, "\n".join(result.disagreements)
    assert result.image_reads > 0
    assert result.carried > 0


def test_a_commit_leaves_the_old_image_intact() -> None:
    db = Database()
    db.execute("create table t (k integer primary key, v text)")
    db.table("t").append_rows([(k, "x") for k in range(10)])
    table = db.table("t")
    db.execute("select * from t")
    before = table.column_image(table.rows, False)
    db.execute("update t set v = 'y' where k = 3")
    db.execute("select * from t")
    after = table.column_image(table.rows, False)
    assert after is not before and after[0] is table.rows
    assert after[2][1] is not before[2][1]  # copied, never patched in place
    assert list(before[2][1]) == ["x"] * 10
    assert list(after[2][1]) == ["x"] * 3 + ["y"] + ["x"] * 6
    db.execute("insert into t values (10, 'z')")  # extends the list in place
    assert table.column_image(table.rows, False) is None  # an id fetch: no carry
    assert db.execute("select v from t where k = 10").rows == [("z",)]
    assert db.execute("select count(*) from t").rows == [(11,)]
    assert list(table.column_image(table.rows, False)[2][0]) == list(range(11))


def test_readers_sharing_the_image_see_whole_commits() -> None:
    """Four readers full-scan while a writer commits transfers (+1/-1 in
    one transaction), appends and deletes: every scan sums to zero, as
    each committed state does, whichever reader built or carried the
    image it read."""
    db = Database()
    db.execute("create table t (k integer primary key, v integer)")
    db.table("t").append_rows([(k, 0) for k in range(200)])
    stop = threading.Event()
    errors: list = []

    def read() -> None:
        try:
            while not stop.is_set():
                rows = db.execute("select k, v from t").rows
                narrowed = db.execute("select v from t").rows
                if sum(v for _, v in rows) or sum(v for (v,) in narrowed):
                    errors.append(("torn", len(rows)))
                if len({k for k, _ in rows}) != len(rows):
                    errors.append(("duplicate keys", len(rows)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def write() -> None:
        rng = random.Random(7)
        try:
            for step in range(300):
                a, b = rng.sample(range(200), 2)
                db.begin()
                db.execute(f"update t set v = v + 1 where k = {a}")
                db.execute(f"update t set v = v - 1 where k = {b}")
                db.commit()
                db.execute(f"insert into t values ({1000 + step}, 0)")
                if step % 3 == 0:
                    db.execute(f"delete from t where k = {1000 + step}")
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:5]
    table = db.table("t")
    db.execute("select * from t")
    image = table.column_image(table.rows, False)
    assert [list(c) for c in image[2]] == [list(c) for c in zip(*table.rows)]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2015, 2025))
def test_column_image_campaign(seed: int) -> None:
    result = run_campaign(seed=seed, steps=80)
    assert not result.disagreements, "\n".join(result.disagreements)
    assert result.image_reads > 0
    assert result.carried > 0
