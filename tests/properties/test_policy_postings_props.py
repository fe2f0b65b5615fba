"""The policy posting lists agree with a per-row ``compliesWith`` evaluation.

One long-lived :class:`PolicyBitmapCache` follows a table through random
inserts, policy-cell updates, other-column updates, deletes and ALTER
TABLEs (dropping the column before ``policy`` moves its position).  After
each step random guard mask tuples are asked of it under every pinned
snapshot and at head, in both of a guard's forms: the passing row ids a
sequential scan is handed, and the passing values among an index probe's
candidates.  Every answer must equal a brute-force check of each visible
row.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import Database, txn_scope
from repro.engine.plan import PolicyBitmapCache
from repro.engine.types import BitString

POLICIES = ("p", "q", "pq", "r", None)
MASKS = ("00", "01", "10", "11")
KINDS = ("insert", "policy", "other", "delete", "alter", "pin")


def accepts(mask: BitString, policy: str) -> bool:
    """A pure verdict over one (mask, policy) pair."""
    return (int(mask.bits(), 2) + len(policy) + ord(policy[0])) % 3 != 0


guard = st.lists(
    st.sampled_from(MASKS), min_size=1, max_size=3, unique=True
).map(tuple)
step = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 5),
    st.sampled_from(POLICIES),
    st.lists(guard, min_size=1, max_size=3),
)


def _literal(value) -> str:
    return "null" if value is None else f"'{value}'"


def _commit(database: Database, kind: str, key: int, value, pins: list) -> None:
    if kind == "insert":
        database.execute(
            f"insert into t (k, policy, n) values ({key}, {_literal(value)}, 0)"
        )
    elif kind == "policy":
        database.execute(f"update t set policy = {_literal(value)} where k = {key}")
    elif kind == "other":
        database.execute(f"update t set n = n + 1 where k = {key}")
    elif kind == "delete":
        database.execute(f"delete from t where k = {key}")
    elif kind == "alter":
        if "pad" in database.table("t").schema.column_names:
            database.execute("alter table t drop column pad")
        else:
            database.execute("alter table t add column pad integer")
    else:
        pins.append(database.transactions.begin())


def _check(cache: PolicyBitmapCache, database: Database, masks: tuple) -> None:
    table = database.table("t")
    rows = table.rows
    position = table.schema.column_index("policy")

    def passes(value) -> bool:
        return value is not None and all(
            accepts(BitString.from_bits(bits), value) for bits in masks
        )

    assert cache.passing_ids(
        table, "policy", masks, database.functions, "accepts"
    ) == [i for i, row in enumerate(rows) if passes(row[position])]
    values = {row[position] for row in rows}
    assert cache.admitted(
        table, masks, values, database.functions, "accepts"
    ) == {value for value in values if passes(value)}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(POLICIES), max_size=8),
    st.lists(step, min_size=1, max_size=10),
)
def test_every_answer_equals_a_per_row_evaluation(initial, steps) -> None:
    database = Database("postings")
    database.execute("create table t (k integer, pad integer, policy text, n integer)")
    database.functions.register("accepts", accepts)
    for key, value in enumerate(initial):
        database.execute(
            f"insert into t values ({key % 6}, 0, {_literal(value)}, 0)"
        )
    cache = PolicyBitmapCache()
    pins: list = []
    try:
        for kind, key, value, guards in steps:
            _commit(database, kind, key, value, pins)
            for txn in [*pins, None]:
                with txn_scope(txn):
                    for masks in guards:
                        _check(cache, database, masks)
    finally:
        for txn in pins:
            database.transactions.rollback(txn)
