"""The page-at-a-time aggregate fold equals a per-row fold, at any page size.

Random tables with int/float/text columns and NULLs, grouped by 0, 1 or 2
keys (NULL keys included), every aggregate with and without DISTINCT plus
``count(*)``: the engine's rows must equal the reference below — a fold
that visits one row at a time in scan order — at ``batch_size`` 1, 7 and
1024, group order included.  Values are compared by ``repr``, so a float
total added in any order other than left to right (``math.fsum``, or
``sum()``'s compensated float sum on Python 3.12+) fails.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import Database

COLUMNS = ("g1", "g2", "i", "f", "s")
KEY_SETS = ((), ("g1",), ("g2",), ("g1", "g2"), ("g2", "g1"))
AGGREGATES = [("count", "*", False)] + [
    (name, column, distinct)
    for column, names in (
        ("i", ("count", "sum", "avg", "min", "max")),
        ("f", ("count", "sum", "avg", "min", "max")),
        ("s", ("count", "min", "max")),
    )
    for name in names
    for distinct in (False, True)
]

floats = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 1.0, -0.0, 1e16, -1e16, 2.5)),
    st.floats(-1e6, 1e6, allow_nan=False),
)
rows_strategy = st.lists(
    st.tuples(
        st.sampled_from((None, "a", "b", "c")),
        st.sampled_from((None, 0, 1)),
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), floats),
        st.one_of(st.none(), st.text("xyz", max_size=2)),
    ),
    max_size=40,
)


def make_db(rows):
    database = Database()
    database.execute(
        "create table t (g1 text, g2 integer, i integer, f double precision, s text)"
    )
    table = database.table("t")
    for row in rows:
        table.insert_row(row)
    return database


def sql_for(keys) -> str:
    calls = [
        f"{name}({'distinct ' if distinct else ''}{column})"
        for name, column, distinct in AGGREGATES
    ]
    group_by = f" group by {', '.join(keys)}" if keys else ""
    return f"select {', '.join([*keys, *calls])} from t{group_by}"


class ReferenceFold:
    """One aggregate, fed one value at a time."""

    def __init__(self, name: str, distinct: bool):
        self.name, self.distinct = name, distinct
        self.seen: set = set()
        self.count, self.best = 0, None
        self.total = 0.0 if name == "avg" else 0

    def add(self, value) -> None:
        if self.name == "count*":
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.name in ("sum", "avg"):
            self.total += value
        elif self.best is None or (
            value < self.best if self.name == "min" else value > self.best
        ):
            self.best = value

    def result(self):
        if self.name in ("count", "count*"):
            return self.count
        if not self.count:
            return None
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            return self.total / self.count
        return self.best


def reference(rows, keys) -> list[tuple]:
    positions = [COLUMNS.index(key) for key in keys]
    groups: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[p] for p in positions)
        if key not in groups:
            groups[key] = [
                ReferenceFold("count*" if column == "*" else name, distinct)
                for name, column, distinct in AGGREGATES
            ]
        for fold, (_, column, _) in zip(groups[key], AGGREGATES):
            fold.add(None if column == "*" else row[COLUMNS.index(column)])
    if not groups and not keys:
        groups[()] = [
            ReferenceFold("count*" if column == "*" else name, distinct)
            for name, column, distinct in AGGREGATES
        ]
    return [
        (*key, *(fold.result() for fold in folds)) for key, folds in groups.items()
    ]


def as_reprs(rows) -> list[tuple]:
    return [tuple(map(repr, row)) for row in rows]


@settings(max_examples=120, deadline=None)
@given(rows_strategy, st.sampled_from(KEY_SETS))
def test_page_fold_matches_row_fold(rows, keys):
    database = make_db(rows)
    expected = as_reprs(reference(rows, keys))
    sql = sql_for(keys)
    for batch_size in (1, 7, 1024):
        got = database.prepare(sql, batch_size=batch_size).execute().rows
        assert as_reprs(got) == expected, f"batch_size={batch_size}"
