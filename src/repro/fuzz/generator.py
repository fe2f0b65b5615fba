"""Unbounded seeded SQL fuzzing on top of :mod:`repro.workload.randgen`.

:class:`FuzzQueryGenerator` extends the Figure 5 query classes with the
shapes the paper's r1–r20 never exercise — nested subqueries (IN / EXISTS /
scalar / derived tables, and an uncorrelated one in a join's WHERE, which
the optimizer pushes below the join), set-operation chains, parameter
placeholders,
``SELECT *``, ``column = literal`` in WHERE / ON / HAVING — and pairs
every query with a randomized ⟨purpose, user⟩ submission context, so
generated cases cover the denied as well as the allowed authorization
outcome.

Reproducibility contract: case *i* of seed *s* draws all of its randomness
from :func:`repro.workload.randgen.case_rng`, an RNG derived from the pair
``(s, i)`` alone.  No global :mod:`random` state is read and no state is
carried between cases, so ``FuzzQueryGenerator(seed).case(i)`` rebuilds any
case verbatim without generating its predecessors — the property repro
files and the ``--replay`` CLI rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..workload.randgen import QUERY_CLASSES, RandomQueryGenerator, case_rng
from .scenario import ScenarioSpec

#: Shapes beyond the Figure 5 classes (method names on the generator).
EXTRA_KINDS: tuple[str, ...] = (
    "in_subquery",
    "exists_correlated",
    "scalar_subquery",
    "derived_table",
    "set_operation",
    "star_select",
    "parameterized",
    "nested_subquery",
    "point_equality",
    "join_subquery",
)

#: Every shape the fuzzer can draw.
FUZZ_KINDS: tuple[str, ...] = QUERY_CLASSES + EXTRA_KINDS

#: Kinds for which the subset metamorphic invariant (enforced rows form a
#: sub-multiset of the unenforced rows) holds.  Only subquery-free,
#: aggregate-free, set-operation-free selects qualify: a subquery evaluated
#: under enforcement can change value and flip a predicate (``NOT IN`` over
#: a *smaller* enforced inner result admits *more* outer rows), so
#: enforcement is only guaranteed row-monotone when the outer block's
#: predicate does not depend on another enforced block.
ROW_SUBSET_KINDS = frozenset({"single", "join", "star_select", "parameterized"})

#: Default purposes (matches ``repro.core.purposes.default_purpose_set``).
_DEFAULT_PURPOSES = tuple(f"p{i}" for i in range(1, 9))


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential-testing case, replayable from its fields.

    ``seed`` and ``index`` embed the case's provenance: the pair is the
    complete derivation key of its randomness, printed in every failure
    report so the exact case can be re-run in isolation.
    """

    seed: int | str
    index: int
    kind: str
    sql: str
    purpose: str
    user: str | None = None
    params: dict[str, object] = field(default_factory=dict)

    @property
    def subset_invariant(self) -> bool:
        """Whether the enforced-⊆-unenforced row invariant applies."""
        return self.kind in ROW_SUBSET_KINDS

    @property
    def replay_token(self) -> str:
        """The ``seed:index`` pair identifying this case."""
        return f"{self.seed}:{self.index}"

    def with_sql(self, sql: str, params: dict | None = None) -> "FuzzCase":
        """A shrunk variant keeping the submission context."""
        return replace(
            self, sql=sql, params=self.params if params is None else params
        )

    def to_dict(self) -> dict:
        """JSON-ready form (the ``case`` object of a repro file)."""
        return {
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "sql": self.sql,
            "purpose": self.purpose,
            "user": self.user,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=payload["seed"],
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            sql=str(payload["sql"]),
            purpose=str(payload["purpose"]),
            user=payload.get("user"),
            params=dict(payload.get("params") or {}),
        )


class FuzzQueryGenerator:
    """Seeded, stateless-per-case generator of :class:`FuzzCase` streams."""

    def __init__(
        self,
        seed: int | str = 2015,
        spec: ScenarioSpec | None = None,
        purposes: tuple[str, ...] = _DEFAULT_PURPOSES,
        users: tuple[str, ...] | None = None,
    ):
        self.seed = seed
        self.spec = spec or ScenarioSpec()
        self.purposes = purposes
        self.users = users or tuple(f"u{i}" for i in range(self.spec.user_count))

    @classmethod
    def for_world(cls, world, seed: int | str = 2015) -> "FuzzQueryGenerator":
        """A generator matched to a built :class:`~.scenario.FuzzScenario`."""
        return cls(
            seed=seed,
            spec=world.spec,
            purposes=world.purposes,
            users=world.users,
        )

    # -- case derivation -------------------------------------------------------

    def case(self, index: int) -> FuzzCase:
        """Case ``index`` of this seed (independent of all other cases)."""
        rng = case_rng(self.seed, index)
        base = RandomQueryGenerator(
            0, patients=self.spec.patients, samples=self.spec.samples
        )
        base.rng = rng  # all base-class randomness comes from the case RNG
        kind = rng.choice(FUZZ_KINDS)
        params: dict[str, object] = {}
        if kind in QUERY_CLASSES:
            sql = base.query_of_class(kind)
        else:
            sql, params = getattr(self, f"_{kind}")(rng, base)
        purpose = rng.choice(list(self.purposes))
        user = None if rng.random() < 0.25 else rng.choice(list(self.users))
        return FuzzCase(
            seed=self.seed,
            index=index,
            kind=kind,
            sql=sql,
            purpose=purpose,
            user=user,
            params=params,
        )

    def cases(self, count: int, start: int = 0):
        """Yield cases ``start .. start+count-1``."""
        for index in range(start, start + count):
            yield self.case(index)

    # -- shape builders --------------------------------------------------------
    # Each takes (rng, base) and returns (sql, params).  INNER joins only:
    # WHERE-conjunct enforcement is equivalent to pre-filtering the sources
    # only for inner joins, and the oracle depends on that equivalence.

    def _in_subquery(self, rng: random.Random, base) -> tuple[str, dict]:
        outer, inner, outer_cols, link_outer, link_inner = rng.choice(
            (
                ("users", "sensed_data", "user_id, watch_id", "watch_id", "watch_id"),
                ("sensed_data", "users", "watch_id, beats", "watch_id", "watch_id"),
                (
                    "nutritional_profiles",
                    "users",
                    "profile_id, diet_type",
                    "profile_id",
                    "nutritional_profile_id",
                ),
                (
                    "users",
                    "nutritional_profiles",
                    "user_id, nutritional_profile_id",
                    "nutritional_profile_id",
                    "profile_id",
                ),
            )
        )
        negated = "not " if rng.random() < 0.3 else ""
        sub = f"select {link_inner} from {inner}"
        if rng.random() < 0.7:
            sub += f" where {base._predicate(rng.choice(base._table_columns(inner)), False)}"
        sql = f"select {outer_cols} from {outer} where {link_outer} {negated}in ({sub})"
        return sql, {}

    def _nested_subquery(self, rng: random.Random, base) -> tuple[str, dict]:
        inner_pred = base._predicate(
            rng.choice(base._table_columns("users")), False
        )
        middle_pred = base._predicate(
            rng.choice(base._table_columns("sensed_data")), False
        )
        sql = (
            "select user_id, watch_id from users where watch_id in "
            f"(select watch_id from sensed_data where {middle_pred} "
            "and watch_id in "
            f"(select watch_id from users where {inner_pred}))"
        )
        return sql, {}

    def _exists_correlated(self, rng: random.Random, base) -> tuple[str, dict]:
        negated = "not " if rng.random() < 0.3 else ""
        inner = "select 1 from sensed_data where sensed_data.watch_id = u.watch_id"
        if rng.random() < 0.7:
            inner += (
                f" and {base._predicate(rng.choice(base._table_columns('sensed_data')), True)}"
            )
        sql = f"select u.user_id, u.watch_id from users u where {negated}exists ({inner})"
        return sql, {}

    def _scalar_subquery(self, rng: random.Random, base) -> tuple[str, dict]:
        operator = rng.choice((">", "<", ">=", "<="))
        if rng.random() < 0.5:
            aggregate = rng.choice(("avg", "min", "max"))
            sub = f"select {aggregate}(beats) from sensed_data"
            if rng.random() < 0.5:
                sub += f" where {base._predicate(rng.choice(base._table_columns('sensed_data')), False)}"
            sql = (
                "select watch_id, timestamp, beats from sensed_data "
                f"where beats {operator} ({sub})"
            )
        else:
            aggregate = rng.choice(("avg", "min", "max"))
            sub = f"select {aggregate}(profile_id) from nutritional_profiles"
            sql = (
                "select user_id, nutritional_profile_id from users "
                f"where nutritional_profile_id {operator} ({sub})"
            )
        return sql, {}

    def _derived_table(self, rng: random.Random, base) -> tuple[str, dict]:
        aggregate = rng.choice(("avg", "min", "max", "count"))
        threshold = rng.randint(50, 140) if aggregate != "count" else rng.randint(1, 5)
        if rng.random() < 0.5:
            sql = (
                f"select d.watch_id, d.m from "
                f"(select watch_id, {aggregate}(beats) as m from sensed_data "
                f"group by watch_id) d where d.m > {threshold}"
            )
        else:
            sql = (
                "select users.user_id, d.m from users join "
                f"(select watch_id as w, {aggregate}(beats) as m "
                "from sensed_data group by watch_id) d "
                "on users.watch_id = d.w"
            )
        return sql, {}

    def _set_operation(self, rng: random.Random, base) -> tuple[str, dict]:
        branches = []
        pool = (
            ("users", "watch_id"),
            ("sensed_data", "watch_id"),
            ("users", "user_id"),
            ("nutritional_profiles", "diet_type"),
        )
        for _ in range(rng.randint(2, 3)):
            table, column = rng.choice(pool)
            branch = f"select {column} from {table}"
            if rng.random() < 0.6:
                branch += f" where {base._predicate(rng.choice(base._table_columns(table)), False)}"
            branches.append(branch)
        operator = rng.choice(("union", "union all", "intersect", "except"))
        return f" {operator} ".join(branches), {}

    def _star_select(self, rng: random.Random, base) -> tuple[str, dict]:
        table = rng.choice(("users", "sensed_data", "nutritional_profiles"))
        sql = f"select * from {table}"
        if rng.random() < 0.7:
            sql += f" where {base._predicate(rng.choice(base._table_columns(table)), False)}"
        return sql, {}

    def _parameterized(self, rng: random.Random, base) -> tuple[str, dict]:
        params: dict[str, object] = {}
        if rng.random() < 0.5:
            params["p0"] = rng.randint(50, 140)
            sql = "select watch_id, beats, temperature from sensed_data where beats > :p0"
            if rng.random() < 0.5:
                params["p1"] = round(rng.uniform(35.0, 41.0), 1)
                sql += " and temperature < :p1"
        else:
            params["p0"] = rng.randint(1, max(self.spec.samples, 2))
            sql = (
                "select users.user_id, sensed_data.beats from users "
                "join sensed_data on users.watch_id = sensed_data.watch_id "
                "where sensed_data.timestamp >= :p0"
            )
        return sql, params

    def _point_equality(self, rng: random.Random, base) -> tuple[str, dict]:
        """``column = literal`` in WHERE, ON or HAVING (the literals a
        statement shape lifts), maybe beside a drawn predicate."""
        watch = f"'watch{rng.randrange(self.spec.patients)}'"
        ts = rng.randint(1, self.spec.samples)
        extra = ""
        if rng.random() < 0.4:
            column = rng.choice(base._table_columns("sensed_data"))
            extra = f" and {base._predicate(column, True)}"
        return rng.choice((
            "select watch_id, timestamp, beats from sensed_data where "
            f"watch_id = {watch} and timestamp = {ts}{extra}",
            "select users.user_id, sensed_data.beats from users join sensed_data on "
            f"users.watch_id = sensed_data.watch_id and sensed_data.timestamp = {ts} "
            f"where users.watch_id = {watch}{extra}",
            f"select watch_id, max(beats) from sensed_data where true{extra} "
            f"group by watch_id having watch_id = {watch}",
        )), {}

    def _join_subquery(self, rng: random.Random, base) -> tuple[str, dict]:
        """A two-table INNER join whose WHERE tests one side's column
        against an uncorrelated ``[NOT] IN`` or scalar sub-query (pushed
        below the join), maybe beside a correlated EXISTS (never pushed)."""
        profiles = "nutritional_profiles"
        inner = ""
        if rng.random() < 0.3:  # a literal the statement shape lifts
            column = rng.choice(
                [c for c in base._table_columns(profiles) if c.values]
            )
            inner = f" where {profiles}.{column.name} = '{rng.choice(column.values)}'"
        elif rng.random() < 0.6:
            column = rng.choice(base._table_columns(profiles))
            inner = f" where {base._predicate(column, True)}"
        if rng.random() < 0.5:
            negated = "not " if rng.random() < 0.3 else ""
            test = (
                f"users.nutritional_profile_id {negated}in "
                f"(select {profiles}.profile_id from {profiles}{inner})"
            )
        else:
            operator = rng.choice((">", "<", ">=", "<="))
            aggregate = rng.choice(("avg", "min", "max", "count"))
            column, scale = rng.choice(
                (("users.nutritional_profile_id", ""), ("sensed_data.beats", " * 20"))
            )
            test = (
                f"{column} {operator} (select {aggregate}({profiles}.profile_id)"
                f"{scale} from {profiles}{inner})"
            )
        conjuncts = [test]
        if rng.random() < 0.4:
            conjuncts.append(
                base._predicate(rng.choice(base._table_columns("sensed_data")), True)
            )
        if rng.random() < 0.4:
            conjuncts.append(
                f"exists (select 1 from {profiles} where {profiles}.profile_id"
                " = users.nutritional_profile_id)"
            )
        rng.shuffle(conjuncts)
        sql = (
            "select users.user_id, sensed_data.beats from users join sensed_data "
            "on users.watch_id = sensed_data.watch_id where "
            + " and ".join(conjuncts)
        )
        return sql, {}
