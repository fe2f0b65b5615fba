"""The differential runner: every production path against the oracle.

For each :class:`~.generator.FuzzCase` the runner executes the same
⟨query, purpose, user, params⟩ submission through every path a client can
reach enforcement by:

``ad-hoc``
    :meth:`EnforcementMonitor.execute_with_report` on a cold plan cache.
``prepared-cold``
    :meth:`EnforcementMonitor.prepare` (compiles eagerly) followed by one
    execution of the handle.
``cached``
    A second ad-hoc execution, which must hit the plan cache.
``server-query`` / ``server-prepared``
    The same statement over the :mod:`repro.server` wire protocol, ad-hoc
    and via remote prepare/execute.
``sibling`` / ``sibling-literal``
    The text with each literal its shape lifts (:mod:`repro.sql.shape`)
    redrawn from its column's values: ad-hoc, where it must hit the plan the
    case compiled and audit its own text and id, and parsed, which the
    monitor compiles as written; both against the oracle's sibling answer.
``sharded-N`` (opt-in via ``sharded_counts``)
    The same statement over the wire against an
    :class:`~repro.server.async_server.AsyncQueryServer` fronting an
    N-shard :class:`~repro.shard.coordinator.ShardCoordinator` whose
    replica worlds are rebuilt from this world's
    :class:`~.scenario.ScenarioSpec`.  Sharded deployments pin
    ``optimizer="off"`` — in that mode every guard conjunct is evaluated
    per row, and the per-row ``complieswith`` count is exactly conserved
    under row partitioning, so check counts must agree *across shard
    counts* (they are compared among the sharded paths, not against the
    default-mode paths, and cache-hit expectations do not apply to the
    separate replica worlds).  One more deployment at the largest shard
    count runs the full pipeline (``sharded-N-default``: bitmaps, index
    paths) and is compared on rows only.  Before a case runs through them,
    a seeded ``ddl-index`` step creates or drops a secondary index straight
    on every replica's database, with no epoch bump: the coordinator has to
    ship it to its shards by itself, and the default-mode shards probe it.

All row-returning paths must agree with the oracle on columns and row
multiset, report the same ``complieswith`` invocation count, and match the
expected cache-hit flag; denials must agree across paths (in-process
:class:`UnauthorizedPurposeError` ↔ wire ``unauthorized_purpose``) and with
the Pa grants the scenario recorded; every in-process execution must leave
exactly one audit record with matching outcome, row count and check count.

On top of path agreement the runner checks three metamorphic invariants:

* **subset** — for subquery-free plain selects, enforced rows form a
  sub-multiset of the unenforced rows;
* **broadening** — appending a pass-all rule to every stored policy makes
  the enforced result equal the unenforced result exactly (any query
  shape: every conjunct becomes true).  The policy writes are row commits
  that move no epoch, so the broadened run replays the case's cached plan,
  which must read the new masks at run time;
* **restore** — once the policies are restored, the same cached plan
  reproduces the original result.

A case where the oracle and *every* path raise an enforcement-stack error
is treated as consistently-erroring and passes — this keeps the shrinker
sound (candidates that break the query's validity do not masquerade as
failures) without masking real disagreements.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from ..core.admin import POLICY_COLUMN
from ..core.audit import AuditLog
from ..core.query_model import query_id
from ..engine.types import BitString
from ..errors import RemoteError, ReproError, UnauthorizedPurposeError
from ..server import Client, QueryServer
from ..sql import ast, parse_statement, print_expression, to_sql, tokenize
from ..sql.parser import literal_value
from ..sql.shape import parameterize
from ..sql.tokens import TokenType
from .generator import FuzzCase
from .oracle import EnforcementOracle
from .scenario import FuzzScenario, ScenarioSpec, build_fuzz_scenario

#: Paths that must report ``cache_hit=True`` (the plan was compiled by an
#: earlier path of the same case, under an unchanged policy epoch).
_WARM_PATHS = ("prepared-cold", "cached", "server-query", "server-prepared", "sibling")


def normalize_value(value):
    """Make a cell comparable across the engine, the wire and sqlite.

    The wire protocol degrades non-JSON values (policy-mask
    :class:`BitString`\\ s from ``SELECT *``) to text, and the oracle loads
    them into sqlite as text, so all sides are normalized to that.  Floats
    are compared at 9 decimals: a float ``sum``/``avg`` depends on the
    order its inputs arrive in, the reference engine picks its own join
    order, and 6 of the 500 seed-2015 cases differ from it in the last ulp
    and nowhere else.
    """
    if isinstance(value, BitString):
        return value.bits()
    if isinstance(value, float):
        return round(value, 9)
    return value


def _row_key(row: tuple):
    return tuple((v is None, type(v).__name__, str(v)) for v in row)


def normalize_rows(rows) -> list[tuple]:
    """Type-stable sorted multiset of rows for order-insensitive equality."""
    return sorted(
        (tuple(normalize_value(v) for v in row) for row in rows), key=_row_key
    )


def is_sub_multiset(smaller: list[tuple], larger: list[tuple]) -> bool:
    """Whether ``smaller`` (normalized) is contained in ``larger`` with
    multiplicities."""
    from collections import Counter

    budget = Counter(larger)
    for row in smaller:
        if budget[row] <= 0:
            return False
        budget[row] -= 1
    return True


@dataclass
class PathResult:
    """One execution path's observation for a case."""

    path: str
    outcome: str  # "rows" | "denied" | "error"
    columns: list[str] | None = None
    rows: list[tuple] | None = None
    checks: int | None = None
    cache_hit: bool | None = None
    error: str | None = None


@dataclass
class CaseReport:
    """Everything the runner concluded about one case."""

    case: FuzzCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    paths: list[PathResult] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"case {self.case.replay_token} [{self.case.kind}] "
            f"purpose={self.case.purpose} user={self.case.user}",
            f"  sql: {self.case.sql}",
        ]
        if self.case.params:
            lines.append(f"  params: {self.case.params}")
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)


class DifferentialRunner:
    """Owns a fuzzing world, its oracle, audit log and query server."""

    def __init__(
        self,
        world: FuzzScenario | None = None,
        spec: ScenarioSpec | None = None,
        use_server: bool = True,
        sharded_counts: "tuple[int, ...]" = (),
    ):
        self.world = world or build_fuzz_scenario(spec)
        self.oracle = EnforcementOracle(self.world.admin)
        self.audit = AuditLog(self.world.database)
        self.world.monitor.attach_audit(self.audit)
        self.use_server = use_server
        self.sharded_counts = tuple(sharded_counts)
        self._server: QueryServer | None = None
        self._sharded: dict = {}  # (shard count, pinned) -> AsyncQueryServer

    # -- lifecycle -------------------------------------------------------------

    @property
    def server(self) -> QueryServer:
        if self._server is None:
            self._server = QueryServer(self.world.monitor).start()
        return self._server

    def sharded_server(self, count: int, pinned: bool = True):
        """The running async sharded deployment for one shard count (lazy).

        ``pinned`` deployments run ``optimizer="off"``: per-row
        complieswith counts are conserved exactly under partitioning only
        when every guard conjunct is evaluated row by row with no
        bitmap/memo hoisting.  The other one runs the full pipeline.
        """
        if (count, pinned) not in self._sharded:
            from ..server.async_server import AsyncQueryServer
            from ..shard import ShardCoordinator
            from ..workload import WorldRecipe

            coordinator = ShardCoordinator(
                WorldRecipe.for_fuzz(self.world.spec),
                count,
                optimizer="off" if pinned else None,
            )
            self._sharded[count, pinned] = AsyncQueryServer(coordinator).start()
        return self._sharded[count, pinned]

    def _sharded_legs(self) -> "list[tuple[int, bool]]":
        """``(count, pinned)`` per sharded path: every count pinned, then
        the largest once more at default modes."""
        if not self.sharded_counts:
            return []
        legs = [(count, True) for count in self.sharded_counts]
        return legs + [(max(self.sharded_counts), False)]

    def toggle_replica_index(self, rng: random.Random) -> str:
        """``ddl-index`` on every sharded replica; returns its description.

        The statement runs straight on the coordinator's database from this
        thread, as an operator's session would, and nothing is broadcast:
        the next statement through the coordinator must find the shards
        level with the replica all the same.
        """
        table = rng.choice(sorted(self.world.admin.target_tables()))
        columns = [
            column.name
            for column in self.world.database.table(table).schema.columns
            if column.name.lower() != POLICY_COLUMN
        ]
        name = f"idx_fuzz_{table}"
        create = f"create index {name} on {table} ({rng.choice(columns)})"
        ddl = ""
        for leg in self._sharded_legs():
            database = self.sharded_server(*leg).coordinator.database
            exists = database.indexes.find(name) is not None
            ddl = f"drop index {name}" if exists else create
            database.execute(ddl)
        return ddl

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        for server in self._sharded.values():
            server.stop()
            server.coordinator.close()
        self._sharded.clear()

    def __enter__(self) -> "DifferentialRunner":
        """Start every deployment the cases will use now, not inside the
        first case; :meth:`close` stops them."""
        try:
            if self.use_server:
                self.server
            for leg in self._sharded_legs():
                self.sharded_server(*leg)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one case --------------------------------------------------------------

    def run_case(self, case: FuzzCase) -> CaseReport:
        """Run one case through every path and the invariants."""
        failures: list[str] = []
        params = case.params or None
        denial_expected = case.user is not None and not self.world.is_authorized(
            case.user, case.purpose
        )

        oracle_error, expected_rows, expected_columns = self._expected(case)
        paths = [
            self._adhoc_path("ad-hoc", case, clear_cache=True),
            self._prepared_path(case),
            self._adhoc_path("cached", case, clear_cache=False),
        ]
        if self.use_server:
            paths.append(self._server_path(case, prepared=False))
            paths.append(self._server_path(case, prepared=True))

        self._check_paths(
            case,
            paths,
            failures,
            denial_expected,
            oracle_error,
            expected_rows,
            expected_columns,
        )

        sibling = self._sibling(case)
        if sibling is not None:
            legs = [
                self._adhoc_path("sibling", sibling, False),
                self._adhoc_path("sibling-literal", sibling, False, parsed=True),
            ]
            expected = self._expected(sibling)
            self._check_paths(sibling, legs, failures, denial_expected, *expected)
            paths.extend(legs)

        if self.sharded_counts:
            self.toggle_replica_index(
                random.Random(f"{case.replay_token}:ddl-index")
            )
            sharded = [
                self._sharded_path(case, *leg) for leg in self._sharded_legs()
            ]
            self._check_paths(
                case,
                sharded,
                failures,
                denial_expected,
                oracle_error,
                expected_rows,
                expected_columns,
            )
            paths.extend(sharded)

        if (
            not failures
            and not denial_expected
            and oracle_error is None
            and expected_rows is not None
        ):
            self._check_invariants(case, expected_rows, failures)

        return CaseReport(case=case, ok=not failures, failures=failures, paths=paths)

    def _expected(self, case: FuzzCase):
        """The oracle's ``(error, rows, columns)`` for a case."""
        try:
            expected = self.oracle.expected(case.sql, case.purpose, case.params or None)
        except ReproError as exc:
            return f"{type(exc).__name__}: {exc}", None, None
        return (
            None,
            normalize_rows(expected.rows),
            [c.lower() for c in expected.columns],
        )

    def _sibling(self, case: FuzzCase) -> "FuzzCase | None":
        """The case with each lifted literal redrawn (seeded) from the other
        values its column holds; ``None`` when its text lifts none."""
        tokens = tokenize(case.sql)
        shape, values = parameterize(tokens)
        if not values:
            return None
        rng = random.Random(f"{case.replay_token}:sibling")
        pieces, copied = [], 0
        for index, token in enumerate(shape):
            if token.type is TokenType.PARAMETER:
                literal, value = tokens[index], literal_value(tokens[index])
                domain = self._column_values(tokens[index - 2].value) - {value}
                drawn = ast.Literal(rng.choice(sorted(domain, key=repr) or [value]))
                pieces += [case.sql[copied : literal.position], print_expression(drawn)]
                copied = literal.position + len(literal.value)
                if literal.type is TokenType.STRING:
                    copied += literal.value.count("'") + 2
        return case.with_sql("".join(pieces) + case.sql[copied:])

    def _column_values(self, column: str) -> set:
        """The strings and non-negative numbers a column holds in any table
        (each prints as one literal token, so a sibling keeps its shape)."""
        database, column = self.world.database, column.lower()
        tables = [database.table(name) for name in self.world.admin.target_tables()]
        return {
            value
            for table in tables
            if column in table.schema and column != POLICY_COLUMN
            for value in (row[table.schema.column_index(column)] for row in table.rows)
            if isinstance(value, str) or (type(value) in (int, float) and value >= 0)
        }

    # -- execution paths -------------------------------------------------------

    def _adhoc_path(
        self, name: str, case: FuzzCase, clear_cache: bool, parsed: bool = False
    ) -> PathResult:
        """One in-process execution of the case's text, or with ``parsed``
        of the statement parsed from it (compiled as written, unshaped)."""
        monitor = self.world.monitor
        if clear_cache:
            monitor.clear_plan_cache()
        # Paths are compared on their complieswith counts, so each must pay
        # the full guard-evaluation cost: drop bitmaps reused from earlier
        # paths of the same case.
        monitor.clear_policy_bitmaps()
        audit_before = len(self.audit)
        text = None if parsed else case.sql
        try:
            report = monitor.execute_with_report(
                text or parse_statement(case.sql),
                case.purpose,
                user=case.user,
                params=case.params or None,
            )
        except UnauthorizedPurposeError:
            result = PathResult(name, "denied")
            self._check_audit(name, result, audit_before, None, text)
            return result
        except ReproError as exc:
            return PathResult(name, "error", error=f"{type(exc).__name__}: {exc}")
        result = PathResult(
            name,
            "rows",
            columns=[c.lower() for c in report.result.columns],
            rows=normalize_rows(report.result.rows),
            checks=report.compliance_checks,
            # A parsed statement compiles a plan of its own.
            cache_hit=None if parsed else report.cache_hit,
        )
        self._check_audit(name, result, audit_before, report, text)
        return result

    def _prepared_path(self, case: FuzzCase) -> PathResult:
        name = "prepared-cold"
        monitor = self.world.monitor
        monitor.clear_plan_cache()
        monitor.clear_policy_bitmaps()
        audit_before = len(self.audit)
        try:
            prepared = monitor.prepare(case.sql, case.purpose)
            report = prepared.execute_with_report(
                params=case.params or None, user=case.user
            )
        except UnauthorizedPurposeError:
            result = PathResult(name, "denied")
            self._check_audit(name, result, audit_before, None)
            return result
        except ReproError as exc:
            return PathResult(name, "error", error=f"{type(exc).__name__}: {exc}")
        result = PathResult(
            name,
            "rows",
            columns=[c.lower() for c in report.result.columns],
            rows=normalize_rows(report.result.rows),
            checks=report.compliance_checks,
            cache_hit=report.cache_hit,
        )
        self._check_audit(name, result, audit_before, report)
        return result

    def _server_path(self, case: FuzzCase, prepared: bool) -> PathResult:
        name = "server-prepared" if prepared else "server-query"
        # The wire protocol has no anonymous sessions; user-less cases ride
        # on u0, which holds every purpose, so the row comparison is
        # unaffected and denials still come from the case's own user.
        user = case.user if case.user is not None else self.world.users[0]
        params = case.params or None
        self.world.monitor.clear_policy_bitmaps()
        try:
            with Client(*self.server.address) as client:
                client.hello(user, case.purpose)
                if prepared:
                    statement = client.prepare(case.sql)
                    answer = client.execute_prepared(statement, params)
                else:
                    answer = client.query(case.sql, params)
        except RemoteError as exc:
            # Only the Pa denial counts as "denied": the in-process paths
            # see other AccessControlErrors (e.g. SignatureError on an
            # invalid column) as plain errors, and ``policy_denied`` is the
            # wire form of exactly those.
            if exc.code == "unauthorized_purpose":
                return PathResult(name, "denied")
            return PathResult(name, "error", error=f"RemoteError[{exc.code}]: {exc.message}")
        return PathResult(
            name,
            "rows",
            columns=[c.lower() for c in answer.columns],
            rows=normalize_rows(answer.rows),
            checks=answer.checks,
            cache_hit=answer.cache_hit,
        )

    def _sharded_path(
        self, case: FuzzCase, count: int, pinned: bool = True
    ) -> PathResult:
        name = f"sharded-{count}" if pinned else f"sharded-{count}-default"
        user = case.user if case.user is not None else self.world.users[0]
        params = case.params or None
        try:
            with Client(*self.sharded_server(count, pinned).address) as client:
                client.hello(user, case.purpose)
                answer = client.query(case.sql, params)
        except RemoteError as exc:
            if exc.code == "unauthorized_purpose":
                return PathResult(name, "denied")
            return PathResult(
                name, "error", error=f"RemoteError[{exc.code}]: {exc.message}"
            )
        return PathResult(
            name,
            "rows",
            columns=[c.lower() for c in answer.columns],
            rows=normalize_rows(answer.rows),
            # Bitmaps and memos make default-mode counts depend on what ran
            # before: that leg is compared on rows only.  Each deployment is
            # a replica world with its own plan cache, so no cache-hit
            # expectation applies.
            checks=answer.checks if pinned else None,
        )

    # -- assertions ------------------------------------------------------------

    def _check_audit(
        self, name: str, result: PathResult, audit_before: int, report,
        text: str | None = None,
    ) -> None:
        """Every in-process execution leaves exactly one matching record;
        given the ``text`` that ran, one carrying it and its query id."""
        delta = self.audit.since(audit_before)
        if len(delta) != 1:
            result.error = f"{len(delta)} audit records written (expected 1)"
            result.outcome = "error"
            return
        record = delta[0]
        if text is not None and (record.statement, record.query_id) != (
            text, query_id(to_sql(parse_statement(text)))
        ):
            result.outcome = "error"
            result.error = f"audit record {record} is not the text's"
            return
        expected_outcome = "denied" if result.outcome == "denied" else "allowed"
        if record.outcome != expected_outcome:
            result.error = (
                f"audit outcome {record.outcome!r} != {expected_outcome!r}"
            )
            result.outcome = "error"
            return
        if report is not None and (
            record.rows != len(report.result)
            or record.compliance_checks != report.compliance_checks
        ):
            result.error = (
                f"audit rows/checks ({record.rows}/{record.compliance_checks}) "
                f"disagree with report "
                f"({len(report.result)}/{report.compliance_checks})"
            )
            result.outcome = "error"

    def _check_paths(
        self,
        case: FuzzCase,
        paths: list[PathResult],
        failures: list[str],
        denial_expected: bool,
        oracle_error: str | None,
        expected_rows,
        expected_columns,
    ) -> None:
        """One group of paths against the oracle — denial, error, columns,
        rows — and against the group's first path on ``complieswith``
        count; warm paths must hit the plan cache.  A ``None`` count or
        cache hit is not compared: sharded deployments are replica worlds
        with their own plan caches, and their default-mode leg's count
        depends on what ran before."""
        if denial_expected:
            for path in paths:
                if path.outcome != "denied":
                    failures.append(
                        f"{path.path}: expected denial for user {case.user!r} "
                        f"purpose {case.purpose!r}, got {path.outcome}"
                        + (f" ({path.error})" if path.error else "")
                    )
            return

        if oracle_error is not None:
            # Consistent-error rule: acceptable only if every path errored.
            for path in paths:
                if path.outcome != "error":
                    failures.append(
                        f"{path.path}: oracle raised ({oracle_error}) but the "
                        f"path returned {path.outcome}"
                    )
            return

        baseline_checks: int | None = None
        for path in paths:
            if path.outcome == "denied":
                failures.append(
                    f"{path.path}: unexpected denial (user {case.user!r} holds "
                    f"purpose {case.purpose!r})"
                )
                continue
            if path.outcome == "error":
                failures.append(f"{path.path}: unexpected error: {path.error}")
                continue
            if path.columns != expected_columns:
                failures.append(
                    f"{path.path}: columns {path.columns} != oracle "
                    f"{expected_columns}"
                )
            if path.rows != expected_rows:
                failures.append(
                    f"{path.path}: {len(path.rows)} rows disagree with oracle's "
                    f"{len(expected_rows)} "
                    f"(first diff: {_first_difference(path.rows, expected_rows)})"
                )
            if path.checks is not None:
                if baseline_checks is None:
                    baseline_checks = path.checks
                elif path.checks != baseline_checks:
                    failures.append(
                        f"{path.path}: {path.checks} compliance checks != "
                        f"{baseline_checks} on the first path"
                    )
            expected_hit = path.path in _WARM_PATHS
            if path.cache_hit is not None and path.cache_hit is not expected_hit:
                failures.append(
                    f"{path.path}: cache_hit={path.cache_hit}, expected "
                    f"{expected_hit}"
                )

    # -- metamorphic invariants --------------------------------------------------

    def _unenforced_rows(self, case: FuzzCase) -> list[tuple]:
        statement = parse_statement(case.sql)
        result = self.world.database.prepare(statement).execute(
            case.params or None
        )
        return normalize_rows(result.rows)

    def _check_invariants(
        self, case: FuzzCase, expected_rows: list[tuple], failures: list[str]
    ) -> None:
        monitor = self.world.monitor
        admin = self.world.admin
        unenforced = self._unenforced_rows(case)

        if case.subset_invariant and not is_sub_multiset(expected_rows, unenforced):
            failures.append(
                "subset invariant: enforced rows are not a sub-multiset of "
                "the unenforced rows"
            )

        # Broadening: append a pass-all rule to every stored policy (NULL
        # policies become a single pass-all rule), which makes every
        # compliance conjunct true — the enforced result must then equal
        # the unenforced result exactly, for any query shape.
        snapshots: dict[str, list[tuple]] = {}
        for table_name in admin.target_tables():
            storage = admin.database.table(table_name)
            snapshots[table_name] = list(storage.rows)
            policy_index = storage.schema.column_index(POLICY_COLUMN)
            pass_all = BitString.ones(admin.layout(table_name).rule_length)
            storage.rows = [
                (
                    *row[:policy_index],
                    pass_all if row[policy_index] is None else row[policy_index] + pass_all,
                    *row[policy_index + 1 :],
                )
                for row in storage.rows
            ]
        try:
            report = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user, params=case.params or None
            )
            broadened = normalize_rows(report.result.rows)
            # SELECT * projects the policy column, whose cells the
            # broadening just rewrote — so the unenforced reference must be
            # recomputed under the mutated policies, not reused from above.
            broadened_unenforced = self._unenforced_rows(case)
            if broadened != broadened_unenforced:
                failures.append(
                    f"broadening invariant: with pass-all rules appended the "
                    f"enforced result has {len(broadened)} rows, unenforced "
                    f"has {len(broadened_unenforced)}"
                )
            if case.subset_invariant and len(broadened) < len(expected_rows):
                failures.append(
                    f"broadening invariant: broadening the policies shrank "
                    f"the result ({len(expected_rows)} -> {len(broadened)} rows)"
                )
        except ReproError as exc:
            failures.append(
                f"broadening invariant: execution failed: "
                f"{type(exc).__name__}: {exc}"
            )
        finally:
            for table_name, rows in snapshots.items():
                admin.database.table(table_name).rows = rows

        # Restore: the original result again.
        try:
            report = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user, params=case.params or None
            )
        except ReproError as exc:
            failures.append(
                f"restore invariant: re-execution after restore failed: "
                f"{type(exc).__name__}: {exc}"
            )
            return
        if normalize_rows(report.result.rows) != expected_rows:
            failures.append(
                "restore invariant: result after policy restore differs from "
                "the original enforced result"
            )


def _first_difference(actual: list[tuple], expected: list[tuple]) -> str:
    from collections import Counter

    actual_counts = Counter(actual)
    expected_counts = Counter(expected)
    extra = actual_counts - expected_counts
    missing = expected_counts - actual_counts
    if extra:
        return f"extra row {next(iter(extra))!r}"
    if missing:
        return f"missing row {next(iter(missing))!r}"
    return "multisets equal (ordering artifact?)"

