"""Differential testing of index-accelerated plans against full scans.

The reference is a twin world: built from the same spec, then every index
in ``indexes.definitions()`` dropped — the same rows, policies and
statistics, and no access path but the scan.  In the indexed world the
optimizer may reroute scans through secondary indexes and find
UPDATE/DELETE candidates by key — neither of which may change the
observable outcome: same rows and columns, same denial/error outcome and
the same audit trail.  The ``complieswith`` invocation count may only
fall: index paths are never chosen for residuals that call the policy
UDF, and a guard over an index probe judges only its candidates' policy
values where a guard over a scan judges every distinct one.

Three layers of coverage:

* every regression-corpus file replayed through the full differential
  harness in the indexed world and in its twin,
* a 500-case seed-2015 campaign comparing the two worlds' execution of
  every generated case directly against each other — as generated, and
  again with its comparison literals lifted to parameters, so every access
  path also probes with execute-time bindings — audit records included,
  and
* keyed and derived UPDATE/DELETE statements run in lockstep on both.

None of it is vacuous: the indexed world probes its indexes, the twin
never does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import AuditLog
from repro.core.admin import COMPLIES_WITH
from repro.errors import ReproError, UnauthorizedPurposeError
from repro.fuzz import DifferentialRunner, FuzzQueryGenerator, build_fuzz_scenario, load_repro
from repro.fuzz.generator import FuzzCase, case_rng
from repro.fuzz.runner import normalize_rows
from repro.fuzz.scenario import COMPOSITE_INDEX, ScenarioSpec
from repro.fuzz.shrinker import lift_literals

CAMPAIGN_SEED = 2015
CAMPAIGN_CASES = 500

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: The campaign world pins three indexes (plus the composite one every
#: indexed world carries) so it always has access paths to choose from.
INDEXED_SPEC = ScenarioSpec(index_count=3)


def build_twin(spec):
    """The world ``spec`` builds, with every index dropped."""
    twin = build_fuzz_scenario(spec)
    database = twin.database
    for definition in database.indexes.definitions():
        database.execute(f"drop index {definition.name}")
    assert not database.indexes.definitions()
    return twin


def index_hits(world) -> int:
    return world.database.indexes.stats()["hits"]


@pytest.fixture(scope="module", params=("on", "off"))
def mode_runner(request):
    """One full differential harness (server included) per world: ``on``
    the indexed one, ``off`` its twin."""
    build = build_fuzz_scenario if request.param == "on" else build_twin
    with DifferentialRunner(world=build(INDEXED_SPEC)) as runner:
        yield runner


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean_in_both_modes(mode_runner, path: Path) -> None:
    _, case, _ = load_repro(path)
    report = mode_runner.run_case(case)
    assert report.ok, report.describe()


#: Key lookups run beside the campaign: the generator draws ranges, LIKEs
#: and subqueries but almost no ``column = literal``, the one shape an
#: equality probe (full key, key prefix, hash) serves.
POINT_CASES = 60

_POINT_SHAPES = (
    "select temperature, beats from sensed_data "
    "where watch_id = '{watch}' and timestamp = {ts}",
    "select timestamp, beats from sensed_data where watch_id = '{watch}'",
    "select count(beats) from sensed_data where {ts} = timestamp",
    "select user_id from users where watch_id = '{watch}'",
    "select users.user_id, sensed_data.beats from users join sensed_data "
    "on users.watch_id = sensed_data.watch_id "
    "where sensed_data.watch_id = '{watch}' and sensed_data.timestamp = {ts}",
)

def point_cases(world, seed=CAMPAIGN_SEED):
    """``POINT_CASES`` seeded key lookups, some on keys that do not exist."""
    spec = world.spec
    for index in range(POINT_CASES):
        rng = case_rng(f"{seed}:points", index)
        sql = _POINT_SHAPES[index % len(_POINT_SHAPES)].format(
            watch=f"watch{rng.randrange(spec.patients + 2)}",
            ts=rng.randint(0, spec.samples + 1),
        )
        yield FuzzCase(
            seed=f"{seed}:points", index=index, kind="single", sql=sql,
            purpose=rng.choice(list(world.purposes)),
            user=rng.choice([None, *world.users]),
        )


def _audited(world):
    audit = AuditLog(world.database)
    world.monitor.attach_audit(audit)
    return world, audit


def _audited_pair(spec):
    """``(indexed, twin)``, each ``(world, audit)``."""
    indexed = build_fuzz_scenario(spec)
    assert indexed.indexes, "campaign world must carry secondary indexes"
    return _audited(indexed), _audited(build_twin(spec))


def _trail(audit, before):
    return tuple(
        (r.outcome, r.user, r.purpose, r.rows, r.compliance_checks)
        for r in audit.records[before:]
    )


class TestIndexCampaign:
    """500 generated cases and the key lookups, indexed world vs. twin."""

    @pytest.fixture(scope="class")
    def eq_worlds(self):
        return _audited_pair(INDEXED_SPEC)

    @staticmethod
    def _run(world, audit, case):
        """``((outcome, audit trail), complieswith counts)``: the counts are
        the report's and each audit record's."""
        monitor = world.monitor
        monitor.clear_plan_cache()
        monitor.clear_policy_bitmaps()
        audit_before = len(audit)
        checks = ()
        try:
            report = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user, params=case.params or None
            )
        except UnauthorizedPurposeError:
            outcome = ("denied", None, None)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__, None)
        else:
            outcome = (
                "rows",
                tuple(c.lower() for c in report.result.columns),
                tuple(normalize_rows(report.result.rows)),
            )
            checks = (report.compliance_checks,)
        trail = _trail(audit, audit_before)
        checks += tuple(record[-1] for record in trail)
        return (outcome, tuple(record[:-1] for record in trail)), checks

    def _disagreements(self, worlds, cases) -> tuple[list[str], int, int]:
        """Run each case as generated and with its comparison literals
        lifted to parameters, in the indexed world and its twin:
        ``(disagreements, how many cases had a literal to lift, how many
        runs the indexed world judged fewer policy values in)``."""
        indexed, twin = worlds
        disagreements = []
        lifted_cases = fewer = 0
        for case in cases:
            lifted = lift_literals(case)
            lifted_cases += lifted is not None
            outcomes = []
            for form in filter(None, (case, lifted)):
                on, on_checks = self._run(*indexed, form)
                off, off_checks = self._run(*twin, form)
                outcomes.append(on[0])
                fewer += on_checks < off_checks
                # The index path may judge fewer policy values, never more,
                # and each world's audit record agrees with its report.
                if (
                    on != off
                    or any(a > b for a, b in zip(on_checks, off_checks))
                    or any(len(set(c)) > 1 for c in (on_checks, off_checks))
                ):
                    disagreements.append(
                        f"{form.replay_token} ({form.kind}): {form.sql!r} "
                        f"{form.params}\n  indexed: {on} {on_checks}\n"
                        f"  dropped: {off} {off_checks}"
                    )
            # Binding at execute time answers what the literal answered.
            if len(set(outcomes)) > 1:
                disagreements.append(
                    f"{case.replay_token}: literal vs lifted\n  {outcomes}"
                )
            if len(disagreements) >= 5:
                break
        return disagreements, lifted_cases, fewer

    @staticmethod
    def _assert_not_vacuous(worlds) -> None:
        (indexed, _), (twin, _) = worlds
        assert index_hits(indexed) > 0
        assert index_hits(twin) == 0

    def test_500_cases_agree_between_index_modes(self, eq_worlds) -> None:
        generator = FuzzQueryGenerator.for_world(eq_worlds[0][0], seed=CAMPAIGN_SEED)
        disagreements, lifted_cases, _ = self._disagreements(
            eq_worlds, generator.cases(CAMPAIGN_CASES)
        )
        assert disagreements == [], "\n\n".join(disagreements)
        assert lifted_cases > CAMPAIGN_CASES // 4
        self._assert_not_vacuous(eq_worlds)

    def test_key_lookups_agree_between_index_modes(self) -> None:
        worlds = _audited_pair(INDEXED_SPEC)
        disagreements, lifted_cases, fewer = self._disagreements(
            worlds, point_cases(worlds[0][0])
        )
        assert disagreements == [], "\n\n".join(disagreements)
        assert lifted_cases == POINT_CASES
        # A guard over a key probe judges only its candidates' values.
        assert fewer > 0
        self._assert_not_vacuous(worlds)

    def test_key_lookups_probe_with_bindings(self) -> None:
        """The parameterised half is vacuous unless plans probe an index
        with a binding — under the policy guard, composite key included."""
        world = build_fuzz_scenario(INDEXED_SPEC)
        probed: set[str] = set()
        for case in map(lift_literals, point_cases(world)):
            try:
                plan = world.monitor.explain(
                    case.sql, case.purpose, user=case.user, params=case.params
                )
            except ReproError:
                continue
            lines = [line for (line,) in plan.rows]
            for guard, scan in zip(lines, lines[1:]):
                if "PolicyGuard" in guard and ":lift" in scan:
                    probed.add(scan.split(" using ")[1].split()[0])
        assert COMPOSITE_INDEX[0] in probed and len(probed) > 1, probed

    def test_on_mode_actually_uses_indexes(self, eq_worlds) -> None:
        """The equivalence above is vacuous unless index paths really run."""
        world, _ = eq_worlds[0]
        monitor = world.monitor
        monitor.clear_plan_cache()
        before = world.database.indexes.stats()
        generator = FuzzQueryGenerator.for_world(world, seed=CAMPAIGN_SEED)
        for case in generator.cases(100):
            try:
                monitor.execute(case.sql, case.purpose, params=case.params or None)
            except ReproError:
                pass
        after = world.database.indexes.stats()
        assert after["hits"] > before["hits"]


# -- UPDATE / DELETE through the index -------------------------------------------

#: Keyed statements: full composite key, key prefix, single-column keys, a
#: residual beside the key, keys that match nothing.
_DML_SHAPES = (
    "update sensed_data set beats = {n} "
    "where watch_id = '{watch}' and timestamp = {ts}",
    "update sensed_data set beats = beats + 1 where watch_id = '{watch}'",
    "delete from sensed_data where watch_id = '{watch}' and timestamp = {ts}",
    "update users set nutritional_profile_id = {n} where watch_id = '{watch}'",
    "delete from sensed_data where {ts} = timestamp and beats > {n}",
    "update sensed_data set temperature = temperature + 1 "
    "where temperature > 0 and watch_id = '{watch}' and timestamp <= {ts}",
)


def _keyed_dml(world, seed=CAMPAIGN_SEED):
    spec = world.spec
    for index in range(POINT_CASES):
        rng = case_rng(f"{seed}:dml", index)
        sql = _DML_SHAPES[index % len(_DML_SHAPES)].format(
            watch=f"watch{rng.randrange(spec.patients + 2)}",
            ts=rng.randint(0, spec.samples + 1),
            n=rng.randint(40, 160),
        )
        yield sql, rng.choice(list(world.purposes)), rng.choice([None, *world.users])


def _derived_dml(world, count):
    """The campaign draws no DML: every generated single-table SELECT with a
    WHERE lends its predicate (ranges, LIKEs, IN/scalar/nested subqueries)
    to an UPDATE that assigns a column to itself and to a DELETE."""
    from repro.sql import ast, parse_statement
    from repro.sql.printer import to_sql

    generator = FuzzQueryGenerator.for_world(world, seed=CAMPAIGN_SEED)
    for case in generator.cases(count):
        if case.params:
            continue
        try:
            select = parse_statement(case.sql)
        except ReproError:
            continue
        if not (
            isinstance(select, ast.Select)
            and select.where is not None
            and len(select.sources) == 1
            and isinstance(select.sources[0], ast.TableName)
            and select.sources[0].alias is None
        ):
            continue
        table = select.sources[0].name
        column = world.database.table(table).schema.column_names[0]
        update = ast.Update(
            table, ((column, ast.ColumnRef(column)),), select.where
        )
        delete = ast.Delete(table, select.where)
        yield to_sql(update), to_sql(delete), case.purpose, case.user


class TestIndexedDml:
    """The indexed world and its twin driven in lockstep: every UPDATE/DELETE
    leaves the same rows in the same order, the same affected count and the
    same audit record, and the indexed world's running ``complieswith``
    count never exceeds the twin's."""

    @staticmethod
    def _state(world):
        """Every table's rows but the audit trail's (compared as ``_trail``)."""
        database = world.database
        return {
            name: list(database.table(name).rows)
            for name in database.tables
            if name != AuditLog.TABLE
        }

    @classmethod
    def _run(cls, world, audit, sql, purpose, user, rolled_back=False):
        database, monitor = world.database, world.monitor
        before = database.function_calls(COMPLIES_WITH)
        audit_before = len(audit)
        if rolled_back:
            database.begin()
        try:
            affected = monitor.execute_statement(sql, purpose, user=user)
            outcome = ("rows", affected)
        except UnauthorizedPurposeError:
            outcome = ("denied", None)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__)
        state = cls._state(world)
        if rolled_back:
            database.rollback()
        checks = database.function_calls(COMPLIES_WITH) - before
        trail = tuple(record[:-1] for record in _trail(audit, audit_before))
        return (outcome, trail, state), checks

    def _lockstep(self, worlds, statements):
        indexed, twin = worlds
        disagreements = []
        affected = on_total = off_total = 0
        for sql, purpose, user, rolled_back in statements:
            on, on_checks = self._run(*indexed, sql, purpose, user, rolled_back)
            off, off_checks = self._run(*twin, sql, purpose, user, rolled_back)
            # Verdicts stay cached from one statement to the next, so the
            # running totals are compared: the indexed world never judges
            # more policy values than its twin.
            on_total += on_checks
            off_total += off_checks
            if on != off or on_total > off_total:
                disagreements.append(
                    f"{sql!r} as {purpose}/{user}\n"
                    f"  indexed: {on[:2]} {on_total}\n"
                    f"  dropped: {off[:2]} {off_total}"
                )
                break
            if on[0][0] == "rows":
                affected += on[0][1]
        assert disagreements == [], "\n\n".join(disagreements)
        assert index_hits(twin[0]) == 0
        return affected

    def test_keyed_statements_agree_between_index_modes(self) -> None:
        worlds = _audited_pair(INDEXED_SPEC)
        indexed = worlds[0][0]
        probes = index_hits(indexed)
        affected = self._lockstep(
            worlds, [(sql, p, u, False) for sql, p, u in _keyed_dml(indexed)]
        )
        # Not vacuous: rows were written, and found through an index.
        assert affected > 0
        assert index_hits(indexed) > probes

    def test_derived_statements_agree_between_index_modes(self) -> None:
        worlds = _audited_pair(INDEXED_SPEC)
        statements = []
        for update, delete, purpose, user in _derived_dml(worlds[0][0], 300):
            statements.append((update, purpose, user, False))
            # The delete runs against a table nothing has staged yet, so it
            # may take an index path too; rolled back, the world survives.
            statements.append((delete, purpose, user, True))
        assert len(statements) > 150
        assert self._lockstep(worlds, statements) > 0
        assert index_hits(worlds[0][0]) > 0

    def test_second_statement_on_a_staged_table_scans(self) -> None:
        world = build_fuzz_scenario(INDEXED_SPEC)
        database, monitor = world.database, world.monitor
        purpose = next(iter(world.purposes))
        sql = (
            "update sensed_data set beats = beats + 1 "
            "where watch_id = 'watch1' and timestamp = 1"
        )
        database.begin()
        try:
            before = database.indexes.stats()["hits"]
            monitor.execute_statement(sql, purpose)
            first = database.indexes.stats()["hits"]
            monitor.execute_statement(sql, purpose)
            second = database.indexes.stats()["hits"]
        finally:
            database.rollback()
        assert first == before + 1  # committed rows: found through the index
        assert second == first  # the overlay is private: scanned

    def test_index_path_never_updates_a_row_the_purpose_may_not_touch(self) -> None:
        """Every candidate the index returns still faces the whole rewritten
        predicate: aimed by key at a row whose policy denies everything, the
        statement finds it, checks it and leaves it alone."""
        from repro.core import Policy, PolicyRule

        world = build_fuzz_scenario(INDEXED_SPEC)
        database, monitor, admin = world.database, world.monitor, world.admin
        admin.apply_policy(Policy("sensed_data", (PolicyRule.pass_all(),)))
        admin.apply_policy(
            Policy(
                "sensed_data", (PolicyRule.pass_none(),),
                tuple_selector=("watch_id", "watch1"),
            )
        )
        table = database.table("sensed_data")
        purpose = next(iter(world.purposes))
        for watch, expected in (("watch1", 0), ("watch2", 1)):
            before = list(table.rows)
            probes = database.indexes.stats()["hits"]
            checks = database.function_calls(COMPLIES_WITH)
            affected = monitor.execute_statement(
                f"update sensed_data set beats = beats + 1 "
                f"where watch_id = '{watch}' and timestamp = 1",
                purpose,
            )
            assert affected == expected
            assert database.indexes.stats()["hits"] == probes + 1
            assert database.function_calls(COMPLIES_WITH) > checks
            changed = [
                (old, new) for old, new in zip(before, table.rows) if old is not new
            ]
            assert len(changed) == expected
            assert all(old[0] == "watch2" for old, _ in changed)
        assert monitor.execute_statement(
            "delete from sensed_data where watch_id = 'watch1' and timestamp = 1",
            purpose,
        ) == 0
