"""Interleaved reader / policy-writer schedules for snapshot enforcement.

:class:`ScheduleRunner` extends the differential harness to the MVCC
claim DESIGN.md §15 makes: *a snapshot-pinned reader is enforced under the
policy state its snapshot captured, no matter what commits around it*.

For each :class:`~.generator.FuzzCase` the runner:

1. opens a transaction, pinning a :class:`~repro.engine.mvcc.Snapshot`
   (commit ts × policy epoch), and takes the **pinned reference** — the
   reader's first answer, which must equal the oracle's at that snapshot;
2. interleaves a seeded schedule of committed writer steps — scattered
   policy-mask churn, grants and revocations (a pass-all or pass-none mask
   stored on the rows sharing one key value), all of them row commits
   that move no epoch; row duplications, row deletions, index DDL, epoch
   bumps and taxonomy edits (a scratch purpose defined/removed with mask
   migration) — re-running the pinned reader after **every** step;
3. requires every pinned read to reproduce the reference exactly: same
   rows, same columns, same denial outcome, and (with the bitmap cache
   cleared before each read) the same ``complieswith`` count;
4. after every grant and revocation, requires a statement that starts
   after it committed to agree with the oracle at the latest commit, so
   no such statement returns a revoked row;
5. after rolling the reader back, requires a fresh latest-snapshot read to
   agree with the oracle recomputed under the churned state — the schedule
   must not leave enforcement broken for later readers.

A case whose reference errors must keep erroring at every pinned read
(consistent-error rule, as in :class:`~.runner.DifferentialRunner`).

With ``sharded_counts`` the ``ddl-index`` step also runs on the replica of
every sharded deployment (no epoch bump), and the case then has to answer
through each of them exactly as it did before the schedule started: an
index is an access path, never an answer.

Schedules are deterministic per ``(case.replay_token, schedule seed)``:
every step draws from one :class:`random.Random`, so a failing schedule
replays from its token alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.policy import Policy, PolicyRule
from ..core.policy_manager import PolicyManager
from ..core.purposes import Purpose
from ..errors import ReproError, UnauthorizedPurposeError
from ..workload.policies import scattered_policy
from .generator import FuzzCase
from .runner import DifferentialRunner, normalize_rows

#: Writer-step kinds a schedule may draw (weights in ``_churn_step``).
SCHEDULE_OPS = (
    "mask-churn",
    "grant",
    "revoke",
    "epoch-bump",
    "dml-duplicate",
    "dml-delete",
    "ddl-index",
    "taxonomy-edit",
)

#: The purpose id the taxonomy-edit op toggles (never granted to a user or
#: referenced by a rule — its existence only shifts every mask layout).
SCRATCH_PURPOSE = "zz_sched_scratch"


@dataclass
class PinnedRead:
    """One execution of the pinned reader: outcome plus comparison data."""

    label: str
    outcome: str  # "rows" | "denied" | "error"
    columns: list[str] | None = None
    rows: list[tuple] | None = None
    checks: int | None = None
    error: str | None = None


@dataclass
class ScheduleReport:
    """Everything one schedule concluded, in replayable form."""

    case: FuzzCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    reads: list[PinnedRead] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"schedule {self.case.replay_token} [{self.case.kind}] "
            f"purpose={self.case.purpose} user={self.case.user}",
            f"  sql: {self.case.sql}",
            f"  steps: {', '.join(self.steps) or '(none)'}",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)


def _answer(path) -> tuple:
    """What a sharded path answered, without the cache-hit flag (the DDL
    moves the epoch, so plans recompile)."""
    return (path.outcome, path.columns, path.rows, path.checks)


class ScheduleRunner(DifferentialRunner):
    """A differential runner that also drives interleaved schedules.

    Inherits the world/oracle plumbing (and, when enabled, every ordinary
    execution path) from :class:`~.runner.DifferentialRunner`; adds
    :meth:`run_schedule`.  Built with ``use_server=False`` by default —
    schedules pin transactions in-process, not over the wire.
    """

    def __init__(
        self,
        world=None,
        spec=None,
        use_server: bool = False,
        sharded_counts: "tuple[int, ...]" = (),
    ):
        super().__init__(
            world=world,
            spec=spec,
            use_server=use_server,
            sharded_counts=sharded_counts,
        )
        self._policies: PolicyManager | None = None

    def _policy_manager(self) -> PolicyManager:
        """The (lazily built) mask-migration manager for taxonomy edits."""
        if self._policies is None:
            self._policies = PolicyManager(self.world.admin)
        return self._policies

    # -- the pinned reader -------------------------------------------------

    def _pinned_read(self, txn, case: FuzzCase, label: str) -> PinnedRead:
        """One read under ``txn``'s snapshot (``None``: the latest commit)."""
        from ..engine import txn_scope

        monitor = self.world.monitor
        monitor.clear_policy_bitmaps()
        try:
            with txn_scope(txn):
                report = monitor.execute_with_report(
                    case.sql,
                    case.purpose,
                    user=case.user,
                    params=case.params or None,
                )
        except UnauthorizedPurposeError:
            return PinnedRead(label, "denied")
        except ReproError as exc:
            return PinnedRead(
                label, "error", error=f"{type(exc).__name__}: {exc}"
            )
        return PinnedRead(
            label,
            "rows",
            columns=[c.lower() for c in report.result.columns],
            rows=normalize_rows(report.result.rows),
            checks=report.compliance_checks,
        )

    # -- writer steps ------------------------------------------------------

    def _churn_step(self, rng: random.Random, index: int) -> str:
        """Apply one committed writer step; returns its description."""
        admin = self.world.admin
        table = rng.choice(admin.target_tables())
        op = rng.choice(SCHEDULE_OPS)
        if op == "mask-churn":
            # Rewrite the whole table's policy masks with a fresh scattered
            # policy — ordinary (versioned) row data, no epoch bump.
            policy = scattered_policy(
                table,
                compliant=rng.random() < 0.5,
                rule_count=rng.randint(1, 3),
                pass_all_position=rng.randint(0, 2),
            )
            admin.apply_policy(policy)
            return f"{index}:mask-churn[{table}]"
        if op == "epoch-bump":
            admin.bump_policy_epoch()
            return f"{index}:epoch-bump"
        if op == "ddl-index":
            # Toggle a secondary index through SQL DDL: pure access-path
            # churn.  Index definitions resolve as of the pinned snapshot's
            # catalog version, so neither the create nor the drop may alter
            # a pinned read — rows, columns or ``complieswith`` count.
            database = self.world.database
            name = f"idx_sched_{table}"
            if database.indexes.find(name) is None:
                column = database.table(table).schema.columns[0].name
                database.execute(f"create index {name} on {table} ({column})")
                return f"{index}:ddl-index[create {name}]"
            database.execute(f"drop index {name}")
            return f"{index}:ddl-index[drop {name}]"
        if op == "taxonomy-edit":
            # Toggle one scratch purpose under an open snapshot, driving the
            # Policy Management module end-to-end: snapshot the layouts,
            # edit the taxonomy (a versioned catalog commit), then migrate
            # stored masks so fresh reads stay oracle-consistent.  Pinned
            # readers keep decoding under the taxonomy their snapshot
            # captured.
            manager = self._policy_manager()
            manager.snapshot_layouts()
            if SCRATCH_PURPOSE in admin.purposes:
                admin.remove_purpose(SCRATCH_PURPOSE)
                action = "remove"
            else:
                admin.define_purpose(
                    Purpose(SCRATCH_PURPOSE, "schedule scratch purpose")
                )
                action = "define"
            manager.migrate()
            return f"{index}:taxonomy-edit[{action} {SCRATCH_PURPOSE}]"
        storage = self.world.database.table(table)
        rows = storage.rows
        if not rows:
            admin.bump_policy_epoch()
            return f"{index}:epoch-bump[{table} empty]"
        if op in ("grant", "revoke"):
            # Open (grant) or close (revoke) the rows sharing one value of
            # the first column to every purpose: one row commit.
            column = storage.schema.columns[0].name
            value = rng.choice(rows)[0]
            rule = PolicyRule.pass_all() if op == "grant" else PolicyRule.pass_none()
            admin.apply_policy(Policy(table, (rule,), tuple_selector=(column, value)))
            return f"{index}:{op}[{table}.{column} = {value!r}]"
        if op == "dml-duplicate":
            # Duplicate one committed row (schema-safe DML on any table).
            storage.append_rows([rng.choice(rows)])
            return f"{index}:dml-duplicate[{table}]"
        victim = rng.randrange(len(rows))
        storage.rows = [row for i, row in enumerate(rows) if i != victim]
        return f"{index}:dml-delete[{table}]"

    # -- one schedule ------------------------------------------------------

    def run_schedule(
        self,
        case: FuzzCase,
        churn_steps: int = 4,
        schedule_seed: "int | str | None" = None,
    ) -> ScheduleReport:
        """Pin a reader, interleave writer steps, check every read."""
        failures: list[str] = []
        steps: list[str] = []
        reads: list[PinnedRead] = []
        rng = random.Random(
            f"{case.replay_token}:{schedule_seed if schedule_seed is not None else 'schedule'}"
        )
        transactions = self.world.database.transactions
        # The replica worlds see none of the schedule's policy or data
        # churn, only its index DDL: their answers may never move.
        sharded_before = [
            self._sharded_path(case, *leg) for leg in self._sharded_legs()
        ]

        txn = transactions.begin()
        try:
            reference = self._pinned_read(txn, case, "pre-churn")
            reads.append(reference)
            self._check_oracle(reference, case, failures)
            for index in range(churn_steps):
                steps.append(self._churn_step(rng, index))
                read = self._pinned_read(txn, case, f"after {steps[-1]}")
                reads.append(read)
                self._compare(reference, read, failures)
                if ":grant[" in steps[-1] or ":revoke[" in steps[-1]:
                    self._check_latest(case, failures, f"latest after {steps[-1]}")
                if sharded_before and "ddl-index" in steps[-1]:
                    steps[-1] += f" + replicas[{self.toggle_replica_index(rng)}]"
                    for leg, before in zip(self._sharded_legs(), sharded_before):
                        after = self._sharded_path(case, *leg)
                        if _answer(after) != _answer(before):
                            failures.append(
                                f"{after.path} after {steps[-1]}: "
                                f"{_answer(after)} != {_answer(before)} "
                                f"before the schedule"
                            )
        finally:
            transactions.rollback(txn)

        self._check_latest(case, failures)
        return ScheduleReport(
            case=case, ok=not failures, failures=failures, steps=steps, reads=reads
        )

    def _compare(
        self, reference: PinnedRead, read: PinnedRead, failures: list[str]
    ) -> None:
        if read.outcome != reference.outcome:
            failures.append(
                f"{read.label}: outcome {read.outcome} != pinned reference "
                f"{reference.outcome}"
                + (f" ({read.error})" if read.error else "")
            )
            return
        if reference.outcome != "rows":
            return
        if read.columns != reference.columns:
            failures.append(
                f"{read.label}: columns {read.columns} != reference "
                f"{reference.columns}"
            )
        if read.rows != reference.rows:
            failures.append(
                f"{read.label}: {len(read.rows)} rows != reference's "
                f"{len(reference.rows)} — the pinned snapshot leaked "
                f"concurrent policy/data churn"
            )
        if read.checks != reference.checks:
            failures.append(
                f"{read.label}: {read.checks} compliance checks != "
                f"reference's {reference.checks}"
            )

    def _check_latest(
        self, case: FuzzCase, failures: list[str], label: str = "latest"
    ) -> None:
        """A fresh read at the latest commit must match the oracle there."""
        self._check_oracle(self._pinned_read(None, case, label), case, failures)

    def _check_oracle(
        self, read: PinnedRead, case: FuzzCase, failures: list[str]
    ) -> None:
        """``read`` must be the oracle's answer at the latest commit (for
        the pinned reference, its snapshot)."""
        denial_expected = case.user is not None and not self.world.is_authorized(
            case.user, case.purpose
        )
        try:
            expected = self.oracle.expected(
                case.sql, case.purpose, case.params or None
            )
            expected_rows = normalize_rows(expected.rows)
        except ReproError:
            expected_rows = None  # consistent-error: the read may error too
        if read.outcome == "denied":
            if not denial_expected:
                failures.append(f"{read.label}: unexpected denial")
            return
        if read.outcome == "error":
            if expected_rows is not None:
                failures.append(
                    f"{read.label}: read failed but the oracle did not: "
                    f"{read.error}"
                )
            return
        if denial_expected:
            failures.append(f"{read.label}: expected denial, got rows")
            return
        if expected_rows is None:
            failures.append(f"{read.label}: oracle errored but the read did not")
            return
        if read.rows != expected_rows:
            failures.append(
                f"{read.label}: {len(read.rows)} rows disagree with the "
                f"oracle's {len(expected_rows)} at the same commit"
            )

    # -- batches -----------------------------------------------------------

    def run_schedules(self, cases, churn_steps: int = 4):
        """Run an iterable of cases as schedules, yielding each report."""
        for case in cases:
            yield self.run_schedule(case, churn_steps=churn_steps)
