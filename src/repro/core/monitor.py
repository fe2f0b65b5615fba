"""Enforcement Monitor (Section 2).

:class:`EnforcementMonitor` is the façade a client talks to: it receives a
SQL query together with its access purpose (and optionally the submitting
user), verifies the user's purpose authorization against table Pa, derives
the query signature, rewrites the query with ``complieswith`` conjuncts and
executes the rewritten statement against the secured DBMS.

The parse → sign → rewrite → plan pipeline runs once per distinct
``(query, purpose)`` pair and is cached: :meth:`EnforcementMonitor.prepare`
returns a :class:`PreparedEnforcedQuery` that replays the compiled plan on
every execution, and :meth:`execute` / :meth:`execute_with_report` are thin
wrappers over the same cache.  Cache keys embed the admin's *policy epoch*
(:attr:`~repro.core.admin.AccessControlManager.policy_epoch`), so any
policy, categorization or purpose-set change transparently forces a fresh
rewrite — a prepared query can never replay a plan compiled under policies
that no longer hold.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..engine import (
    Database,
    ResultSet,
    current_transaction,
    resolve_batch_size,
    resolve_optimizer_mode,
    txn_scope,
)
from ..engine.database import PreparedQuery
from ..errors import ParseError, UnauthorizedPurposeError
from ..obs.tracing import NULL_TRACE, Trace
from ..sql import ast, parse_select, parse_statement
from ..sql.printer import print_select, to_sql
from .admin import AccessControlManager, COMPLIES_WITH
from .query_model import query_id as compute_query_id
from .rewriter import rewrite_query
from .signatures import QuerySignature, SignatureDeriver


@dataclass
class EnforcementReport:
    """Everything observable about one monitored execution.

    ``memo_hits`` is how many of the ``compliance_checks`` were answered
    from the ``complieswith`` memo; ``trace`` is the execution's recorded
    :class:`~repro.obs.tracing.Trace` when the monitor has tracing enabled
    (``None`` otherwise — disabled tracing records nothing).
    """

    original_sql: str
    rewritten_sql: str
    purpose: str
    signature: QuerySignature | None
    result: ResultSet
    compliance_checks: int
    cache_hit: bool = False
    memo_hits: int = 0
    #: Policy bitmaps built in full / revalidated for another table version
    #: / reused by hoisted guards during this execution (all stay 0 with the
    #: optimizer off or no guards hoisted).
    bitmap_built: int = 0
    bitmap_revalidated: int = 0
    bitmap_hits: int = 0
    #: Secondary-index probes performed by this execution (0 with the
    #: optimizer off or no indexes).
    index_hits: int = 0
    trace: "object | None" = None


@dataclass(frozen=True)
class CompiledEnforcedPlan:
    """One plan-cache entry: everything derived from ⟨query, purpose⟩.

    Valid exactly as long as the policy epoch it was compiled under; the
    cache key embeds :attr:`epoch`, so entries from older epochs simply
    stop being found (and are purged on the next insertion).

    ``signature`` is ``None`` for set-operation chains, where each SELECT
    branch carries its own signature inside the rewritten tree.
    """

    query_id: str
    purpose: str
    epoch: int
    optimizer: str
    original_sql: str
    statement: "ast.Select | ast.SetOperation"
    rewritten: "ast.Select | ast.SetOperation"
    rewritten_sql: str
    signature: QuerySignature | None
    plan: PreparedQuery


class PreparedEnforcedQuery:
    """A ⟨query, purpose⟩ pair prepared for repeated enforced execution.

    The handle itself stores no compiled state: every :meth:`execute`
    resolves the current plan through the monitor's epoch-keyed cache.  As
    long as policies are unchanged that is a dictionary hit replaying the
    compiled plan (no parsing, signature derivation or rewriting); after a
    policy, categorization or purpose-set change the epoch has moved and
    the next execution recompiles against the new state.
    """

    def __init__(
        self,
        monitor: "EnforcementMonitor",
        statement: "ast.Select | ast.SetOperation",
        query_id: str,
        purpose: str,
        original_sql: str | None = None,
    ):
        self.monitor = monitor
        self.statement = statement
        self.query_id = query_id
        self.purpose = purpose
        self.original_sql = original_sql

    @property
    def plan(self) -> CompiledEnforcedPlan:
        """The currently valid compiled plan (recompiled if the epoch moved)."""
        plan, _ = self.monitor._compiled_plan(
            self.statement, self.query_id, self.purpose
        )
        return plan

    @property
    def rewritten_sql(self) -> str:
        """The enforced SQL the next execution will run."""
        return self.plan.rewritten_sql

    @property
    def signature(self) -> QuerySignature | None:
        """The query signature (None for set-operation chains)."""
        return self.plan.signature

    @property
    def parameters(self) -> "list[ast.Parameter]":
        """The placeholders the query declares, in binding order."""
        return self.plan.plan.parameters

    def execute(self, params=None, user: str | None = None) -> ResultSet:
        """Run the prepared query under ``params``; returns filtered rows."""
        return self.execute_with_report(params=params, user=user).result

    def execute_with_report(
        self, params=None, user: str | None = None
    ) -> EnforcementReport:
        """Run the prepared query and return the full enforcement report."""
        return self.monitor._run_cached(
            self.statement,
            self.query_id,
            self.purpose,
            user,
            params,
            text=self.original_sql,
        )


class EnforcementMonitor:
    """Rewrites and executes queries under the access-control policies.

    ``authorizer`` decides user-purpose authorization; it defaults to the
    admin's direct Pa check and can be replaced with a
    :class:`~repro.core.roles.RoleManager` to get role-based authorization
    (the paper's future-work item 3).

    ``plan_cache_size`` bounds the compiled-plan LRU cache (keyed by
    ⟨query id, purpose, policy epoch, optimizer mode⟩);
    ``parse_cache_size`` bounds the policy-independent SQL-text → AST memo
    in front of it.

    The caches and their counters are lock-guarded, so one monitor can serve
    many threads (the :mod:`repro.server` deployment): cache hits and plan
    compilation serialize on the monitor's lock, while the executions
    themselves run outside it.  Callers that interleave reads with policy
    or data *writes* must provide their own exclusion (the server's
    readers–writer lock); the monitor only guarantees its internal state
    stays consistent.
    """

    #: Constants, kept for the same frozen benchmark seam as the
    #: ``executor`` and ``indexes`` arguments of
    #: :meth:`repro.engine.Database.prepare`.
    executor_mode = "batch"
    indexes_mode = "on"

    def __init__(
        self,
        admin: AccessControlManager,
        authorizer=None,
        plan_cache_size: int = 128,
        parse_cache_size: int = 256,
        optimizer: str | None = None,
        batch_size: int | None = None,
    ):
        self.admin = admin
        self.authorizer = authorizer if authorizer is not None else admin
        self.deriver = SignatureDeriver(admin, admin)
        self.audit = None
        self.metrics = None
        self.tracing_enabled = False
        self.optimizer_mode = resolve_optimizer_mode(optimizer)
        self.batch_size = resolve_batch_size(batch_size)
        self.plan_cache_size = plan_cache_size
        self.parse_cache_size = parse_cache_size
        self._plan_cache: "OrderedDict[tuple, CompiledEnforcedPlan]" = (
            OrderedDict()
        )
        self._parse_memo: "OrderedDict[str, tuple[ast.Select | ast.SetOperation, str]]" = (
            OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        # Guards both OrderedDict caches and the hit/miss counters: their
        # get / move_to_end / popitem sequences are multi-step and corrupt
        # the LRU order (or lose counts) when query threads interleave.
        # Reentrant because a cache miss compiles under the lock and the
        # compile path may consult `_resolve` again for nested statements.
        self._cache_lock = threading.RLock()

    def attach_audit(self, audit) -> None:
        """Record every execution/denial into an :class:`AuditLog`."""
        self.audit = audit

    def attach_metrics(self, registry) -> None:
        """Aggregate this monitor's activity into a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        Families are pre-registered so a scrape taken before any traffic
        still exposes every metric name at zero.
        """
        registry.counter(
            "repro_queries_total", "Enforced data-access statements by outcome"
        )
        registry.counter(
            "repro_complieswith_total",
            "complieswith invocations performed by enforced statements",
        )
        registry.counter(
            "repro_complieswith_memo_hits_total",
            "complieswith invocations answered from the compliance memo",
        )
        registry.counter(
            "repro_plan_cache_total", "Compiled-plan cache lookups by result"
        )
        registry.counter(
            "repro_policy_bitmap_total",
            "Policy bitmaps reused (event=hit), revalidated for another "
            "table version (event=revalidated) or built (event=built) by "
            "hoisted guards",
        )
        registry.counter(
            "repro_epoch_invalidations_total",
            "Cached plans purged because the policy epoch moved",
        )
        registry.counter(
            "repro_index_total",
            "Secondary-index activity: probes (event=hit), entries "
            "revalidated for another table version (event=carried_forward) "
            "or rebuilt (event=rebuild)",
        )
        registry.counter(
            "repro_audit_records_total", "Records written to the audit log"
        )
        registry.counter(
            "repro_explain_total",
            "EXPLAIN requests (never counted as data access)",
        )
        registry.counter(
            "repro_txn_total",
            "Transaction lifecycle by outcome (outcome=begin|commit|"
            "rollback|conflict)",
        )
        registry.gauge(
            "repro_catalog_version",
            "Current version of the database's versioned catalog",
        )
        registry.gauge(
            "repro_active_snapshots",
            "Snapshots currently pinned by open transactions",
        )
        registry.counter(
            "repro_wal_total",
            "Write-ahead-log activity (event=append|sync|checkpoint)",
        )
        registry.counter(
            "repro_wal_bytes_total",
            "Write-ahead-log bytes by the costliest row effect a record "
            "carries (op=append|delta|replace); replace is the whole-table "
            "fallback",
        )
        registry.histogram(
            "repro_query_seconds", "End-to-end enforced execution latency"
        )
        registry.histogram(
            "repro_stage_seconds",
            "Per-stage pipeline latency (tracing-enabled executions only)",
        )
        self.metrics = registry
        self._set_catalog_gauges()

    def set_tracing(self, enabled: bool) -> None:
        """Turn per-execution span recording on or off.

        Off (the default) is the fast path: executions carry no trace, the
        engine skips its row-counting hooks entirely, and results are
        byte-identical to an instrumented run.
        """
        self.tracing_enabled = bool(enabled)

    def set_optimizer(self, mode: str | None) -> None:
        """Switch the plan-rewrite mode for *future* compilations.

        ``"on"`` (or ``None``) runs the full pass pipeline (guard
        hoisting, access paths, pruning, folding); ``"off"`` is the paper's
        per-row ``complieswith`` pipeline (Fig. 6).  Plan-cache keys embed
        the mode, so already-compiled plans of the other mode stay cached
        and are simply not hit while this mode is active.
        """
        self.optimizer_mode = resolve_optimizer_mode(mode)

    def clear_policy_bitmaps(self) -> None:
        """Drop the engine's cached policy bitmaps (counters are kept)."""
        self.database.policy_bitmaps.clear()

    def _begin_trace(self) -> Trace:
        return Trace() if self.tracing_enabled else NULL_TRACE

    def _count_query(self, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("repro_queries_total").inc(outcome=outcome)

    def record_audit(
        self,
        user: str | None,
        purpose: str,
        query_id: str,
        statement: str,
        outcome: str,
        rows: int = 0,
        checks: int = 0,
        route: str = "",
    ) -> None:
        """Write one audit record, if a log is attached.

        Every execution path of this monitor ends here; so does a shard
        coordinator, which audits a scattered statement once, under the
        ``route`` it took (shard-side executions are not audited).
        """
        if self.audit is not None:
            # Audit rows are written outside any ambient transaction: the
            # record of an attempt must survive even when the transaction
            # that made it rolls back (and must never be staged).
            with txn_scope(None):
                self.audit.record(
                    user, purpose, query_id, statement, outcome, rows, checks,
                    route,
                )
            if self.metrics is not None:
                self.metrics.counter("repro_audit_records_total").inc()

    @property
    def database(self) -> Database:
        """The secured target database."""
        return self.admin.database

    def _current_epoch(self) -> int:
        """The policy epoch queries are enforced under *right now*.

        Inside a transaction this is the snapshot's epoch, not the admin's
        live epoch: a reader that began before a policy update keeps
        compiling and hitting plans for its snapshot's policy state
        (DESIGN.md §15).
        """
        txn = current_transaction(self.database.transactions)
        if txn is not None:
            return txn.snapshot.catalog_version
        return self.admin.policy_epoch

    # -- pipeline pieces ------------------------------------------------------------

    def derive_signature(self, query: str | ast.Select, purpose: str) -> QuerySignature:
        """Derive the query signature for an access purpose."""
        self.admin.purposes.get(purpose)  # validates the purpose id
        return self.deriver.derive(query, purpose)

    def rewrite(self, query: str | ast.Select, purpose: str) -> ast.Select:
        """Derive the signature and rewrite the query (no execution)."""
        select = parse_select(query) if isinstance(query, str) else query
        signature = self.derive_signature(select, purpose)
        return rewrite_query(select, signature, self.admin)

    def rewrite_sql(self, query: str | ast.Select, purpose: str) -> str:
        """The rewritten query as SQL text (Listing 3's output)."""
        return print_select(self.rewrite(query, purpose))

    # -- prepared pipeline -----------------------------------------------------------

    def _resolve(
        self, query, allow_set_ops: bool = False
    ) -> "tuple[ast.Select | ast.SetOperation, str, str | None]":
        """Parse (memoized) and identify a query.

        Returns ``(statement, query_id, text)``; ``text`` is the raw SQL
        exactly as the caller wrote it (used in reports and audit records)
        and ``None`` for AST inputs.  The memo is keyed by the raw text and
        holds only policy-independent results, so it never needs epoch
        invalidation; the query id hashes the *printed* form, making it
        stable across formatting variants of the same statement.
        """
        if isinstance(query, str):
            with self._cache_lock:
                cached = self._parse_memo.get(query)
                if cached is None:
                    statement = parse_statement(query)
                    if not isinstance(statement, (ast.Select, ast.SetOperation)):
                        raise ParseError(
                            "expected a SELECT statement, got "
                            f"{type(statement).__name__}"
                        )
                    cached = (statement, compute_query_id(to_sql(statement)))
                    self._parse_memo[query] = cached
                    if len(self._parse_memo) > self.parse_cache_size:
                        self._parse_memo.popitem(last=False)
                else:
                    self._parse_memo.move_to_end(query)
            statement, qid = cached
            text: str | None = query
        else:
            statement, text = query, None
            qid = compute_query_id(to_sql(statement))
        if not allow_set_ops and not isinstance(statement, ast.Select):
            raise ParseError(
                f"expected a SELECT statement, got {type(statement).__name__}"
            )
        return statement, qid, text

    def _compiled_plan(
        self,
        statement: "ast.Select | ast.SetOperation",
        qid: str,
        purpose: str,
    ) -> tuple[CompiledEnforcedPlan, bool]:
        """The compiled plan for ⟨query, purpose⟩ at the current epoch.

        Returns ``(plan, cache_hit)``.  On a miss the full pipeline runs —
        signature derivation, rewriting, printing, engine planning — and
        the result is cached under ⟨query id, purpose, epoch, optimizer
        mode⟩ with LRU eviction beyond :attr:`plan_cache_size`.
        """
        with self._cache_lock:
            epoch = self._current_epoch()
            mode = self.optimizer_mode
            key = (qid, purpose, epoch, mode)
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                self.cache_hits += 1
                return plan, True
            self.cache_misses += 1
            self.admin.purposes.get(purpose)  # validates the purpose id
            if isinstance(statement, ast.SetOperation):
                signature = None
                rewritten: "ast.Select | ast.SetOperation" = (
                    self._rewrite_set_operation(statement, purpose)
                )
            else:
                signature = self.deriver.derive(statement, purpose)
                rewritten = rewrite_query(statement, signature, self.admin)
            plan = CompiledEnforcedPlan(
                query_id=qid,
                purpose=purpose,
                epoch=epoch,
                optimizer=mode,
                original_sql=to_sql(statement),
                statement=statement,
                rewritten=rewritten,
                rewritten_sql=to_sql(rewritten),
                signature=signature,
                plan=self.database.prepare(
                    rewritten, optimizer=mode, batch_size=self.batch_size
                ),
            )
            # Keys embed the current epoch, so entries compiled under earlier
            # epochs can never be hit again — drop them before LRU eviction
            # starts pushing out live plans.  Epochs still pinned by an
            # active snapshot are kept: their readers can (and should) keep
            # hitting the plans compiled for their policy state.
            pinned = self.database.transactions.pinned_catalog_versions()
            live_epoch = self.admin.policy_epoch
            stale_keys = [
                k
                for k in self._plan_cache
                if k[2] != epoch and k[2] != live_epoch and k[2] not in pinned
            ]
            for stale in stale_keys:
                del self._plan_cache[stale]
            if stale_keys and self.metrics is not None:
                self.metrics.counter("repro_epoch_invalidations_total").inc(
                    len(stale_keys)
                )
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
            return plan, False

    def _rewrite_set_operation(
        self, node: "ast.Select | ast.SetOperation", purpose: str
    ) -> "ast.Select | ast.SetOperation":
        """Rewrite a UNION/INTERSECT/EXCEPT chain branch by branch.

        Each SELECT branch is its own query block: it gets its own
        signature and its own ``complieswith`` conjuncts, then the engine
        combines the branch results with set semantics.
        """
        import dataclasses

        if isinstance(node, ast.SetOperation):
            return dataclasses.replace(
                node,
                left=self._rewrite_set_operation(node.left, purpose),
                right=self._rewrite_set_operation(node.right, purpose),
            )
        signature = self.deriver.derive(node, purpose)
        return rewrite_query(node, signature, self.admin)

    def prepare(self, query, purpose: str) -> PreparedEnforcedQuery:
        """Parse, sign, rewrite and plan a query once for repeated execution.

        The returned handle's :meth:`~PreparedEnforcedQuery.execute` binds
        parameter values (``?`` / ``$n`` / ``:name`` placeholders) at
        execution time; as long as policies are unchanged, repeated
        executions skip the whole enforcement pipeline and replay the
        compiled plan against current table contents.
        """
        self.admin.require_configured()
        statement, qid, text = self._resolve(query, allow_set_ops=True)
        self._compiled_plan(statement, qid, purpose)  # compile eagerly
        return PreparedEnforcedQuery(self, statement, qid, purpose, text)

    def _run_cached(
        self,
        statement: "ast.Select | ast.SetOperation",
        qid: str,
        purpose: str,
        user: str | None,
        params,
        text: str | None = None,
        trace: "Trace | None" = None,
    ) -> EnforcementReport:
        """Authorize, fetch the compiled plan, execute, audit — the one
        execution path shared by plain/prepared/set-operation entry points.

        ``trace`` lets :meth:`execute_with_report` (which already opened a
        ``parse`` span) and :meth:`explain` thread their trace through;
        other callers get a fresh one (the no-op trace when tracing is
        disabled, so the span bookkeeping below costs nothing).
        """
        self.admin.require_configured()
        started = time.perf_counter() if self.metrics is not None else 0.0
        if trace is None:
            trace = self._begin_trace()
        if user is not None and not self.authorizer.is_authorized(user, purpose):
            self.record_audit(
                user,
                purpose,
                qid,
                text if text is not None else to_sql(statement),
                "denied",
            )
            self._count_query("denied")
            raise UnauthorizedPurposeError(user, purpose)
        with trace.span("plan") as plan_span:
            plan, hit = self._compiled_plan(statement, qid, purpose)
            plan_span.annotate(cache_hit=hit, nodes=plan.plan.plan_summary())
        original_sql = text if text is not None else plan.original_sql

        database = self.admin.database
        memo_before = self.admin.compliance_memo_info()["hits"]
        checks_before = database.function_calls(COMPLIES_WITH)
        bitmap_before = database.policy_bitmaps.stats()
        index_before = database.indexes.stats()
        with trace.span("execute") as execute_span:
            try:
                result = database.execute_prepared(
                    plan.plan, params, trace=trace if trace.enabled else None
                )
            except Exception:
                self._count_query("error")
                raise
        checks = database.function_calls(COMPLIES_WITH) - checks_before
        memo_hits = self.admin.compliance_memo_info()["hits"] - memo_before
        bitmap_after = database.policy_bitmaps.stats()
        bitmap_events = {
            event: bitmap_after[event] - bitmap_before[event]
            for event in ("hits", "built", "revalidated")
        }
        index_after = database.indexes.stats()
        index_events = {
            event: index_after[key] - index_before[key]
            for event, key in (
                ("hit", "hits"),
                ("rebuild", "rebuilds"),
                ("carried_forward", "carried_forward"),
            )
        }
        execute_span.annotate(
            rows=len(result), checks=checks, memo_hits=memo_hits
        )

        self.record_audit(
            user, purpose, qid, original_sql, "allowed",
            rows=len(result), checks=checks,
        )
        self._count_query("ok")
        if self.metrics is not None:
            metrics = self.metrics
            metrics.counter("repro_complieswith_total").inc(checks)
            metrics.counter("repro_complieswith_memo_hits_total").inc(memo_hits)
            for event, key in (
                ("hit", "hits"), ("revalidated", "revalidated"), ("built", "built")
            ):
                if bitmap_events[key]:
                    metrics.counter("repro_policy_bitmap_total").inc(
                        bitmap_events[key], event=event
                    )
            for event, delta in index_events.items():
                if delta:
                    metrics.counter("repro_index_total").inc(delta, event=event)
            metrics.counter("repro_plan_cache_total").inc(
                result="hit" if hit else "miss"
            )
            metrics.histogram("repro_query_seconds").observe(
                time.perf_counter() - started
            )
            if trace.enabled:
                stage_histogram = metrics.histogram("repro_stage_seconds")
                for stage, seconds in trace.stage_seconds().items():
                    stage_histogram.observe(seconds, stage=stage)
        return EnforcementReport(
            original_sql=original_sql,
            rewritten_sql=plan.rewritten_sql,
            purpose=purpose,
            signature=plan.signature,
            result=result,
            compliance_checks=checks,
            cache_hit=hit,
            memo_hits=memo_hits,
            bitmap_built=bitmap_events["built"],
            bitmap_revalidated=bitmap_events["revalidated"],
            bitmap_hits=bitmap_events["hits"],
            index_hits=index_events["hit"],
            trace=trace if trace.enabled else None,
        )

    # -- cache instrumentation ---------------------------------------------------------

    def plan_cache_info(self) -> dict:
        """Hit/miss counters and current occupancy of the plan cache."""
        with self._cache_lock:
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "size": len(self._plan_cache),
                "maxsize": self.plan_cache_size,
                "epoch": self.admin.policy_epoch,
                "optimizer": self.optimizer_mode,
                "batch_size": self.batch_size,
            }

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and parse results (counters are kept)."""
        with self._cache_lock:
            self._plan_cache.clear()
            self._parse_memo.clear()

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        query: str | ast.Select,
        purpose: str,
        user: str | None = None,
        params=None,
    ) -> ResultSet:
        """Enforce and run a query; returns the policy-filtered result set."""
        return self.execute_with_report(query, purpose, user, params=params).result

    def execute_with_report(
        self,
        query: str | ast.Select,
        purpose: str,
        user: str | None = None,
        params=None,
    ) -> EnforcementReport:
        """Like :meth:`execute` but returns the full enforcement report.

        The report includes the number of ``complieswith`` invocations the
        execution performed — the complexity metric of Figure 6 — and
        whether the compiled plan came from the cache.  Set-operation chains
        (UNION/INTERSECT/EXCEPT) take the same cached path, each branch
        enforced with its own signature.
        """
        self.admin.require_configured()
        trace = self._begin_trace()
        with trace.span("parse"):
            statement, qid, text = self._resolve(query, allow_set_ops=True)
        return self._run_cached(
            statement, qid, purpose, user, params, text, trace=trace
        )

    def explain(
        self,
        query: "str | ast.Select | ast.SetOperation",
        purpose: str,
        user: str | None = None,
        params=None,
        analyze: bool = False,
    ) -> ResultSet:
        """EXPLAIN [ANALYZE] an enforced query: one ``plan`` column of text.

        Plain EXPLAIN compiles (or fetches) the enforced plan without
        executing anything; ANALYZE executes under a forced trace and
        annotates every plan node with the rows it produced, plus execution
        and per-stage timing summary lines.  Either way the request is
        audited with outcome ``explain`` and counted under
        ``repro_explain_total`` — never as data access, so plan inspection
        cannot skew the Figure-6 accounting (``repro_queries_total``,
        ``repro_complieswith_total``) the tests pin down.
        """
        self.admin.require_configured()
        statement, qid, text = self._resolve(query, allow_set_ops=True)
        original_sql = text if text is not None else to_sql(statement)
        if user is not None and not self.authorizer.is_authorized(user, purpose):
            self.record_audit(user, purpose, qid, original_sql, "denied")
            raise UnauthorizedPurposeError(user, purpose)
        plan, hit = self._compiled_plan(statement, qid, purpose)

        lines = [f"rewritten: {plan.rewritten_sql}"]
        lines.append(f"Optimizer: mode={plan.optimizer}")
        lines.extend(f"  {note}" for note in plan.plan.optimizer_notes())
        lines.append(
            f"Executor: batch_size={plan.plan.batch_size}"
        )
        txn = current_transaction(self.database.transactions)
        if txn is not None and not txn.ephemeral:
            lines.append(
                f"Snapshot: ts={txn.snapshot.ts} "
                f"catalog={txn.snapshot.catalog_version} txn={txn.txn_id}"
            )
        else:
            # No transaction, or a per-statement read snapshot (which by
            # construction sees the latest committed state).
            lines.append(f"Snapshot: latest catalog={plan.epoch}")
        lines.append("Logical:")
        lines.extend(f"  {line}" for line in plan.plan.logical_lines())
        rows = checks = memo_hits = 0
        if analyze:
            trace = Trace()
            database = self.admin.database
            memo_before = self.admin.compliance_memo_info()["hits"]
            checks_before = database.function_calls(COMPLIES_WITH)
            bitmap_before = database.policy_bitmaps.stats()
            index_before = database.indexes.stats()
            with trace.span("execute"):
                result = database.execute_prepared(plan.plan, params, trace=trace)
            checks = database.function_calls(COMPLIES_WITH) - checks_before
            memo_hits = self.admin.compliance_memo_info()["hits"] - memo_before
            bitmap_after = database.policy_bitmaps.stats()
            index_after = database.indexes.stats()
            rows = len(result)
            lines.extend(plan.plan.describe_arms(annotate=trace.annotation))
            lines.append(
                f"Execution: rows={rows} checks={checks} "
                f"memo_hits={memo_hits} cache_hit={str(hit).lower()} "
                f"bitmap_built={bitmap_after['built'] - bitmap_before['built']} "
                f"bitmap_revalidated="
                f"{bitmap_after['revalidated'] - bitmap_before['revalidated']} "
                f"bitmap_hits={bitmap_after['hits'] - bitmap_before['hits']} "
                f"index_hits={index_after['hits'] - index_before['hits']}"
            )
            stages = " ".join(
                f"{stage}={seconds * 1000:.3f}ms"
                for stage, seconds in trace.stage_seconds().items()
            )
            lines.append(f"Timing: {stages}")
        else:
            lines.extend(plan.plan.describe_arms())

        self.record_audit(
            user, purpose, qid, original_sql, "explain", rows=rows, checks=checks
        )
        if self.metrics is not None:
            self.metrics.counter("repro_explain_total").inc(
                analyze="true" if analyze else "false"
            )
        return ResultSet(("plan",), [(line,) for line in lines])

    def execute_statement(
        self,
        sql: "str | ast.Statement",
        purpose: str,
        user: str | None = None,
    ) -> ResultSet | int:
        """Enforce and run any SELECT or DML statement.

        SELECT returns the filtered :class:`ResultSet`; UPDATE/DELETE have
        their read-side (WHERE predicate, SET expressions) checked and only
        touch policy-compliant tuples, returning the affected-row count;
        ``INSERT ... SELECT`` enforces the source query.  DDL is rejected —
        schema changes go through the administration modules.
        """
        from ..errors import AccessControlError
        from .dml import rewrite_statement

        statement = parse_statement(sql) if isinstance(sql, str) else sql
        text = sql if isinstance(sql, str) else None
        if isinstance(statement, ast.Explain):
            return self.explain(
                statement.statement, purpose, user=user, analyze=statement.analyze
            )
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return self.execute_txn_control(statement)
        if isinstance(statement, ast.Select):
            return self.execute(statement if text is None else text, purpose, user)
        if isinstance(statement, ast.SetOperation):
            return self._execute_set_operation(statement, purpose, user, text)
        if not isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            raise AccessControlError(
                "DDL statements are not executable through the monitor"
            )
        self.admin.require_configured()
        original_sql = text if text is not None else to_sql(statement)
        statement_id = compute_query_id(original_sql)
        if user is not None and not self.authorizer.is_authorized(user, purpose):
            self.record_audit(user, purpose, statement_id, original_sql, "denied")
            self._count_query("denied")
            raise UnauthorizedPurposeError(user, purpose)
        self.admin.purposes.get(purpose)
        rewritten = rewrite_statement(statement, purpose, self.deriver, self.admin)
        database = self.admin.database
        checks_before = database.function_calls(COMPLIES_WITH)
        affected = database.execute(rewritten)
        checks = database.function_calls(COMPLIES_WITH) - checks_before
        self.record_audit(
            user, purpose, statement_id, original_sql, "allowed",
            rows=affected, checks=checks,
        )
        self._count_query("ok")
        if self.metrics is not None:
            self.metrics.counter("repro_complieswith_total").inc(checks)
        return affected

    def execute_txn_control(self, statement: "ast.Begin | ast.Commit | ast.Rollback") -> int:
        """Run BEGIN/COMMIT/ROLLBACK against the context's transaction state.

        Transaction control is not a data access: it is never enforced or
        audited, only counted (``repro_txn_total``).  A COMMIT that loses
        first-committer-wins validation raises
        :class:`~repro.errors.WriteConflictError` after counting the
        conflict.
        """
        from ..errors import WriteConflictError

        database = self.admin.database
        if isinstance(statement, ast.Begin):
            database.begin()
            self._count_txn("begin")
            return 0
        if isinstance(statement, ast.Commit):
            try:
                database.commit()
            except WriteConflictError:
                self._count_txn("conflict")
                raise
            self._count_txn("commit")
            return 0
        database.rollback()
        self._count_txn("rollback")
        return 0

    def _count_txn(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("repro_txn_total").inc(outcome=event)
            self._set_catalog_gauges()

    def _set_catalog_gauges(self) -> None:
        """Refresh the catalog-version and active-snapshot gauges."""
        if self.metrics is None:
            return
        database = self.admin.database
        self.metrics.gauge("repro_catalog_version").set(
            database.catalog.version
        )
        self.metrics.gauge("repro_active_snapshots").set(
            database.transactions.active_count()
        )

    def _execute_set_operation(
        self,
        statement: ast.SetOperation,
        purpose: str,
        user: str | None,
        text: str | None = None,
        params=None,
    ) -> ResultSet:
        """Enforce a UNION/INTERSECT/EXCEPT chain through the cached path.

        Goes through the same :meth:`_run_cached` as plain SELECTs, so the
        execution is audited and its ``complieswith`` invocations counted
        like every other enforced query.
        """
        self.admin.require_configured()
        statement, qid, resolved_text = (
            self._resolve(text, allow_set_ops=True)
            if text is not None
            else (statement, compute_query_id(to_sql(statement)), None)
        )
        return self._run_cached(
            statement, qid, purpose, user, params, resolved_text
        ).result

    def execute_unprotected(self, query: str | ast.Select) -> ResultSet:
        """Run the *original* query, bypassing enforcement.

        Used by the benchmarks to measure the baseline execution time the
        paper's figures compare against.
        """
        select = parse_select(query) if isinstance(query, str) else query
        return self.admin.database.query(select)
