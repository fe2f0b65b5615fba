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
categorization or purpose-set change transparently forces a fresh rewrite
— a prepared query can never replay a plan compiled under a taxonomy that
no longer holds.  Stored policy masks are not in a plan: its guards read
them at run time, so a cached plan enforces a mask stored after it
compiled.

Every execution charges a fresh cost ledger that the monitor reads back for
its report, audit record and metrics, however many run beside it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

from ..engine import (
    Database,
    ResultSet,
    current_transaction,
    resolve_batch_size,
    resolve_optimizer_mode,
    txn_scope,
)
from ..engine.database import PreparedQuery, bind_parameters
from ..errors import ParseError, UnauthorizedPurposeError
from ..obs.tracing import NULL_TRACE, Trace
from ..sql import ast, parse_select, parse_statement, tokenize
from ..sql.printer import bound_literals, print_select, to_sql
from ..sql.shape import parameterize
from .admin import AccessControlManager, COMPLIES_WITH
from .query_model import query_id as compute_query_id
from .rewriter import rewrite_query
from .signatures import QuerySignature, SignatureDeriver


#: The most entries each parse memo (text → resolved, shape → parsed) keeps.
PARSE_CACHE_SIZE = 256
#: The metric family each ledger event family is counted under.
_EVENT_FAMILIES = {"bitmap": "repro_policy_bitmap_total", "index": "repro_index_total"}


@dataclass
class EnforcementReport:
    """Everything observable about one monitored execution.

    ``costs`` is the execution's own ledger: its ``complieswith`` calls
    (``compliance_checks``), ``memo.*``, ``bitmap.*`` and ``index.*``
    events, whatever ran beside it.  ``trace`` is the execution's recorded
    :class:`~repro.obs.tracing.Trace` when the monitor has tracing enabled
    (``None`` otherwise — disabled tracing records nothing).
    ``rewritten_sql`` is printed when read.
    """

    original_sql: str
    purpose: str
    signature: QuerySignature | None
    result: ResultSet
    compliance_checks: int
    cache_hit: bool = False
    costs: Counter = field(default_factory=Counter)
    trace: "object | None" = None
    resolved: "Resolved | None" = field(default=None, repr=False)
    plan: "CompiledEnforcedPlan | None" = field(default=None, repr=False)

    @property
    def rewritten_sql(self) -> str:
        """The enforced SQL that ran, with the caller's literals."""
        return self.plan.rewritten_for(self.resolved)


class Resolved(NamedTuple):
    """A query as compiled — the *shape* (:mod:`repro.sql.shape`), its lifted
    ``values`` and the ``shape_id`` keying the plan cache — and as written:
    ``query_id`` and raw ``text`` (``None`` for an AST, its own shape)."""

    statement: "ast.Select | ast.SetOperation"
    shape_id: str
    query_id: str
    values: tuple
    text: str | None

    def bindings(self, params):
        """What a run binds: the lifted values, if any (the caller's text has
        no placeholder, so ``params`` is only checked), else ``params``."""
        if not self.values:
            return params
        bind_parameters(params, ())
        return self.values

    def printed(self, node) -> str:
        """``node`` (the shape or a tree compiled from it) as the caller's SQL."""
        with bound_literals(self.values):
            return to_sql(node)


@dataclass(frozen=True)
class CompiledEnforcedPlan:
    """One plan-cache entry: everything derived from ⟨shape, purpose⟩.

    Valid exactly as long as the policy epoch it was compiled under; the
    cache key embeds :attr:`epoch`, so entries from older epochs simply
    stop being found, and the LRU bound evicts them like any other.

    ``signature`` is ``None`` for set-operation chains, where each SELECT
    branch carries its own signature inside the rewritten tree.  Every
    field is the shape's: ``query_id`` is its shape id.
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

    def rewritten_for(self, resolved: Resolved) -> str:
        """:attr:`rewritten_sql` with ``resolved``'s lifted literals."""
        if not resolved.values:
            return self.rewritten_sql
        return resolved.printed(self.rewritten)


class PreparedEnforcedQuery:
    """A ⟨query, purpose⟩ pair prepared for repeated enforced execution.

    The handle itself stores no compiled state: every :meth:`execute`
    resolves the current plan through the monitor's epoch-keyed cache.  As
    long as policies are unchanged that is a dictionary hit replaying the
    compiled plan (no parsing, signature derivation or rewriting); after a
    categorization or purpose-set change the epoch has moved and the next
    execution recompiles against the new state.
    """

    def __init__(
        self, monitor: "EnforcementMonitor", resolved: Resolved, purpose: str
    ):
        self.monitor = monitor
        self.resolved = resolved
        self.statement = resolved.statement
        self.query_id = resolved.query_id
        self.purpose = purpose
        self.original_sql = resolved.text

    @property
    def plan(self) -> CompiledEnforcedPlan:
        """The currently valid compiled plan (recompiled if the epoch moved)."""
        plan, _ = self.monitor._compiled_plan(self.resolved, self.purpose)
        return plan

    @property
    def rewritten_sql(self) -> str:
        """The enforced SQL the next execution will run."""
        return self.plan.rewritten_for(self.resolved)

    @property
    def signature(self) -> QuerySignature | None:
        """The query signature (None for set-operation chains)."""
        return self.plan.signature

    @property
    def parameters(self) -> "list[ast.Parameter]":
        """The placeholders the caller's text declares, in binding order
        (none when its literals were lifted: the shape's are bound here)."""
        return [] if self.resolved.values else self.plan.plan.parameters

    def execute(self, params=None, user: str | None = None) -> ResultSet:
        """Run the prepared query under ``params``; returns filtered rows."""
        return self.execute_with_report(params=params, user=user).result

    def execute_with_report(
        self, params=None, user: str | None = None
    ) -> EnforcementReport:
        """Run the prepared query and return the full enforcement report."""
        return self.monitor._run_cached(self.resolved, self.purpose, user, params)


class EnforcementMonitor:
    """Rewrites and executes queries under the access-control policies.

    ``authorizer`` decides user-purpose authorization; it defaults to the
    admin's direct Pa check and can be replaced with a
    :class:`~repro.core.roles.RoleManager` to get role-based authorization
    (the paper's future-work item 3).

    Every SQL text compiles as its *shape* (:mod:`repro.sql.shape`), so
    texts that differ only in ``column = literal`` operands share one plan
    and run with their own values bound; reports, EXPLAIN lines and audit
    records print those values and read as for the literal text.

    ``plan_cache_size`` bounds the compiled-plan LRU cache (keyed by
    ⟨shape id, purpose, policy epoch, optimizer mode⟩);
    :data:`PARSE_CACHE_SIZE` bounds each policy-independent memo in front
    of it: raw text → :class:`Resolved`, and shape → parsed shape.

    The caches and their counters are lock-guarded, so one monitor can serve
    many threads (the :mod:`repro.server` deployment): cache hits and plan
    compilation serialize on the monitor's lock, while the executions
    themselves run outside it.  Writers are ordered by the engine: an
    autocommit DML statement reads and commits under the transaction
    manager's write fence, so concurrent statements lose no committed
    write.  An admin batch that must look atomic to readers (several
    policy stores) holds that fence itself
    (:meth:`~repro.engine.mvcc.TransactionManager.exclusive`); the monitor
    never takes the fence while holding its own lock.
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
        plan_cache_size: int = 32,
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
        self._plan_cache: "OrderedDict[tuple, CompiledEnforcedPlan]" = (
            OrderedDict()
        )
        self._text_memo: "OrderedDict[str, Resolved]" = OrderedDict()
        self._shape_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        # Guards the OrderedDict caches and the hit/miss counters: their
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
        parses = registry.counter(
            "repro_parse_total", "SQL texts by result: repeated (text_hit), "
            "of a known shape (shape_hit) or parsed (miss)",
        )
        for result in ("text_hit", "shape_hit", "miss"):
            parses.inc(0, result=result)
        registry.counter(
            "repro_policy_bitmap_total",
            "Hoisted guards' per-mask verdict maps reused (event=hit) or "
            "built from nothing (event=built); policy posting indexes "
            "carried to another row list (event=revalidated) or built "
            "by a full pass over a table's rows (event=row_pass)",
        )
        registry.counter(
            "repro_index_total",
            "Secondary-index activity: probes (event=hit), entries "
            "carried to another row list (event=carried_forward) "
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

    def _count_query(self, outcome: str, spent: "Counter | None" = None) -> None:
        """Count one data-access statement and, if it ran, its ledger."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter("repro_queries_total").inc(outcome=outcome)
        if spent is None:
            return
        metrics.counter("repro_complieswith_total").inc(spent[COMPLIES_WITH])
        metrics.counter("repro_complieswith_memo_hits_total").inc(spent["memo.hit"])
        for key, count in spent.items():
            family, _, event = key.partition(".")
            if count and event and family in _EVENT_FAMILIES:
                metrics.counter(_EVENT_FAMILIES[family]).inc(count, event=event)

    def _authorize(self, user, purpose, qid, statement, text, counted=True) -> None:
        """Raise :class:`UnauthorizedPurposeError` unless ``user`` (if any)
        may act for ``purpose``: a denial is audited under the caller's raw
        SQL and counted, unless it is an EXPLAIN's (``counted=False``)."""
        if user is None or self.authorizer.is_authorized(user, purpose):
            return
        sql = text if text is not None else to_sql(statement)
        self.record_audit(user, purpose, qid, sql, "denied")
        if counted:
            self._count_query("denied")
        raise UnauthorizedPurposeError(user, purpose)

    def record_audit(
        self,
        user: str | None,
        purpose: str,
        query_id: str,
        statement: str,
        outcome: str,
        rows: int = 0,
        checks: int = 0,
    ) -> None:
        """Write one audit record, if a log is attached.

        Every execution path of this monitor ends here; so does a shard
        coordinator, which audits a scattered statement once (shard-side
        executions are not audited).
        """
        if self.audit is not None:
            # Audit rows are written outside any ambient transaction: the
            # record of an attempt must survive even when the transaction
            # that made it rolls back (and must never be staged).
            with txn_scope(None):
                self.audit.record(
                    user, purpose, query_id, statement, outcome, rows, checks
                )
            if self.metrics is not None:
                self.metrics.counter("repro_audit_records_total").inc()

    @property
    def database(self) -> Database:
        """The secured target database."""
        return self.admin.database

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

    def _resolve(self, query) -> Resolved:
        """Map a query to the shape the monitor compiles (:class:`Resolved`).

        A repeated text is one hit in the raw-text memo; a new one is
        tokenized and parameterized, and a hit in the shape memo (keyed on
        the shape's tokens) spares the parse.  Both memos are
        policy-independent.  The caller's query id hashes the shape printed
        with its values: the text's printed form, stable across formatting.
        An AST input is the one unnormalized path.
        """
        if isinstance(query, str):
            resolved = self._lookup(query)
        else:
            qid = compute_query_id(to_sql(query))
            resolved = Resolved(query, qid, qid, (), None)
        if not isinstance(resolved.statement, (ast.Select, ast.SetOperation)):
            raise ParseError(
                "expected a SELECT statement, got "
                f"{type(resolved.statement).__name__}"
            )
        return resolved

    def parse(self, sql: str) -> ast.Statement:
        """Parse a statement of any kind; a SELECT resolves through the
        memos (as its shape), so running the same text next parses nothing."""
        return self._lookup(sql).statement

    def _lookup(self, text: str) -> Resolved:
        """The memo side of :meth:`_resolve`.  Only memo reads and writes
        hold the cache lock: tokenizing, parsing and printing run outside
        it.  A statement other than a SELECT is parsed and remembered
        nowhere, with no id: the monitor compiles only SELECTs."""
        resolved = self._recall(self._text_memo, text)
        if resolved is not None:
            self._count_parse("text_hit")
            return resolved
        tokens, values = parameterize(tokenize(text))
        if not tokens[0].is_keyword("SELECT"):
            self._count_parse("miss")
            return Resolved(parse_statement(tokens), "", "", (), text)
        key = tuple(token[:2] for token in tokens)
        shape = self._recall(self._shape_memo, key)
        self._count_parse("miss" if shape is None else "shape_hit")
        if shape is None:
            statement = parse_statement(tokens)
            shape = (statement, compute_query_id(to_sql(statement)))
            self._remember(self._shape_memo, key, shape)
        statement, shape_id = shape
        resolved = Resolved(statement, shape_id, shape_id, values, text)
        if values:
            resolved = resolved._replace(
                query_id=compute_query_id(resolved.printed(statement))
            )
        return self._remember(self._text_memo, text, resolved)

    def _recall(self, memo: OrderedDict, key):
        with self._cache_lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
            return value

    def _remember(self, memo: OrderedDict, key, value):
        with self._cache_lock:
            memo[key] = value
            if len(memo) > PARSE_CACHE_SIZE:
                memo.popitem(last=False)
        return value

    def _count_parse(self, result: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("repro_parse_total").inc(result=result)

    def _compiled_plan(
        self, resolved: Resolved, purpose: str
    ) -> tuple[CompiledEnforcedPlan, bool]:
        """The compiled plan for ⟨shape, purpose⟩ at the current epoch.

        Returns ``(plan, cache_hit)``.  On a miss the full pipeline runs —
        signature derivation, rewriting, printing, engine planning — and
        the result is cached under ⟨shape id, purpose, epoch, optimizer
        mode⟩ with LRU eviction beyond :attr:`plan_cache_size`.  A
        transaction that staged DDL or a taxonomy edit compiles against
        state no other reader at its epoch sees: its plans bypass the cache.
        """
        statement, qid = resolved.statement, resolved.shape_id
        transactions = self.database.transactions
        txn = current_transaction(transactions)
        private = txn is not None and txn.stages_catalog()
        with self._cache_lock:
            # A reader pinned before a taxonomy edit keeps compiling and
            # hitting plans for its snapshot's taxonomy (DESIGN.md §15).
            epoch = transactions.visible_catalog_version()
            mode = self.optimizer_mode
            key = (qid, purpose, epoch, mode)
            plan = None if private else self._plan_cache.get(key)
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
            if not private:
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
        resolved = self._resolve(query)
        self._compiled_plan(resolved, purpose)  # compile eagerly
        return PreparedEnforcedQuery(self, resolved, purpose)

    def _run_cached(
        self,
        resolved: Resolved,
        purpose: str,
        user: str | None,
        params,
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
        qid = resolved.query_id
        self._authorize(user, purpose, qid, resolved.statement, resolved.text)
        with trace.span("plan") as plan_span:
            plan, hit = self._compiled_plan(resolved, purpose)
            if trace.enabled:
                plan_span.annotate(cache_hit=hit, nodes=plan.plan.plan_summary())
        original_sql = resolved.text or plan.original_sql
        params = resolved.bindings(params)

        with trace.span("execute") as execute_span:
            try:
                result, spent = self._execute_counted(
                    plan.plan, params, trace if trace.enabled else None
                )
            except Exception:
                self._count_query("error")
                raise
        checks, memo_hits = spent[COMPLIES_WITH], spent["memo.hit"]
        execute_span.annotate(rows=len(result), checks=checks, memo_hits=memo_hits)

        self.record_audit(
            user, purpose, qid, original_sql, "allowed",
            rows=len(result), checks=checks,
        )
        self._count_query("ok", spent)
        if self.metrics is not None:
            metrics = self.metrics
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
            purpose=purpose,
            signature=plan.signature,
            result=result,
            compliance_checks=checks,
            cache_hit=hit,
            costs=spent,
            trace=trace if trace.enabled else None,
            resolved=resolved,
            plan=plan,
        )

    def _execute_counted(self, plan, params, trace) -> "tuple[ResultSet, Counter]":
        """Run a compiled plan; returns its result and its own ledger, what
        the run cost — shared by every execution and EXPLAIN ANALYZE."""
        with self.database.cost_total.ledger(None) as spent:
            result = self.database.execute_prepared(
                plan, params, trace=trace, costs=spent
            )
        return result, spent

    # -- cache instrumentation ---------------------------------------------------------

    def plan_cache_info(self) -> dict:
        """Hit/miss counters and occupancy of the plan cache and its memos."""
        with self._cache_lock:
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "size": len(self._plan_cache),
                "shapes": len(self._shape_memo),
                "texts": len(self._text_memo),
                "maxsize": self.plan_cache_size,
                "epoch": self.admin.policy_epoch,
                "optimizer": self.optimizer_mode,
                "batch_size": self.batch_size,
            }

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and parse results (counters are kept)."""
        with self._cache_lock:
            self._plan_cache.clear()
            self._shape_memo.clear()
            self._text_memo.clear()

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        query: "str | ast.Select | ast.SetOperation",
        purpose: str,
        user: str | None = None,
        params=None,
    ) -> ResultSet:
        """Enforce and run a query; returns the policy-filtered result set."""
        return self.execute_with_report(query, purpose, user, params=params).result

    def execute_with_report(
        self,
        query: "str | ast.Select | ast.SetOperation",
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
            resolved = self._resolve(query)
        return self._run_cached(resolved, purpose, user, params, trace=trace)

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
        resolved = self._resolve(query)
        statement, qid = resolved.statement, resolved.query_id
        original_sql = resolved.text or to_sql(statement)
        self._authorize(user, purpose, qid, statement, original_sql, counted=False)
        plan, hit = self._compiled_plan(resolved, purpose)
        params = resolved.bindings(params)

        lines = [f"rewritten: {plan.rewritten_for(resolved)}"]
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
        rows = checks = 0
        if analyze:
            trace = Trace()
            with trace.span("execute"):
                result, spent = self._execute_counted(plan.plan, params, trace)
            rows, checks = len(result), spent[COMPLIES_WITH]
            with bound_literals(resolved.values):
                lines.extend(plan.plan.describe(annotate=trace.annotation))
            lines.append(
                f"Execution: rows={rows} checks={checks} "
                f"memo_hits={spent['memo.hit']} cache_hit={str(hit).lower()} "
                f"bitmap_built={spent['bitmap.built']} "
                f"bitmap_revalidated={spent['bitmap.revalidated']} "
                f"bitmap_hits={spent['bitmap.hit']} "
                f"index_hits={spent['index.hit']}"
            )
            stages = " ".join(
                f"{stage}={seconds * 1000:.3f}ms"
                for stage, seconds in trace.stage_seconds().items()
            )
            lines.append(f"Timing: {stages}")
        else:
            with bound_literals(resolved.values):
                lines.extend(plan.plan.describe())

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
        text: str | None = None,
    ) -> ResultSet | int:
        """Enforce and run any SELECT or DML statement.

        SELECT returns the filtered :class:`ResultSet`; UPDATE/DELETE have
        their read-side (WHERE predicate, SET expressions) checked and only
        touch policy-compliant tuples, returning the affected-row count;
        ``INSERT ... SELECT`` enforces the source query.  DDL is rejected —
        schema changes go through the administration modules.
        A caller that parsed ``sql`` already (:meth:`parse`) passes the
        source ``text`` beside it, for audit records and the memo.
        """
        from ..errors import AccessControlError
        from .dml import rewrite_statement

        if isinstance(sql, str):
            statement, text = self.parse(sql), sql
        else:
            statement = sql
        if isinstance(statement, ast.Explain):
            return self.explain(
                statement.statement, purpose, user=user, analyze=statement.analyze
            )
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return self.execute_txn_control(statement)
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self.execute(statement if text is None else text, purpose, user)
        if not isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            raise AccessControlError(
                "DDL statements are not executable through the monitor"
            )
        self.admin.require_configured()
        original_sql = text if text is not None else to_sql(statement)
        statement_id = compute_query_id(original_sql)
        self._authorize(user, purpose, statement_id, statement, original_sql)
        self.admin.purposes.get(purpose)
        database = self.admin.database
        # One hold of the write fence over rewrite and run: the signature
        # and the masks it is checked against come from one policy state.
        fence = database.transactions.autocommit_exclusive()
        with fence, database.cost_total.ledger(None) as spent:
            rewritten = rewrite_statement(
                statement, purpose, self.deriver, self.admin
            )
            affected = database.execute(rewritten, costs=spent)
        self.record_audit(
            user, purpose, statement_id, original_sql, "allowed",
            rows=affected, checks=spent[COMPLIES_WITH],
        )
        self._count_query("ok", spent)
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

    def execute_unprotected(self, query: str | ast.Select) -> ResultSet:
        """Run the *original* query, bypassing enforcement.

        The original side of the end-to-end benchmark's ``paper_overhead``
        workload; ``repro.bench`` times prepared plans instead.
        """
        select = parse_select(query) if isinstance(query, str) else query
        return self.admin.database.query(select)
