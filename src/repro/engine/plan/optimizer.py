"""The rule-based optimizer: an ordered pipeline of plan-rewrite passes.

Two pipelines exist.  ``off`` runs the legacy pair of rewrites the
tree-walking executor always applied (single-source predicate pushdown and
equi-join hash-join selection), reproducing the pre-IR engine's plans —
and its ``complieswith`` invocation counts — exactly.  ``on`` adds the
passes the IR makes expressible:

1. ``constant_folding`` — evaluate literal-only arithmetic subtrees in
   filter conjuncts and join conditions once, at plan time.
2. ``predicate_pushdown`` — move single-source conjuncts to their leaf
   (generalizes the legacy ``_PushdownSet``); on this pipeline also one
   whose sub-queries are all uncorrelated, last in its leaf: q6's ``IN
   (select …)`` filters ``users`` below the join, above its guard.
3. ``policy_guard_hoist`` — lift the rewriter's per-table ``complieswith``
   conjuncts out of pushed filters into :class:`PolicyGuard` nodes directly
   above their base-table scans, where the
   :class:`~repro.engine.plan.bitmap.PolicyBitmapCache` answers them from
   policy posting lists instead of per-row UDF calls.
4. ``access_path_selection`` — structural access paths (DESIGN.md §13):
   convert a pushed filter's scan — directly below it, or below the
   :class:`PolicyGuard` between them — into an :class:`IndexScan` /
   :class:`IndexRangeScan` when a matching secondary index exists; an
   equality probe beats a range, a longer bound key prefix a shorter one.
5. ``hash_join_selection`` — replace conditioned nested loops whose ON
   clause contains side-separable equalities with hash joins; an INNER
   join builds on whichever input turns out smaller, decided by the
   executor on each execution.
6. ``projection_pruning`` — narrow base-table scans to the columns the rest
   of the plan references.

Ordering invariants: folding precedes pushdown (a folded conjunct may
become pushable); hoisting runs *after* pushdown because only a
pushdown-claimed conjunct is known to be safe at the scan (pushdown is
disabled under outer joins, which is exactly when hoisting would be wrong
too); access-path selection runs after hoisting so hoisted guards are
already out of the conjunct lists it inspects; pruning runs last so every
earlier pass sees full-width shapes, and name resolution of claimed
conjuncts is re-checked against the pre-pruning ``binder_shape``.
"""

from __future__ import annotations

import dataclasses

from ...errors import CatalogError
from ...sql import ast
from ..expressions import Scope, evaluate_constant
from ..schema import RowShape
from .nodes import (
    DerivedTable,
    Filter,
    HashJoin,
    IndexRangeScan,
    IndexScan,
    LogicalNode,
    NestedLoop,
    PolicyGuard,
    Scan,
    Values,
)
from .planner import BlockPlan

#: The legacy rewrites: what the pre-IR executor always did.
BASELINE_PASSES = ("predicate_pushdown", "hash_join_selection")

#: The full pipeline (see module docstring for the ordering invariants).
FULL_PASSES = (
    "constant_folding",
    "predicate_pushdown",
    "policy_guard_hoist",
    "access_path_selection",
    "hash_join_selection",
    "projection_pruning",
)

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})

_RANGE_OPS = frozenset({"<", "<=", ">", ">="})


def resolve_optimizer_mode(mode: str | None = None) -> str:
    """Normalize an optimizer mode; ``None`` means ``"on"``."""
    mode = (mode or "on").lower()
    if mode not in ("on", "off"):
        raise ValueError(f"optimizer mode must be 'on' or 'off', got {mode!r}")
    return mode


class Optimizer:
    """Runs the pass pipeline for one mode over block plans."""

    def __init__(self, mode: str | None, database):
        self.mode = resolve_optimizer_mode(mode)
        self.database = database
        self.passes = FULL_PASSES if self.mode == "on" else BASELINE_PASSES

    def optimize(self, block: BlockPlan) -> BlockPlan:
        for name in self.passes:
            getattr(self, f"_pass_{name}")(block)
        return block

    # -- constant folding --------------------------------------------------------

    def _pass_constant_folding(self, block: BlockPlan) -> None:
        folded = 0

        def fold(expression: ast.Expression) -> ast.Expression:
            nonlocal folded
            new, changed = _fold_expression(expression, self.database.functions)
            if changed:
                folded += 1
            return new

        if block.filter is not None:
            if block.filter.conjuncts is not None:
                block.filter.conjuncts = [
                    fold(c) for c in block.filter.conjuncts
                ]
            elif block.filter.original is not None:
                block.filter.original = fold(block.filter.original)
        for node in _block_nodes(block.source_root):
            if isinstance(node, NestedLoop) and node.condition is not None:
                node.condition = fold(node.condition)
        if folded:
            block.notes.append(
                f"constant_folding: folded {folded} expression(s)"
            )

    # -- predicate pushdown ------------------------------------------------------

    def _pass_predicate_pushdown(self, block: BlockPlan) -> None:
        block_filter = block.filter
        if block_filter is None or block_filter.conjuncts is None:
            return  # no WHERE, or outer-join block (kept whole)
        ledger = [[conjunct, False] for conjunct in block_filter.conjuncts]
        # The full pipeline also pushes uncorrelated sub-query conjuncts.
        on = self.mode == "on"
        scope = Scope(block.binder_shape, block.parent_scope) if on else None

        def visit(node: LogicalNode) -> LogicalNode:
            if isinstance(node, (Scan, DerivedTable)):
                claimed = []
                for entry in ledger:
                    expression, consumed = entry
                    if consumed:
                        continue
                    if _pushable_to(expression, node.shape, scope):
                        entry[1] = True
                        claimed.append(expression)
                if claimed:
                    # A sub-query conjunct runs last: every other one, an
                    # index path and a per-row check keep their inputs.
                    claimed.sort(key=lambda e: any(ast.iter_subqueries(e)))
                    leaf = node.binding if isinstance(node, Scan) else node.alias
                    block.notes.append(
                        f"predicate_pushdown: pushed {len(claimed)} "
                        f"conjunct(s) to {leaf}"
                    )
                    return Filter(claimed, None, node, pushed=True)
                return node
            if isinstance(node, (NestedLoop, HashJoin)):
                node.left = visit(node.left)
                node.right = visit(node.right)
            return node

        _replace_sources(block, visit(block.source_root))
        # Claimed conjuncts leave the residual; keep them (in original WHERE
        # order) for the block-wide ambiguity re-check.
        block.claimed = [expr for expr, consumed in ledger if consumed]
        block_filter.conjuncts = [
            expr for expr, consumed in ledger if not consumed
        ]

    # -- policy-guard hoisting ---------------------------------------------------

    def _pass_policy_guard_hoist(self, block: BlockPlan) -> None:
        function_name = getattr(self.database, "policy_function", None)
        policy_column = getattr(self.database, "policy_column", None)
        if not function_name or not policy_column:
            return

        def visit(node: LogicalNode) -> LogicalNode:
            if (
                isinstance(node, Filter)
                and node.pushed
                and isinstance(node.input, Scan)
            ):
                scan = node.input
                guards = [
                    conjunct
                    for conjunct in node.conjuncts or []
                    if _is_policy_guard(
                        conjunct, function_name, policy_column, scan.binding
                    )
                ]
                if not guards:
                    return node
                guard_ids = {id(guard) for guard in guards}
                others = [
                    conjunct
                    for conjunct in node.conjuncts or []
                    if id(conjunct) not in guard_ids
                ]
                block.hoisted.extend(guards)
                block.notes.append(
                    f"policy_guard_hoist: {len(guards)} guard(s) on "
                    f"{scan.binding} answered by policy bitmap"
                )
                guard_node = PolicyGuard(guards, scan)
                if others:
                    node.conjuncts = others
                    node.input = guard_node
                    return node
                return guard_node
            if isinstance(node, (NestedLoop, HashJoin)):
                node.left = visit(node.left)
                node.right = visit(node.right)
            elif isinstance(node, Filter):
                node.input = visit(node.input)
            return node

        _replace_sources(block, visit(block.source_root))

    # -- access-path selection (DESIGN.md §13) -----------------------------------

    def _pass_access_path_selection(self, block: BlockPlan) -> None:
        manager = getattr(self.database, "indexes", None)
        if manager is None or not len(manager):
            return

        def visit(node: LogicalNode) -> LogicalNode:
            if isinstance(node, Filter):
                node.input = visit(node.input)
                below = node.input
                if node.pushed and type(below) is Scan:
                    node.input = self._select_index_path(block, node, below)
                elif (
                    node.pushed
                    and isinstance(below, PolicyGuard)
                    and type(below.scan) is Scan
                ):
                    # An access path under the guard shows it a subset of
                    # the tuples it would have seen, each with its row id.
                    below.scan = self._select_index_path(
                        block, node, below.scan
                    )
                return node
            if isinstance(node, (NestedLoop, HashJoin)):
                node.left = visit(node.left)
                node.right = visit(node.right)
            return node

        _replace_sources(block, visit(block.source_root))
        if __debug__:
            check_access_paths(block)

    def _select_index_path(
        self, block: BlockPlan, filter_node: Filter, scan: Scan
    ) -> Scan:
        """The best-ranked index access path for a pushed filter's scan, or
        ``scan`` itself when none qualifies.

        The matched conjuncts stay in the filter as a recheck, so the
        conversion can only narrow the candidate set — never change
        results.  Scans whose residual calls the policy UDF are left alone:
        narrowing the rows the residual sees would change the per-row call
        count the differential harness audits.
        """
        conjuncts = filter_node.conjuncts or []
        function_name = getattr(self.database, "policy_function", None)
        if function_name and any(
            _references_function(conjunct, function_name)
            for conjunct in conjuncts
        ):
            return scan
        best = best_index_path(
            self.database.indexes.for_table(scan.table_name), conjuncts, scan
        )
        if best is None:
            return scan
        block.notes.append(
            f"access_path_selection: {scan.binding} via "
            f"{type(best).__name__} on {best.index_name}"
        )
        return best

    # -- hash-join selection -----------------------------------------------------

    def _pass_hash_join_selection(self, block: BlockPlan) -> None:
        def visit(node: LogicalNode) -> LogicalNode:
            if isinstance(node, (NestedLoop, HashJoin)):
                node.left = visit(node.left)
                node.right = visit(node.right)
            elif isinstance(node, Filter):
                node.input = visit(node.input)
            if isinstance(node, NestedLoop) and node.condition is not None:
                pairs, residual = split_equi_condition(
                    node.condition, node.left.shape, node.right.shape
                )
                if pairs:
                    keys = ", ".join(
                        f"{_print(le)} = {_print(re)}" for le, re in pairs
                    )
                    block.notes.append(
                        f"hash_join_selection: hash join "
                        f"({node.join_kind.lower()}) on {keys}"
                    )
                    join = HashJoin(
                        node.join_kind, pairs, residual,
                        node.left, node.right, node.shape,
                    )
                    if self.mode == "on" and node.join_kind == "INNER":
                        join.build_side = "smaller"
                    return join
            return node

        _replace_sources(block, visit(block.source_root))

    # -- projection pruning ------------------------------------------------------

    def _pass_projection_pruning(self, block: BlockPlan) -> None:
        select = block.select
        if any(isinstance(item.expression, ast.Star) for item in select.items):
            return  # `*` needs the full shape

        unqualified: set[str] = set()
        qualified: set[tuple[str, str]] = set()

        def collect(expression: ast.Expression) -> None:
            _collect_refs(expression, unqualified, qualified)

        # Everything the rest of the plan evaluates — except the hoisted
        # guards, whose policy-column reads happen through the bitmap cache
        # rather than through row tuples.
        hoisted_ids = {id(guard) for guard in block.hoisted}
        if block.filter is not None:
            if block.filter.original is not None:
                collect(block.filter.original)
            for conjunct in block.filter.conjuncts or []:
                collect(conjunct)
        for node in _block_nodes(block.source_root):
            if isinstance(node, Filter):
                for conjunct in node.conjuncts or []:
                    if id(conjunct) not in hoisted_ids:
                        collect(conjunct)
            elif isinstance(node, NestedLoop):
                if node.condition is not None:
                    collect(node.condition)
            elif isinstance(node, HashJoin):
                for left_expr, right_expr in node.equi_pairs:
                    collect(left_expr)
                    collect(right_expr)
                if node.residual is not None:
                    collect(node.residual)
        for item in select.items:
            collect(item.expression)
        for expression in select.group_by:
            collect(expression)
        if select.having is not None:
            collect(select.having)
        for order_item in select.order_by:
            collect(order_item.expression)

        narrowed = 0
        for node in _block_nodes(block.source_root):
            if not isinstance(node, Scan):
                continue
            table = self.database.table(node.table_name)
            columns = table.schema.columns
            if not columns:
                continue
            keep = [
                column.name.lower()
                for column in columns
                if column.name.lower() in unqualified
                or (node.binding, column.name.lower()) in qualified
            ]
            if len(keep) == len(columns):
                continue
            if not keep:
                keep = [columns[0].name.lower()]  # never a zero-width scan
            node.kept = tuple(keep)
            node.shape = _narrowed_shape(node, table)
            narrowed += 1
            block.notes.append(
                f"projection_pruning: {node.binding} narrowed to "
                f"{len(keep)}/{len(columns)} column(s)"
            )
        if narrowed:
            _refresh_shapes(block.source_root)


# ---------------------------------------------------------------------------
# Shared helpers (also used by the planner/executor)
# ---------------------------------------------------------------------------


def _print(expression: ast.Expression) -> str:
    from ...sql.printer import print_expression

    return print_expression(expression)


def _replace_sources(block: BlockPlan, root: LogicalNode) -> None:
    """Install a pass's rewritten FROM tree under the block filter."""
    block.source_root = root
    if block.filter is not None:
        block.filter.input = root


def _block_nodes(node: LogicalNode):
    """This block's source nodes, stopping at derived-table boundaries."""
    yield node
    if isinstance(node, DerivedTable):
        return  # the inner block optimizes itself
    for child in node.children():
        yield from _block_nodes(child)


def shape_has(shape: RowShape, name: str, table: str | None) -> bool:
    """True when the shape can resolve the reference unambiguously."""
    try:
        shape.resolve(name, table)
    except CatalogError:
        return False
    return True


def _pushable_to(expression: ast.Expression, shape: RowShape, scope=None) -> bool:
    """All column refs resolve in ``shape``, at least one ref, and no
    sub-query is correlated with ``scope`` (the block's; ``None``: none)."""
    refs = list(ast.iter_column_refs(expression))
    if not refs:
        return False
    for ref in refs:
        table = ref.table.lower() if ref.table else None
        if not shape_has(shape, ref.name.lower(), table):
            return False
    return all(
        scope is not None and not _correlated(select, scope)
        for select in ast.iter_subqueries(expression)
    )


def _correlated(select: ast.Select, scope: Scope | None) -> bool:
    """Whether a reference anywhere inside ``select`` names a column of
    ``scope`` or an enclosing one; one its own sources shadow counts too."""
    unqualified: set[str] = set()
    qualified: set[tuple[str, str]] = set()
    _collect_select_refs(select, unqualified, qualified)
    while scope is not None:
        for b in scope.shape.bindings:
            if b.name in unqualified or (b.source, b.name) in qualified:
                return True
        scope = scope.parent
    return False


def _references_function(expression: ast.Expression, name: str) -> bool:
    """Whether any function call in the expression targets ``name``."""
    return any(
        isinstance(node, ast.FunctionCall) and node.name.lower() == name
        for node in ast.walk_expression(expression)
    )


def _scan_column(expression: ast.Expression, binding: str) -> str | None:
    """The scan column a reference names, or ``None`` if not this scan's."""
    if not isinstance(expression, ast.ColumnRef):
        return None
    if expression.table is not None and expression.table.lower() != binding:
        return None
    return expression.name.lower()


def _index_candidate(
    conjunct: ast.Expression, binding: str
) -> tuple[str, tuple] | None:
    """Match a conjunct against the indexable predicate shapes.

    Returns ``(column, spec)`` where ``spec`` is ``("eq", value)`` or
    ``("range", lower, upper, lower_inclusive, upper_inclusive)``.  An
    equality may compare the column with a literal or with a parameter —
    ``value`` is then the :class:`ast.Parameter`, which the index scan
    resolves on every execution (the plan bakes in no binding); ranges
    take literals only.
    """
    if isinstance(conjunct, ast.BinaryOp):
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if op == "=":
            for column_side, value_side in ((left, right), (right, left)):
                column = _scan_column(column_side, binding)
                if column is None:
                    continue
                if isinstance(value_side, ast.Literal):
                    return column, ("eq", value_side.value)
                if isinstance(value_side, ast.Parameter):
                    return column, ("eq", value_side)
            return None
        if op in _RANGE_OPS:
            column = _scan_column(left, binding)
            if (
                column is not None
                and isinstance(right, ast.Literal)
                and right.value is not None
            ):
                value = right.value
                if op == "<":
                    return column, ("range", None, value, True, False)
                if op == "<=":
                    return column, ("range", None, value, True, True)
                if op == ">":
                    return column, ("range", value, None, False, True)
                return column, ("range", value, None, True, True)
            column = _scan_column(right, binding)
            if (
                column is not None
                and isinstance(left, ast.Literal)
                and left.value is not None
            ):
                value = left.value  # mirrored: 5 < col  ≡  col > 5
                if op == "<":
                    return column, ("range", value, None, False, True)
                if op == "<=":
                    return column, ("range", value, None, True, True)
                if op == ">":
                    return column, ("range", None, value, True, False)
                return column, ("range", None, value, True, True)
            return None
        return None
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        column = _scan_column(conjunct.operand, binding)
        if (
            column is not None
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
            and conjunct.low.value is not None
            and conjunct.high.value is not None
        ):
            return column, (
                "range", conjunct.low.value, conjunct.high.value, True, True,
            )
    return None


def _access_paths(definitions, conjuncts: list, scan: Scan):
    """Every index access path the conjuncts admit.

    An equality path binds the longest leading run of an index's key
    columns that equality conjuncts cover: the whole key on either kind,
    a proper prefix on a ``btree`` index only.  A range path needs a
    single-column ``btree`` index; it takes its lower bound from the
    column's first lower-bounded conjunct and its upper bound from the
    first upper-bounded one, so ``b > 1 and b <= 4`` walks one key
    interval as ``b between 1 and 4`` does.  Yields ``(path, tree)``;
    ``tree`` is false for a hash index, which wins a tie with a ``btree``
    one for the same equality — both probe one dict, so the tiebreak only
    makes the choice deterministic.
    """
    equalities: dict[str, tuple[object, ast.Expression]] = {}
    #: column → (bound, inclusive, conjunct) of its first lower/upper bound.
    lowers: dict[str, tuple[object, bool, ast.Expression]] = {}
    uppers: dict[str, tuple[object, bool, ast.Expression]] = {}
    for conjunct in conjuncts:
        candidate = _index_candidate(conjunct, scan.binding)
        if candidate is None:
            continue
        column, spec = candidate
        if spec[0] == "eq":
            equalities.setdefault(column, (spec[1], conjunct))
            continue
        _range, lower, upper, lower_inclusive, upper_inclusive = spec
        if lower is not None:
            lowers.setdefault(column, (lower, lower_inclusive, conjunct))
        if upper is not None:
            uppers.setdefault(column, (upper, upper_inclusive, conjunct))
    for defn in definitions:
        bound = 0
        while bound < len(defn.columns) and defn.columns[bound] in equalities:
            bound += 1
        if bound == len(defn.columns) or (bound and defn.kind == "btree"):
            columns = defn.columns[:bound]
            yield IndexScan(
                scan, defn.name, columns,
                tuple(equalities[c][0] for c in columns),
                matched=tuple(equalities[c][1] for c in columns),
            ), defn.kind == "btree"
        if defn.kind == "btree" and len(defn.columns) == 1:
            column = defn.columns[0]
            lower, lower_inclusive, low = lowers.get(column, (None, True, None))
            upper, upper_inclusive, high = uppers.get(column, (None, True, None))
            if low is not None or high is not None:
                matched = (low,) if low is high else tuple(
                    c for c in (low, high) if c is not None
                )
                yield IndexRangeScan(
                    scan, defn.name, column, lower, upper,
                    lower_inclusive, upper_inclusive, matched=matched,
                ), True


def best_index_path(definitions, conjuncts: list, scan: Scan) -> IndexScan | None:
    """The best-ranked access path ``definitions`` offer for ``conjuncts``.

    Ranked by structure alone: an equality probe before a range, then the
    path binding more key columns, then the earlier matched conjunct, then
    hash over tree.  ``None`` when no path qualifies.  The path's ``ahead``
    holds the unmatched conjuncts before its last matched one: a scan runs
    them on rows the probe would skip.
    """

    def rank(candidate) -> tuple:
        path, tree = candidate
        first = min(map(conjuncts.index, path.matched))
        return isinstance(path, IndexRangeScan), -len(path.values), first, tree

    best = min(_access_paths(definitions, conjuncts, scan), key=rank, default=None)
    if best is None:
        return None
    path = best[0]
    last = max(map(conjuncts.index, path.matched))
    path.ahead = tuple(
        c for c in conjuncts[:last] if all(c is not m for m in path.matched)
    )
    return path


def check_access_paths(block: BlockPlan) -> None:
    """Assert the invariants that make an access path compliance-preserving.

    Every :class:`PolicyGuard` sits directly on a scan (sequential or
    index) of its own table — the posting lists it answers from hold that
    table's row ids — and every index scan is the access path of a pushed
    filter that still holds each conjunct the index matched, so the index
    only ever narrows what the recheck and the guard see.
    """
    rechecked: set[int] = set()
    nodes = list(_block_nodes(block.source_root))
    for node in nodes:
        if isinstance(node, PolicyGuard):
            scan = node.scan
            assert isinstance(scan, Scan), (
                f"PolicyGuard on {node.binding} reads a "
                f"{type(scan).__name__}, not a scan"
            )
            assert (scan.table_name, scan.binding) == (
                node.table_name, node.binding,
            ), f"PolicyGuard on {node.binding} reads {scan.binding}"
        if isinstance(node, Filter):
            below = node.input
            if isinstance(below, PolicyGuard):
                below = below.scan
            if isinstance(below, IndexScan):
                held = {id(conjunct) for conjunct in node.conjuncts or []}
                assert below.matched and all(
                    id(conjunct) in held for conjunct in below.matched
                ), (
                    f"{type(below).__name__} on {below.binding} "
                    "lost its recheck"
                )
                rechecked.add(id(below))
    for node in nodes:
        assert not isinstance(node, IndexScan) or id(node) in rechecked, (
            f"{type(node).__name__} on {node.binding} has no recheck filter"
        )


def _is_policy_guard(
    expression: ast.Expression,
    function_name: str,
    policy_column: str,
    binding: str,
) -> bool:
    """Match the rewriter's ``complieswith(b'<mask>', t.policy)`` shape."""
    if not isinstance(expression, ast.FunctionCall):
        return False
    if expression.name.lower() != function_name or expression.distinct:
        return False
    if len(expression.args) != 2:
        return False
    mask, column = expression.args
    if not isinstance(mask, ast.BitStringLiteral):
        return False
    if not isinstance(column, ast.ColumnRef):
        return False
    if column.name.lower() != policy_column:
        return False
    return column.table is None or column.table.lower() == binding


def split_equi_condition(
    condition: ast.Expression,
    left_shape: RowShape,
    right_shape: RowShape,
) -> tuple[list[tuple[ast.Expression, ast.Expression]], ast.Expression | None]:
    """Split an ON condition into hashable equi-pairs and a residual.

    Returns ``(pairs, residual)`` where each pair is ``(left_expr,
    right_expr)`` with the left expression referencing only left-side
    columns and vice versa.
    """
    conjuncts: list[ast.Expression] = []

    def flatten(node: ast.Expression) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            flatten(node.left)
            flatten(node.right)
        else:
            conjuncts.append(node)

    flatten(condition)

    def side_of(expression: ast.Expression) -> str | None:
        refs = list(ast.iter_column_refs(expression))
        if not refs or list(ast.iter_subqueries(expression)):
            return None
        sides = set()
        for ref in refs:
            table = ref.table.lower() if ref.table else None
            in_left = shape_has(left_shape, ref.name.lower(), table)
            in_right = shape_has(right_shape, ref.name.lower(), table)
            if in_left and not in_right:
                sides.add("left")
            elif in_right and not in_left:
                sides.add("right")
            else:
                return None  # ambiguous or unknown → not hashable
        if len(sides) == 1:
            return sides.pop()
        return None

    pairs: list[tuple[ast.Expression, ast.Expression]] = []
    residual_parts: list[ast.Expression] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            left_side = side_of(conjunct.left)
            right_side = side_of(conjunct.right)
            if left_side == "left" and right_side == "right":
                pairs.append((conjunct.left, conjunct.right))
                continue
            if left_side == "right" and right_side == "left":
                pairs.append((conjunct.right, conjunct.left))
                continue
        residual_parts.append(conjunct)

    residual: ast.Expression | None = None
    for part in residual_parts:
        residual = (
            part if residual is None else ast.BinaryOp("AND", residual, part)
        )
    return pairs, residual


# -- constant folding internals ------------------------------------------------


def _is_foldable(expression: ast.Expression) -> bool:
    """A non-leaf subtree made entirely of literals and arithmetic."""
    if isinstance(expression, ast.UnaryOp):
        return expression.op in ("-", "+") and _all_literal_arithmetic(
            expression.operand
        )
    if isinstance(expression, ast.BinaryOp) and expression.op in _ARITHMETIC_OPS:
        return _all_literal_arithmetic(
            expression.left
        ) and _all_literal_arithmetic(expression.right)
    return False


def _all_literal_arithmetic(expression: ast.Expression) -> bool:
    if isinstance(expression, ast.Literal):
        return not isinstance(expression.value, bool)
    if isinstance(expression, ast.UnaryOp):
        return expression.op in ("-", "+") and _all_literal_arithmetic(
            expression.operand
        )
    if isinstance(expression, ast.BinaryOp) and expression.op in _ARITHMETIC_OPS:
        return _all_literal_arithmetic(
            expression.left
        ) and _all_literal_arithmetic(expression.right)
    return False


def _fold_expression(
    expression: ast.Expression, registry
) -> tuple[ast.Expression, bool]:
    """Fold maximal literal-arithmetic subtrees; identity when unchanged."""
    if isinstance(expression, (ast.Literal, ast.ColumnRef, ast.Parameter,
                               ast.Star, ast.BitStringLiteral)):
        return expression, False
    if _is_foldable(expression):
        try:
            value = evaluate_constant(expression, registry)
        except Exception:
            return expression, False  # e.g. division by zero: fold at runtime
        if value is None or (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        ):
            return ast.Literal(value), True
        return expression, False
    if not dataclasses.is_dataclass(expression) or isinstance(
        expression, (ast.Select, ast.SetOperation)
    ):
        return expression, False
    changed = False
    updates: dict[str, object] = {}
    for field in dataclasses.fields(expression):
        value = getattr(expression, field.name)
        new_value, value_changed = _fold_field(value, registry)
        if value_changed:
            updates[field.name] = new_value
            changed = True
    if changed:
        return dataclasses.replace(expression, **updates), True
    return expression, False


def _fold_field(value: object, registry) -> tuple[object, bool]:
    if isinstance(value, tuple):
        items = [_fold_field(item, registry) for item in value]
        if any(item_changed for _, item_changed in items):
            return tuple(item for item, _ in items), True
        return value, False
    if isinstance(value, (ast.Select, ast.SetOperation)):
        return value, False  # subquery blocks fold themselves when planned
    if isinstance(value, ast.Expression):
        return _fold_expression(value, registry)
    return value, False


# -- shape maintenance ---------------------------------------------------------


def _narrowed_shape(scan: Scan, table) -> RowShape:
    from ..schema import ColumnBinding

    kept = scan.kept or ()
    bindings = []
    for index, name in enumerate(kept):
        column = table.schema.columns[table.schema.column_index(name)]
        bindings.append(
            ColumnBinding(
                scan.binding,
                column.name.lower(),
                index,
                column.sql_type,
                table.name.lower(),
                column.name.lower(),
            )
        )
    return RowShape(bindings)


def _refresh_shapes(node: LogicalNode) -> RowShape:
    """Recompute merged shapes bottom-up after scans were narrowed."""
    if isinstance(node, (Scan, DerivedTable, Values)):
        return node.shape
    if isinstance(node, Filter):
        return _refresh_shapes(node.input)
    if isinstance(node, PolicyGuard):
        return _refresh_shapes(node.scan)
    if isinstance(node, (NestedLoop, HashJoin)):
        left = _refresh_shapes(node.left)
        right = _refresh_shapes(node.right)
        node.shape = left.merged_with(right)
        return node.shape
    return node.shape


def _collect_refs(
    expression: ast.Expression,
    unqualified: set[str],
    qualified: set[tuple[str, str]],
) -> None:
    """Collect column references, descending into nested subqueries.

    Inner-block references can only over-approximate the keep set for this
    block's scans (an inner alias never matches an outer binding), which is
    the safe direction for pruning.
    """
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.ColumnRef):
            if node.table:
                qualified.add((node.table.lower(), node.name.lower()))
            else:
                unqualified.add(node.name.lower())
        for nested in node.child_selects():
            _collect_select_refs(nested, unqualified, qualified)


def _collect_select_refs(
    select: ast.Select,
    unqualified: set[str],
    qualified: set[tuple[str, str]],
) -> None:
    for item in select.items:
        if not isinstance(item.expression, ast.Star):
            _collect_refs(item.expression, unqualified, qualified)
    if select.where is not None:
        _collect_refs(select.where, unqualified, qualified)
    for expression in select.group_by:
        _collect_refs(expression, unqualified, qualified)
    if select.having is not None:
        _collect_refs(select.having, unqualified, qualified)
    for order_item in select.order_by:
        _collect_refs(order_item.expression, unqualified, qualified)
    for condition in ast.join_conditions(select):
        _collect_refs(condition, unqualified, qualified)
    for source in ast.select_sources(select):
        if isinstance(source, ast.SubquerySource):
            _collect_select_refs(source.select, unqualified, qualified)
