"""The paper-grounded rule catalog (SC001–SC008).

Each rule is a function over a :class:`FileContext` returning
:class:`~repro.staticcheck.report.StaticFinding` objects.  Rules are
deliberately *protocol-shaped*, not general dataflow: they know the
device DSL (``ctx.atomic_add``, ``ctx.spin_until``, ``ctx.gwrite``,
``ctx.syncthreads``, raw ``Acquire``/``Release`` effects) and encode
exactly the misuse patterns the paper's barriers are one typo away
from.  See ``docs/staticcheck.md`` for the catalog with citations and
the per-rule false-positive discussion.

Rules whose defect admits a mechanical repair attach typed
:class:`~repro.staticcheck.repair.Fix` plans to their findings (the
*fix factories*); ``repro lint --fix`` applies them through
:mod:`repro.staticcheck.repair`.  A factory only emits a fix when it
can prove the edit is exactly the canonical protocol shape — anything
ambiguous stays advisory-only (see the repair catalog in
``docs/staticcheck.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.cfg import CFG, build_cfg
from repro.staticcheck.discover import (
    BARRIER_CALLS,
    KernelUnit,
    StrategyClass,
    block_identity_names,
    call_receiver,
    call_tail,
    expr_names,
    is_block_dependent,
    resolve_attr_root,
    resolve_int,
    self_attr_aliases,
    yielded_calls,
)
from repro.staticcheck.repair import Fix, SpanEdit
from repro.staticcheck.report import StaticFinding

__all__ = ["FileContext", "RULES", "run_rules"]


@dataclass
class FileContext:
    """Everything the rules need to know about one parsed file."""

    path: str
    module: ast.Module
    consts: Dict[str, int]
    sm_limit: int
    units: List[KernelUnit]
    classes: List[StrategyClass]
    #: raw source text; fix factories need it to record the original
    #: span contents (empty when a caller only has the AST — rules
    #: still report, they just attach fewer fixes).
    source: str = ""
    _cfgs: Dict[int, CFG] = field(default_factory=dict)

    def cfg(self, unit: KernelUnit) -> CFG:
        key = id(unit.func)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(unit.func)
        return self._cfgs[key]


def _walk_scoped(node: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``node`` without entering nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        here = stack.pop()
        if isinstance(here, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield here
        stack.extend(ast.iter_child_nodes(here))


def _unparse(node: ast.AST, limit: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 1] + "…"


# -- fix-factory plumbing ----------------------------------------------------
#
# Factories build SpanEdits from exact node positions plus the raw file
# source (for the ``original`` text that makes staleness detectable).
# Pure insertions work without source; replacements and deletions
# require ``ctx.source`` and silently stay advisory without it.


def _source_lines(ctx: FileContext) -> List[str]:
    return ctx.source.splitlines(keepends=True)


def _line_indent(ctx: FileContext, lineno: int) -> Optional[str]:
    lines = _source_lines(ctx)
    if not 1 <= lineno <= len(lines):
        return None
    text = lines[lineno - 1]
    return text[: len(text) - len(text.lstrip())]


def _insert_at(lineno: int, col: int, text: str) -> SpanEdit:
    return SpanEdit((lineno, col), (lineno, col), "", text)


def _node_span(node: ast.AST) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    lineno = getattr(node, "lineno", None)
    col = getattr(node, "col_offset", None)
    if None in (lineno, col, end_line, end_col):
        return None
    return (lineno, col), (end_line, end_col)


def _node_text(ctx: FileContext, node: ast.AST) -> Optional[str]:
    if not ctx.source:
        return None
    text = ast.get_source_segment(ctx.source, node)
    return text


def _node_edit(
    ctx: FileContext, node: ast.AST, replacement: str
) -> Optional[SpanEdit]:
    """Replace one expression/statement node with new source text."""
    span = _node_span(node)
    original = _node_text(ctx, node)
    if span is None or original is None or original == replacement:
        return None
    return SpanEdit(span[0], span[1], original, replacement)


def _delete_lines_edit(
    ctx: FileContext, first: int, last: int
) -> Optional[SpanEdit]:
    """Delete whole source lines ``first``..``last`` (1-based, inclusive)."""
    lines = _source_lines(ctx)
    if not ctx.source or not 1 <= first <= last <= len(lines):
        return None
    return SpanEdit(
        (first, 0), (last + 1, 0), "".join(lines[first - 1 : last]), ""
    )


# -- spin-predicate shape analysis (SC008's scatter fix) -------------------


@dataclass(frozen=True)
class _SpinShape:
    """A mechanical threshold spin, resolved to enclosing-scope source."""

    array_src: str  #: the spun array, as written at the call site
    threshold_src: str  #: the awaited threshold expression
    lo_src: Optional[str]  #: watched cell / slice start (None = whole)
    hi_src: Optional[str]  #: slice end (None = single cell / open)
    whole_array: bool  #: an ``(arr.data >= t).all()`` gather shape


def _lambda_bindings(lam: ast.Lambda) -> Optional[Dict[str, ast.expr]]:
    """Param → default-expression map; None for unpollable lambdas."""
    args = lam.args
    if args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg:
        return None
    params = [a.arg for a in args.args]
    defaults = args.defaults
    if len(defaults) != len(params):
        return None  # a default-less param could never be polled with ()
    return dict(zip(params, defaults))


def _resolve_in_scope(
    expr: ast.expr, bound: Dict[str, ast.expr]
) -> Optional[str]:
    """Source for ``expr`` valid in the enclosing scope (via defaults)."""
    if isinstance(expr, ast.Name) and expr.id in bound:
        return ast.unparse(bound[expr.id])
    if expr_names(expr) & set(bound):
        return None  # a param buried inside a larger expression
    return ast.unparse(expr)


def _spin_wait_shape(call: ast.Call) -> Optional[_SpinShape]:
    """Parse a ``spin_until`` whose predicate is a threshold check.

    Recognized shapes (``X`` must be the spun array itself)::

        lambda ...: X.data[i] >= t            → (t, lo=i)
        lambda ...: (X.data >= t).all()       → (t,) whole-array
        lambda ...: bool((X.data >= t).all()) → (t,) whole-array
        lambda ...: (X.data[lo:hi] >= t).all()→ (t, lo, hi)

    Anything else — compound predicates, inverted comparisons, tuple
    indices — returns None: the spin is not a mechanical threshold wait.
    """
    array_arg = _call_arg(call, 0, "array")
    predicate = _call_arg(call, 1, "predicate")
    if array_arg is None or not isinstance(predicate, ast.Lambda):
        return None
    bound = _lambda_bindings(predicate)
    if bound is None:
        return None
    body: ast.expr = predicate.body
    if (
        isinstance(body, ast.Call)
        and isinstance(body.func, ast.Name)
        and body.func.id == "bool"
        and len(body.args) == 1
        and not body.keywords
    ):
        body = body.args[0]
    whole = False
    if (
        isinstance(body, ast.Call)
        and isinstance(body.func, ast.Attribute)
        and body.func.attr == "all"
        and not body.args
        and not body.keywords
    ):
        whole = True
        body = body.func.value
    if not (
        isinstance(body, ast.Compare)
        and len(body.ops) == 1
        and isinstance(body.ops[0], ast.GtE)
        and len(body.comparators) == 1
    ):
        return None
    left, threshold = body.left, body.comparators[0]
    threshold_src = _resolve_in_scope(threshold, bound)
    if threshold_src is None:
        return None
    index: Optional[ast.expr] = None
    if isinstance(left, ast.Subscript):
        index = left.slice
        left = left.value
    if not (isinstance(left, ast.Attribute) and left.attr == "data"):
        return None
    array_src = _resolve_in_scope(left.value, bound)
    if array_src is None or array_src != ast.unparse(array_arg):
        return None
    lo_src: Optional[str] = None
    hi_src: Optional[str] = None
    if index is None:
        if not whole:
            return None  # bare array truthiness — not a threshold spin
    elif isinstance(index, ast.Slice):
        if not whole or index.step is not None:
            return None
        if index.lower is not None:
            lo_src = _resolve_in_scope(index.lower, bound)
            if lo_src is None:
                return None
        if index.upper is not None:
            hi_src = _resolve_in_scope(index.upper, bound)
            if hi_src is None:
                return None
    elif isinstance(index, ast.Tuple):
        return None  # multi-dimensional flags
    else:
        if whole:
            return None
        lo_src = _resolve_in_scope(index, bound)
        if lo_src is None:
            return None
    return _SpinShape(array_src, threshold_src, lo_src, hi_src, whole)


# -- SC001: barrier divergence ----------------------------------------------


def rule_sc001(ctx: FileContext) -> List[StaticFinding]:
    """A barrier yield bypassed on a block-identity-dependent path.

    Paper §4: blocks are non-preemptive, so a block that skips a
    barrier round other blocks synchronize on starves the grid (or
    permanently under-counts an accumulating goalVal).  We flag a
    function that *does* contain barrier yields but admits an
    entry→exit path avoiding all of them, when a branch on that bypass
    path depends on block identity.  Paths that merely do *asymmetric
    work inside* the protocol (the Fig. 9 checking block) still pass
    the closing barrier yields and are not flagged.
    """
    findings: List[StaticFinding] = []
    for unit in ctx.units:
        if unit.kind not in ("barrier-method", "kernel"):
            continue
        cfg = ctx.cfg(unit)
        barrier_nodes = [
            n.index
            for n in cfg.statement_nodes()
            if any(
                call_tail(c) in BARRIER_CALLS
                for c in yielded_calls(n.stmt)
            )
        ]
        if not barrier_nodes:
            continue
        bypass = cfg.bypass_nodes(barrier_nodes)
        if not bypass:
            continue
        identity = block_identity_names(unit.func)
        seen_lines: Set[int] = set()
        for idx in sorted(bypass):
            node = cfg.nodes[idx]
            if node.kind not in ("branch", "loop"):
                continue
            stmt = node.stmt
            test = getattr(stmt, "test", None)
            if test is None or not is_block_dependent(test, identity):
                continue
            if node.line in seen_lines:
                continue
            seen_lines.add(node.line)
            findings.append(
                StaticFinding(
                    code="SC001",
                    message=(
                        f"barrier can be skipped when "
                        f"'{_unparse(test)}' takes the bypassing branch; "
                        "blocks would disagree on synchronized rounds"
                    ),
                    file=ctx.path,
                    line=node.line,
                    unit=unit.qualname,
                    fixes=_sc001_fix(ctx, unit, stmt),
                )
            )
    return findings


def _sc001_fix(
    ctx: FileContext, unit: KernelUnit, stmt: ast.AST
) -> Tuple[Fix, ...]:
    """Delete a pure early-return bypass branch.

    Only the provably-safe shape is repaired: ``if <identity test>:
    return`` with no else and no other effect, sitting directly in the
    function body next to the barrier statements it skips.  Deleting it
    makes every block fall through to the same barrier sequence (the
    SC001 remedy).  Branches that *do* work before returning are left
    for a human.
    """
    func_body = getattr(unit.func, "body", [])
    if not (
        isinstance(stmt, ast.If)
        and not stmt.orelse
        and len(stmt.body) == 1
        and isinstance(stmt.body[0], ast.Return)
        and stmt.body[0].value is None
        and stmt in func_body
        and len(func_body) > 1
    ):
        return ()
    end = stmt.end_lineno or stmt.lineno
    edit = _delete_lines_edit(ctx, stmt.lineno, end)
    if edit is None:
        return ()
    return (
        Fix(
            "SC001",
            "delete the block-dependent early return so every block "
            "runs the same barrier sequence",
            (edit,),
        ),
    )


# -- SC002: static occupancy violation --------------------------------------

#: strategy-name prefixes that imply a device-side (co-resident) barrier.
_DEVICE_PREFIXES = ("gpu-", "broken-")
#: call tails that take (algorithm, strategy, num_blocks, ...).
_RUN_TAILS = {"run", "sanitize_run"}


def _call_arg(
    call: ast.Call, position: int, keyword: str
) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


def rule_sc002(ctx: FileContext) -> List[StaticFinding]:
    """A grid-size literal exceeding the device's co-residency limit.

    Paper §5: a device-side barrier deadlocks the moment blocks
    outnumber the co-resident capacity, because waiting blocks are
    never preempted to let the rest run.  The limit comes from the
    target preset's topology (``ctx.sm_limit``): one block per SM under
    the paper's exclusive policy, the per-SM block cap times ``num_sms``
    under cooperative scheduling — so grids that are legal on a
    ``grid_sync``-class device aren't false-flagged when linting with
    ``sm_limit_for_preset("grid_sync")``.  The dynamic sanitizer catches
    this at prepare() time; this rule catches it while the file is
    being written.  Only device strategies named by a string literal
    are flagged — host-side barriers legitimately run arbitrarily large
    grids.
    """
    findings: List[StaticFinding] = []
    for node in ast.walk(ctx.module):
        if not isinstance(node, ast.Call):
            continue
        tail = call_tail(node)
        blocks_expr: Optional[ast.expr] = None
        if tail in _RUN_TAILS:
            strategy = _call_arg(node, 1, "strategy")
            if not (
                isinstance(strategy, ast.Constant)
                and isinstance(strategy.value, str)
                and strategy.value.startswith(_DEVICE_PREFIXES)
            ):
                continue
            blocks_expr = _call_arg(node, 2, "num_blocks")
        elif tail == "prepare" and isinstance(node.func, ast.Attribute):
            blocks_expr = _call_arg(node, 1, "num_blocks")
        else:
            continue
        if blocks_expr is None:
            continue
        value = resolve_int(blocks_expr, ctx.consts)
        if value is not None and value > ctx.sm_limit:
            findings.append(
                StaticFinding(
                    code="SC002",
                    message=(
                        f"num_blocks={value} exceeds the "
                        f"{ctx.sm_limit}-block co-residency limit of the "
                        "target device preset; a device-side barrier "
                        "would deadlock"
                    ),
                    file=ctx.path,
                    line=node.lineno,
                )
            )
    return findings


# -- SC003: stale spin read --------------------------------------------------


def _reads_memory(expr: ast.AST) -> bool:
    """True when evaluating the expression re-observes device state."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return True
        if isinstance(node, ast.Call):
            return True
    return False


def rule_sc003(ctx: FileContext) -> List[StaticFinding]:
    """A spin whose predicate can never observe the awaited store.

    The paper's §5 implementations hinge on ``volatile``-qualified spin
    reads; the simulated analogue is a predicate that re-reads
    ``array.data`` on every poll.  A predicate over captured locals
    (or lambda *defaults*, which are evaluated once) is a constant:
    the spin either exits immediately or never — the classic dropped
    ``volatile`` bug.  The same applies to a ``while`` wait-loop whose
    condition no statement in the body can change.
    """
    findings: List[StaticFinding] = []
    for unit in ctx.units:
        if unit.kind not in ("barrier-method", "kernel"):
            continue
        for node in _walk_scoped(unit.func):
            if isinstance(node, ast.Call) and call_tail(node) == "spin_until":
                predicate = _call_arg(node, 1, "predicate")
                if not isinstance(predicate, ast.Lambda):
                    continue
                if not _reads_memory(predicate.body):
                    findings.append(
                        StaticFinding(
                            code="SC003",
                            message=(
                                "spin predicate "
                                f"'{_unparse(predicate)}' never re-reads "
                                "device memory (.data); the awaited store "
                                "can never be observed"
                            ),
                            file=ctx.path,
                            line=node.lineno,
                            unit=unit.qualname,
                        )
                    )
        for node in _walk_scoped(unit.func):
            if not isinstance(node, ast.While):
                continue
            if _reads_memory(node.test):
                continue
            tested = expr_names(node.test)
            if not tested:
                continue  # e.g. ``while True`` — not a spin shape
            has_yield = any(
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
                for sub in _walk_scoped(stmt)
            ) or any(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
            )
            if not has_yield:
                continue
            rebound = _assigned_names(node.body)
            if tested & rebound:
                continue
            findings.append(
                StaticFinding(
                    code="SC003",
                    message=(
                        f"wait loop condition '{_unparse(node.test)}' "
                        "reads only locals the loop body never updates; "
                        "the spin can never terminate"
                    ),
                    file=ctx.path,
                    line=node.lineno,
                    unit=unit.qualname,
                )
            )
    return findings


def _assigned_names(body: List[ast.stmt]) -> Set[str]:
    """Names (re)bound anywhere in a statement list (scoped walk)."""
    names: Set[str] = set()

    def collect_target(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                collect_target(elt)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    for stmt in body:
        for node in [stmt, *_walk_scoped(stmt)]:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    collect_target(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                collect_target(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                collect_target(node.target)
    return names


# -- SC004: unguarded atomic arrival -----------------------------------------


def rule_sc004(ctx: FileContext) -> List[StaticFinding]:
    """An atomic arrival that can execute more than once per round.

    Paper §5.1: exactly one thread per block performs the
    ``atomicAdd(&g_mutex, 1)`` arrival (the leading-thread guard), and
    each block arrives exactly once per round — otherwise the counter
    passes ``goalVal`` early and the barrier releases before all blocks
    arrived.  The simulator's one-agent-per-block model makes the guard
    implicit, so the statically-checkable residue is *repetition*: an
    ``atomic_add`` inside a loop whose target cell does not vary with
    the loop (the tree barrier's per-level atomics vary their mutex
    each iteration and are fine).
    """
    findings: List[StaticFinding] = []
    for unit in ctx.units:
        if unit.kind not in ("barrier-method", "kernel"):
            continue
        for loop in _walk_scoped(unit.func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            bound = _assigned_names(loop.body)
            if isinstance(loop, ast.For):
                bound |= expr_names(loop.target)
            for stmt in loop.body:
                for node in [stmt, *_walk_scoped(stmt)]:
                    if not (
                        isinstance(node, ast.Call)
                        and call_tail(node) == "atomic_add"
                        and len(node.args) >= 2
                    ):
                        continue
                    cell_names = expr_names(node.args[0]) | expr_names(
                        node.args[1]
                    )
                    if cell_names & bound:
                        continue  # cell varies with the loop: fine
                    findings.append(
                        StaticFinding(
                            code="SC004",
                            message=(
                                "atomic arrival on loop-invariant cell "
                                f"'{_unparse(node.args[0])}"
                                f"[{_unparse(node.args[1])}]' repeats every "
                                "iteration; each block must arrive exactly "
                                "once per round"
                            ),
                            file=ctx.path,
                            line=node.lineno,
                            unit=unit.qualname,
                        )
                    )
    return findings


# -- class-level helpers for SC005 / SC007 / SC008 ---------------------------


def _generator_methods(cls: StrategyClass) -> List[Tuple[str, ast.AST]]:
    from repro.staticcheck.discover import is_generator

    return [
        (name, func)
        for name, func in cls.methods.items()
        if is_generator(func)
    ]


def _atomic_roots(cls: StrategyClass) -> Set[str]:
    """Cells (self-attr roots or local names) receiving atomic_add."""
    roots: Set[str] = set()
    for _name, func in _generator_methods(cls):
        aliases = self_attr_aliases(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and call_tail(node) == "atomic_add":
                if not node.args:
                    continue
                root = resolve_attr_root(node.args[0], aliases)
                if root is None and isinstance(node.args[0], ast.Name):
                    root = f"local:{node.args[0].id}"
                if root is not None:
                    roots.add(root)
    return roots


def _expr_root(expr: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    root = resolve_attr_root(expr, aliases)
    if root is None and isinstance(expr, ast.Name):
        return f"local:{expr.id}"
    return root


# -- SC005: goalVal anti-patterns --------------------------------------------


def _is_non_multiple_goal(expr: ast.expr) -> bool:
    """Matches ``round * n + k`` (k a non-zero literal): an arrival goal
    satisfiable before all N blocks arrive."""
    if not (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add)):
        return False
    left, right = expr.left, expr.right
    for product, offset in ((left, right), (right, left)):
        if (
            isinstance(product, ast.BinOp)
            and isinstance(product.op, ast.Mult)
            and isinstance(offset, ast.Constant)
            and isinstance(offset.value, int)
            and offset.value != 0
        ):
            return True
    return False


def rule_sc005(ctx: FileContext) -> List[StaticFinding]:
    """goalVal protocol drift (paper §5.1 and its ablation).

    Two shapes: (a) the arrival counter is *reset* to zero each round —
    the design §5.1 explicitly rejects because the extra store and spin
    phase cost real time and open a reset/arrival race; (b) the goal an
    arrival counter is spun against is ``round·N + k`` instead of a
    whole multiple of N, so the first ``k``-th arrival satisfies it and
    the barrier releases early.
    """
    findings: List[StaticFinding] = []
    for cls in ctx.classes:
        atomic_roots = _atomic_roots(cls)
        if not atomic_roots:
            continue
        for name, func in _generator_methods(cls):
            aliases = self_attr_aliases(func)
            qual = f"{cls.name}.{name}"
            # (a) reset store to an atomic counter cell.
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and call_tail(node) == "gwrite"
                    and len(node.args) >= 3
                ):
                    continue
                root = _expr_root(node.args[0], aliases)
                if root not in atomic_roots:
                    continue
                value = node.args[2]
                if isinstance(value, ast.Constant) and value.value == 0:
                    findings.append(
                        StaticFinding(
                            code="SC005",
                            message=(
                                "arrival counter "
                                f"'{_unparse(node.args[0])}' is reset to 0 "
                                "instead of accumulating goalVal — the "
                                "rejected §5.1 design (extra store + spin "
                                "phase per round)"
                            ),
                            file=ctx.path,
                            line=node.lineno,
                            unit=qual,
                        )
                    )
            # (b) non-multiple goal spun against an atomic counter.
            goal_names = _spin_goal_names(func, aliases, atomic_roots)
            if not goal_names:
                continue
            for node in _walk_scoped(func):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in goal_names
                ):
                    continue
                if _is_non_multiple_goal(node.value):
                    findings.append(
                        StaticFinding(
                            code="SC005",
                            message=(
                                f"arrival goal '{node.targets[0].id} = "
                                f"{_unparse(node.value)}' is not a whole "
                                "multiple of the grid size; the barrier "
                                "releases before every block arrives"
                            ),
                            file=ctx.path,
                            line=node.lineno,
                            unit=qual,
                            fixes=_sc005_goal_fix(ctx, node.value),
                        )
                    )
    return findings


def _looks_like_grid_size(expr: ast.expr) -> bool:
    """Heuristic: the factor that is the grid size, not the round."""
    src = ast.unparse(expr)
    tail = src.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return tail in ("n", "num_blocks", "blocks", "nblocks")


def _sc005_goal_fix(ctx: FileContext, value: ast.expr) -> Tuple[Fix, ...]:
    """Rewrite ``round·N + k`` to the canonical ``(round + 1) · N``.

    Emitted only when exactly one factor of the product is recognizably
    the grid size — otherwise which factor accumulates per round is
    ambiguous and the finding stays advisory.
    """
    if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)):
        return ()
    product = value.left if isinstance(value.left, ast.BinOp) else value.right
    if not (
        isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)
    ):
        return ()
    left_src = ast.unparse(product.left)
    right_src = ast.unparse(product.right)
    left_grid = _looks_like_grid_size(product.left)
    right_grid = _looks_like_grid_size(product.right)
    if left_grid == right_grid:
        return ()
    if right_grid:
        replacement = f"({left_src} + 1) * {right_src}"
    else:
        replacement = f"{left_src} * ({right_src} + 1)"
    edit = _node_edit(ctx, value, replacement)
    if edit is None:
        return ()
    return (
        Fix(
            "SC005",
            f"accumulate the arrival goal as a whole multiple of the "
            f"grid size: {replacement}",
            (edit,),
        ),
    )


def _spin_goal_names(
    func: ast.AST, aliases: Dict[str, str], atomic_roots: Set[str]
) -> Set[str]:
    """Names compared against an atomic counter inside spin predicates."""
    goals: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call) and call_tail(node) == "spin_until"
        ):
            continue
        if not node.args:
            continue
        if _expr_root(node.args[0], aliases) not in atomic_roots:
            continue
        predicate = _call_arg(node, 1, "predicate")
        if not isinstance(predicate, ast.Lambda):
            continue
        # Names in the body, mapped through lambda defaults back to the
        # enclosing scope where applicable.
        body_names = expr_names(predicate.body)
        params = [a.arg for a in predicate.args.args]
        defaults = predicate.args.defaults
        bound = dict(zip(params[len(params) - len(defaults):], defaults))
        for name in body_names:
            if name in bound:
                default = bound[name]
                if isinstance(default, ast.Name):
                    goals.add(default.id)
            else:
                goals.add(name)
        # Array aliases are not goals.
        goals = {
            g
            for g in goals
            if _expr_root(ast.Name(id=g), aliases) not in atomic_roots
        }
    return goals


# -- SC006: shared-memory race -----------------------------------------------


def rule_sc006(ctx: FileContext) -> List[StaticFinding]:
    """Conflicting shared-memory accesses with no ``__syncthreads``.

    Intra-block threads share the SM scratchpad (paper §2); a write and
    a subsequent access of the same shared array at a *different* index
    expression, with no intervening intra-block barrier, is the classic
    shared-memory race.  The pass is a linear def-use scan in source
    order: any ``syncthreads()`` (or grid barrier, which implies one)
    clears the pending-write set.
    """
    findings: List[StaticFinding] = []
    shared_ops = {"swrite", "sread"}
    for unit in ctx.units:
        if unit.kind not in ("barrier-method", "kernel"):
            continue
        events: List[Tuple[int, str, str, str, ast.Call]] = []
        for node in _walk_scoped(unit.func):
            if not isinstance(node, ast.Call):
                continue
            tail = call_tail(node)
            if tail in BARRIER_CALLS:
                events.append((node.lineno, "barrier", "", "", node))
            elif tail in shared_ops and len(node.args) >= 2:
                events.append(
                    (
                        node.lineno,
                        tail,
                        ast.dump(node.args[0]),
                        ast.dump(node.args[1]),
                        node,
                    )
                )
        events.sort(key=lambda e: e[0])
        pending: Dict[str, Tuple[str, int]] = {}
        for line, kind, array, index, call in events:
            if kind == "barrier":
                pending.clear()
                continue
            prior = pending.get(array)
            if prior is not None and prior[0] != index:
                findings.append(
                    StaticFinding(
                        code="SC006",
                        message=(
                            "shared-memory access conflicts with the "
                            f"write at line {prior[1]} (different index, "
                            "same array, no __syncthreads between them)"
                        ),
                        file=ctx.path,
                        line=line,
                        unit=unit.qualname,
                        fixes=_sc006_fix(ctx, call),
                    )
                )
            if kind == "swrite":
                pending[array] = (index, line)
    return findings


def _sc006_fix(ctx: FileContext, call: ast.Call) -> Tuple[Fix, ...]:
    """Insert ``yield from <recv>.syncthreads()`` before the access.

    Only when the conflicting access opens its own ``yield``(-from)
    statement line — inserting a full line inside a bracketed
    continuation would not parse, so those stay advisory.
    """
    receiver = call_receiver(call)
    indent = _line_indent(ctx, call.lineno)
    if receiver is None or indent is None:
        return ()
    lines = _source_lines(ctx)
    if not lines[call.lineno - 1].lstrip().startswith("yield"):
        return ()
    text = f"{indent}yield from {receiver}.syncthreads()\n"
    return (
        Fix(
            "SC006",
            "insert __syncthreads() before the conflicting shared "
            "access",
            (_insert_at(call.lineno, 0, text),),
        ),
    )


# -- SC007: under-sized lock-free flag array ---------------------------------


def _num_blocks_dependents(prepare: ast.AST) -> Set[str]:
    """Names/attrs in ``prepare`` transitively derived from num_blocks."""
    args = getattr(prepare, "args", None)
    param_names = [a.arg for a in args.args] if args else []
    seeds = {n for n in param_names if n == "num_blocks"}
    if not seeds and len(param_names) >= 3:
        seeds = {param_names[2]}  # (self, device, <grid size>)
    deps: Set[str] = set(seeds)

    def expr_hits(expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in deps:
                return True
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and f"attr:{node.attr}" in deps
            ):
                return True
        return False

    changed = True
    while changed:
        changed = False
        for node in _walk_scoped(prepare):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets, value = [node.target], node.iter
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets, value = [node.target], node.value
            if value is None or not expr_hits(value):
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    marker: Optional[str] = None
                    if isinstance(leaf, ast.Name):
                        marker = leaf.id
                    elif (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        marker = f"attr:{leaf.attr}"
                    if marker is not None and marker not in deps:
                        deps.add(marker)
                        changed = True
    return deps


def rule_sc007(ctx: FileContext) -> List[StaticFinding]:
    """A per-block flag array whose size does not scale with the grid.

    Paper §5.3: the lock-free barrier stores one flag per block
    (``Arrayin[i]``/``Arrayout[i]``).  Sizing those arrays with a
    constant silently corrupts neighbouring state (or drops arrivals)
    the first time the grid grows past it.  Flagged when a strategy's
    ``prepare`` allocates an array with a num_blocks-independent size
    and a barrier method then indexes that array by block identity.
    """
    findings: List[StaticFinding] = []
    for cls in ctx.classes:
        prepare = cls.methods.get("prepare")
        if prepare is None:
            continue
        deps = _num_blocks_dependents(prepare)

        def size_depends(expr: ast.AST) -> bool:
            for node in ast.walk(expr):
                if isinstance(node, ast.Name) and node.id in deps:
                    return True
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and f"attr:{node.attr}" in deps
                ):
                    return True
            return False

        allocs: Dict[str, Tuple[ast.expr, int]] = {}
        for node in ast.walk(prepare):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "self"
                and isinstance(node.value, ast.Call)
                and call_tail(node.value) == "alloc"
                and len(node.value.args) >= 2
            ):
                continue
            allocs[node.targets[0].attr] = (node.value.args[1], node.lineno)

        if not allocs:
            continue

        block_indexed: Dict[str, int] = {}
        for name, func in _generator_methods(cls):
            aliases = self_attr_aliases(func)
            identity = block_identity_names(func)
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and call_tail(node) in ("gwrite", "gread", "atomic_add")
                    and len(node.args) >= 2
                ):
                    continue
                root = resolve_attr_root(node.args[0], aliases)
                if root is None or root not in allocs:
                    continue
                if is_block_dependent(node.args[1], identity):
                    block_indexed.setdefault(root, node.lineno)

        for root, access_line in sorted(block_indexed.items()):
            size_expr, alloc_line = allocs[root]
            if size_depends(size_expr):
                continue
            findings.append(
                StaticFinding(
                    code="SC007",
                    message=(
                        f"flag array 'self.{root}' is indexed by block id "
                        f"(line {access_line}) but allocated with size "
                        f"'{_unparse(size_expr)}', which does not scale "
                        "with num_blocks"
                    ),
                    file=ctx.path,
                    line=alloc_line,
                    unit=f"{cls.name}.prepare",
                    fixes=_sc007_fix(ctx, prepare, size_expr),
                )
            )
    return findings


def _sc007_fix(
    ctx: FileContext, prepare: ast.AST, size_expr: ast.expr
) -> Tuple[Fix, ...]:
    """Resize a literal flag-array allocation to the grid size.

    Only constant sizes are rewritten (a wrong *expression* needs a
    human to decide what it meant); the replacement is ``prepare``'s
    own num_blocks parameter, so the repaired allocation scales.
    """
    if not isinstance(size_expr, ast.Constant):
        return ()
    args = getattr(prepare, "args", None)
    params = [a.arg for a in args.args] if args else []
    if "num_blocks" in params:
        grid = "num_blocks"
    elif len(params) >= 3:
        grid = params[2]  # (self, device, <grid size>)
    else:
        return ()
    edit = _node_edit(ctx, size_expr, grid)
    if edit is None:
        return ()
    return (
        Fix(
            "SC007",
            f"allocate one flag per block: size '{grid}' instead of "
            f"'{_unparse(size_expr)}'",
            (edit,),
        ),
    )


# -- SC008: unreleased synchronization path ----------------------------------


def rule_sc008(ctx: FileContext) -> List[StaticFinding]:
    """An acquire/await with no reachable release.

    Two shapes of the same §5.3 hazard (a waiter nothing will ever
    wake): (a) a raw ``Acquire`` effect from which the function can
    reach exit without yielding the matching ``Release`` — the
    simulated analogue of leaking a FIFO atomic unit; (b) a barrier
    class that spins on a flag array **no method of the class ever
    stores to** — the lock-free barrier with its Fig. 9 step-2 scatter
    dropped, which deadlocks every block on ``Arrayout``.
    """
    findings: List[StaticFinding] = []

    # (a) effect-level: Acquire with an exit path that skips Release.
    for unit in ctx.units:
        cfg = ctx.cfg(unit)
        acquires: List[Tuple[int, str, str, int]] = []
        releases: Dict[str, List[int]] = {}
        all_releases: List[int] = []
        for node in cfg.statement_nodes():
            for call in yielded_calls(node.stmt):
                tail = call_tail(call)
                if tail == "Acquire" and call.args:
                    acquires.append(
                        (
                            node.index,
                            ast.dump(call.args[0]),
                            _unparse(call.args[0]),
                            node.line,
                        )
                    )
                elif tail == "Release":
                    key = ast.dump(call.args[0]) if call.args else ""
                    releases.setdefault(key, []).append(node.index)
                    all_releases.append(node.index)
        for node_idx, resource_key, resource_src, line in acquires:
            matching = releases.get(resource_key) or all_releases
            if not matching or cfg.exit_reachable_avoiding(
                node_idx, matching
            ):
                findings.append(
                    StaticFinding(
                        code="SC008",
                        message=(
                            f"Acquire of '{resource_src}' can reach "
                            "function exit without a matching Release; "
                            "contenders queue forever"
                        ),
                        file=ctx.path,
                        line=line,
                        unit=unit.qualname,
                    )
                )

    # (b) class-level: spun flag arrays nobody stores to.
    for cls in ctx.classes:
        written: Set[str] = set()
        spins: List[Tuple[str, int, str, ast.AST, ast.Call]] = []
        for name, func in _generator_methods(cls):
            aliases = self_attr_aliases(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                tail = call_tail(node)
                if tail in ("gwrite", "atomic_add") and node.args:
                    root = resolve_attr_root(node.args[0], aliases)
                    if root is not None:
                        written.add(root)
                elif tail == "spin_until" and node.args:
                    root = resolve_attr_root(node.args[0], aliases)
                    if root is not None:
                        spins.append((root, node.lineno, name, func, node))
        for root, line, method, func, spin_call in spins:
            if root in written:
                continue
            findings.append(
                StaticFinding(
                    code="SC008",
                    message=(
                        f"barrier spins on 'self.{root}' but no method of "
                        f"{cls.name} ever stores to it — the release "
                        "scatter (Fig. 9 step 2) is missing, so every "
                        "waiter deadlocks"
                    ),
                    file=ctx.path,
                    line=line,
                    unit=f"{cls.name}.{method}",
                    fixes=_sc008_scatter_fix(ctx, func, spin_call),
                )
            )
    return findings


def _is_syncthreads_stmt(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.YieldFrom)
        and isinstance(stmt.value.value, ast.Call)
        and call_tail(stmt.value.value) == "syncthreads"
    )


def _sc008_scatter_fix(
    ctx: FileContext, func: ast.AST, spin_call: ast.Call
) -> Tuple[Fix, ...]:
    """Insert the missing Fig. 9 step-2 release scatter.

    Recognizes the lock-free checker shape: a block-identity branch
    containing a whole-array gather spin followed by a
    ``syncthreads()``, while the flagged spin awaits a threshold on the
    never-written array.  The fix stores the awaited threshold to every
    cell (``gwrite(arr, slice(None), goal)``) right after the checker's
    last ``syncthreads`` — exactly the store the paper's Fig. 9
    performs.  Any deviation from that shape stays advisory.
    """
    shape = _spin_wait_shape(spin_call)
    receiver = call_receiver(spin_call)
    if shape is None or shape.whole_array or receiver is None:
        return ()
    if not spin_call.args:
        return ()
    arr_src = ast.unparse(spin_call.args[0])
    identity = block_identity_names(func)
    for node in _walk_scoped(func):
        if not (
            isinstance(node, ast.If)
            and is_block_dependent(node.test, identity)
        ):
            continue
        gather = any(
            (gather_shape := _spin_wait_shape(sub)) is not None
            and gather_shape.whole_array
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call) and call_tail(sub) == "spin_until"
        )
        syncs = [stmt for stmt in node.body if _is_syncthreads_stmt(stmt)]
        if not gather or not syncs:
            continue
        anchor = syncs[-1]
        indent = _line_indent(ctx, anchor.lineno)
        if indent is None:
            return ()
        insert_line = (anchor.end_lineno or anchor.lineno) + 1
        text = (
            f"{indent}yield from {receiver}.gwrite("
            f"{arr_src}, slice(None), {shape.threshold_src})\n"
        )
        return (
            Fix(
                "SC008",
                f"insert the missing release scatter: every cell of "
                f"{arr_src} set to {shape.threshold_src}",
                (_insert_at(insert_line, 0, text),),
            ),
        )
    return ()


#: rule registry, in code order (docs and the engine iterate this).
RULES: Dict[str, Callable[[FileContext], List[StaticFinding]]] = {
    "SC001": rule_sc001,
    "SC002": rule_sc002,
    "SC003": rule_sc003,
    "SC004": rule_sc004,
    "SC005": rule_sc005,
    "SC006": rule_sc006,
    "SC007": rule_sc007,
    "SC008": rule_sc008,
}


def run_rules(ctx: FileContext) -> List[StaticFinding]:
    """Run every rule over one file's context."""
    findings: List[StaticFinding] = []
    for rule in RULES.values():
        findings.extend(rule(ctx))
    return findings
