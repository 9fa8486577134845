"""Performance lint rules (R013–R017) for the numpy hot paths.

Static counterpart of the runtime allocation sanitizer in
:mod:`repro.perf.allocations`.  Five dataflow rules cover the numpy
anti-patterns that silently erode the hot stages BENCH_serving.json and
BENCH_sampling.json say dominate wall time:

======  ==============================================================
R013    array growth inside a loop body (``np.append`` /
        ``np.concatenate`` / ``np.vstack`` / ``np.hstack``, or a list
        grown in the loop re-materialised with ``np.asarray`` each
        iteration)
R014    silent dtype-promotion copies in hot modules: a cast of a
        freshly computed temporary, a chained ``astype``, or an
        explicit float64 promotion without an intended-dtype marker
R015    Python-level iteration over an ndarray in hot modules
        (``for x in arr``, per-iteration ``arr.tolist()``, scalar
        ``arr[i]`` indexing in a range loop)
R016    a loop-invariant call to a known-expensive helper (``csr()``,
        ``node_embeddings()``, ``type_pool()``) recomputed every
        iteration
R017    a fresh ``np.zeros``/``np.empty``/``np.ones``/``np.full`` of a
        loop-invariant shape allocated inside the loop instead of
        being hoisted and filled in place
======  ==============================================================

Scope and escape hatches:

- "Hot modules" are the first-level packages ``nn/``, ``sampling/``,
  ``serving/`` and ``train/`` — the paths whose stages carry ~97% of
  serving time and the per-epoch training cost.  R014/R015 only apply
  there; R013/R016/R017 apply tree-wide.
- ``_reference_*`` functions are whitelisted by name for every rule in
  this pack: the scalar oracle paths are deliberately naive so the
  vectorised implementations have something bit-exact to diff against.
- The *sanctioned* growth pattern — append parts to a list inside the
  loop, concatenate/asarray **once after** the loop — is recognised and
  not flagged by R013; only growth calls lexically inside the loop body
  fire.
- ``# repro-lint: intended-dtype=<dtype>`` on the offending line marks
  a deliberate promotion/cast boundary and silences R014 (the generic
  ``disable=R014`` marker also works, but the intent marker documents
  *which* dtype is meant).

The rules are lexical, like the concurrency pack: loop-invariance means
"no name stored anywhere in the loop is read by the expression", not a
full dataflow analysis.  The runtime allocation tracker covers what the
lexical rules cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.base import Rule, dotted
from repro.lint.engine import FileContext, Finding

__all__ = [
    "PERF_RULES",
    "ArrayGrowthRule",
    "DtypePromotionRule",
    "NdarrayIterationRule",
    "InvariantRecomputeRule",
    "MissingPreallocationRule",
    "perf_rules",
]

#: Deliberate-cast marker: ``# repro-lint: intended-dtype=int64``.
_INTENT_RE = re.compile(r"#\s*repro-lint:\s*intended-dtype=([A-Za-z0-9_.]+)")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)

#: First-level packages whose stages dominate serving/training time.
_HOT_PACKAGES = ("nn", "sampling", "serving", "train")


def _is_hot_module(rel_path: str) -> bool:
    parts = rel_path.replace("\\", "/").split("/")
    return len(parts) > 1 and parts[0] in _HOT_PACKAGES


def _scoped_walk(tree: ast.Module) -> List[Tuple[ast.AST, str, bool]]:
    """Every node with its enclosing scope label and oracle-path flag.

    Returns ``(node, scope, in_reference)`` triples in source order.
    ``scope`` is the dotted chain of enclosing class/function names
    (``"<module>"`` at top level); ``in_reference`` is True inside a
    ``_reference_*`` function, whose deliberately scalar code is
    whitelisted for the whole perf pack.
    """
    out: List[Tuple[ast.AST, str, bool]] = []

    def visit(node: ast.AST, scope: str, ref: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope, child_ref = scope, ref
            if isinstance(child, _FUNCTION_DEFS + (ast.ClassDef,)):
                child_scope = (
                    child.name if scope == "<module>" else f"{scope}.{child.name}"
                )
                if isinstance(child, _FUNCTION_DEFS) and \
                        child.name.startswith("_reference_"):
                    child_ref = True
            out.append((child, child_scope, child_ref))
            visit(child, child_scope, child_ref)

    visit(tree, "<module>", False)
    return out


def _loops_with_scope(tree: ast.Module) -> List[Tuple[ast.AST, str]]:
    """All for/while loops outside ``_reference_*`` oracles, outermost first."""
    return [
        (node, scope)
        for node, scope, ref in _scoped_walk(tree)
        if isinstance(node, _LOOPS) and not ref
    ]


def _scope_units(tree: ast.Module) -> List[Tuple[str, ast.AST, bool]]:
    """The module plus every function, as independent name scopes.

    Returns ``(label, unit, in_reference)``; used where name tracking
    must not leak across functions (two functions reusing a local name
    for different kinds of values).
    """
    units: List[Tuple[str, ast.AST, bool]] = [("<module>", tree, False)]
    for node, scope, ref in _scoped_walk(tree):
        if isinstance(node, _FUNCTION_DEFS):
            units.append((scope, node, ref))
    return units


def _own_walk(unit: ast.AST) -> Iterable[ast.AST]:
    """Walk a scope unit's body without entering nested defs/lambdas.

    Nested functions are still *yielded* (so a unit sees that they
    exist) but never descended into — their bodies belong to their own
    scope unit and must not leak names or loops into this one.
    """
    todo: List[ast.AST] = list(unit.body)
    while todo:
        current = todo.pop()
        yield current
        if isinstance(current, (ast.Lambda,) + _FUNCTION_DEFS):
            continue
        todo.extend(ast.iter_child_nodes(current))


def _walk_loop_body(loop: ast.AST) -> Iterable[ast.AST]:
    """Walk a loop's body without descending into nested defs/lambdas.

    Code inside a nested ``def`` or lambda runs later, outside this
    iteration — per-iteration cost reasoning does not apply to it.
    Nested loops *are* descended into (their statements still run every
    outer iteration); callers dedupe by node id.
    """
    todo: List[ast.AST] = list(loop.body) + list(getattr(loop, "orelse", []))
    while todo:
        current = todo.pop()
        yield current
        if isinstance(current, (ast.Lambda,) + _FUNCTION_DEFS):
            continue
        todo.extend(ast.iter_child_nodes(current))


def _stored_names(loop: ast.AST) -> Set[str]:
    """Names assigned anywhere in the loop (target, body, orelse)."""
    stored: Set[str] = set()
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                stored.add(node.id)
    for stmt in list(loop.body) + list(getattr(loop, "orelse", [])):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                stored.add(node.id)
            elif isinstance(node, ast.arg):
                stored.add(node.arg)
    return stored


def _loop_invariant(expr: ast.AST, stored: Set[str]) -> bool:
    """Lexically loop-invariant: reads no name the loop stores."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and \
                node.id in stored:
            return False
    return True


def _src(node: ast.AST, limit: int = 48) -> str:
    """Compact source rendering for messages (stable baseline keys)."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs we flag
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _loop_kind(loop: ast.AST) -> str:
    return "while" if isinstance(loop, ast.While) else "for"


class ArrayGrowthRule(Rule):
    """R013: arrays must not grow inside loop bodies."""

    code = "R013"
    name = "array-growth-in-loop"
    hint = (
        "growing an ndarray reallocates and copies the whole result "
        "every iteration (quadratic bytes moved); accumulate parts in "
        "a list and concatenate once after the loop, or preallocate "
        "the padded output and fill row slices"
    )

    _GROWTH = frozenset({
        "np.append", "numpy.append",
        "np.concatenate", "numpy.concatenate",
        "np.vstack", "numpy.vstack",
        "np.hstack", "numpy.hstack",
    })
    _MATERIALISERS = frozenset({
        "np.asarray", "numpy.asarray", "np.array", "numpy.array",
    })
    _LIST_GROWERS = frozenset({"append", "extend"})

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[int] = set()
        for loop, scope in _loops_with_scope(ctx.tree):
            grown = self._grown_lists(loop)
            for node in _walk_loop_body(loop):
                if id(node) in seen:
                    continue
                target = self._accumulation(node)
                if target is not None:
                    call = node.value
                    seen.add(id(call))
                    findings.append(self.finding(
                        ctx, call,
                        f"array '{target}' grown with "
                        f"'{dotted(call.func)}' every iteration of a "
                        f"{_loop_kind(loop)} loop in {scope}",
                    ))
                    continue
                if not isinstance(node, ast.Call):
                    continue
                fn = dotted(node.func) or ""
                if fn in self._MATERIALISERS and node.args and \
                        isinstance(node.args[0], ast.Name) and \
                        node.args[0].id in grown:
                    seen.add(id(node))
                    findings.append(self.finding(
                        ctx, node,
                        f"list '{node.args[0].id}' grown in this loop is "
                        f"re-materialised with '{fn}' every iteration in "
                        f"{scope}",
                    ))
        return findings

    def _accumulation(self, node: ast.AST):
        """Target name when ``node`` is ``X = np.concatenate([.. X ..])``.

        Growth means the rebound name is also *read* by the growth call:
        a per-iteration concat of fresh parts (or the sanctioned
        accumulate-then-concat after the loop) is not growth.
        """
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            return None
        target = dotted(node.targets[0])
        if target is None or not isinstance(node.value, ast.Call):
            return None
        fn = dotted(node.value.func) or ""
        if fn not in self._GROWTH:
            return None
        read = {
            dotted(sub)
            for arg in list(node.value.args) +
            [kw.value for kw in node.value.keywords]
            for sub in ast.walk(arg)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        return target if target in read else None

    def _grown_lists(self, loop: ast.AST) -> Set[str]:
        """Names grown via ``x.append``/``x.extend``/``x += ...`` in the loop."""
        grown: Set[str] = set()
        for node in _walk_loop_body(loop):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._LIST_GROWERS and \
                    isinstance(node.func.value, ast.Name):
                grown.add(node.func.value.id)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.Add) and \
                    isinstance(node.target, ast.Name):
                grown.add(node.target.id)
        return grown


class DtypePromotionRule(Rule):
    """R014: no silent dtype-promotion copies in hot modules."""

    code = "R014"
    name = "dtype-promotion-copy"
    hint = (
        "a cast of a freshly computed temporary buys an extra full-size "
        "copy; compute into the target dtype directly (in-place ufunc "
        "with out=, or a single astype of a bound array), or mark a "
        "deliberate coercion boundary with "
        "`# repro-lint: intended-dtype=<dtype>`"
    )

    _FLOAT64 = frozenset({"np.float64", "numpy.float64", "float", "float64"})

    def applies_to(self, rel_path: str) -> bool:
        return _is_hot_module(rel_path)

    def check(self, ctx: FileContext) -> List[Finding]:
        marked = {
            number
            for number, line in enumerate(ctx.lines, start=1)
            if _INTENT_RE.search(line)
        }
        findings: List[Finding] = []
        for node, scope, ref in _scoped_walk(ctx.tree):
            if ref or not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "astype":
                continue
            if node.lineno in marked:
                continue
            receiver = func.value
            if isinstance(receiver, ast.Call) and \
                    isinstance(receiver.func, ast.Attribute) and \
                    receiver.func.attr == "astype":
                findings.append(self.finding(
                    ctx, node,
                    f"chained astype '{_src(node)}' in {scope} "
                    f"materialises one intermediate array per cast",
                ))
            elif isinstance(receiver, (ast.Call, ast.BinOp, ast.UnaryOp)):
                findings.append(self.finding(
                    ctx, node,
                    f"dtype cast of a freshly computed temporary "
                    f"'{_src(node)}' in {scope}",
                ))
            elif self._is_float64_target(node):
                findings.append(self.finding(
                    ctx, node,
                    f"silent float64 promotion '{_src(node)}' in {scope}",
                ))
        return findings

    def _is_float64_target(self, call: ast.Call) -> bool:
        if not call.args:
            return False
        target = call.args[0]
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            return target.value in self._FLOAT64
        name = dotted(target)
        return name in self._FLOAT64


class NdarrayIterationRule(Rule):
    """R015: no Python-level element iteration over ndarrays in hot modules."""

    code = "R015"
    name = "python-iteration-over-ndarray"
    hint = (
        "Python-level element access pays interpreter + boxing cost per "
        "element; replace the loop with vectorised numpy ops (fancy "
        "indexing, ufuncs, reductions), or convert once with tolist() "
        "outside the loop"
    )

    _ARRAY_PREFIXES = ("np.", "numpy.")
    _NDARRAY_ANNOTATIONS = frozenset({"np.ndarray", "numpy.ndarray"})
    #: Bounded group-by iteration (``for code in np.unique(codes)``) and
    #: plain index generation are sanctioned loop headers.
    _HEADER_WHITELIST = frozenset({"unique", "arange"})

    def applies_to(self, rel_path: str) -> bool:
        return _is_hot_module(rel_path)

    def check(self, ctx: FileContext) -> List[Finding]:
        # ``x.tolist()`` *in a loop header* runs once per that loop and
        # is the sanctioned convert-once form — only per-iteration calls
        # in loop bodies are element-wise waste.
        header_nodes: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                header_nodes.update(id(sub) for sub in ast.walk(node.iter))
        findings: List[Finding] = []
        seen: Set[int] = set()
        for scope, unit, ref in _scope_units(ctx.tree):
            if ref:
                continue
            tracked = self._tracked_arrays(unit)
            for loop in _own_walk(unit):
                if not isinstance(loop, _LOOPS):
                    continue
                if isinstance(loop, (ast.For, ast.AsyncFor)) and \
                        id(loop.iter) not in seen:
                    seen.add(id(loop.iter))
                    self._check_loop_header(ctx, loop, scope, tracked,
                                            findings)
                range_target = self._range_target(loop)
                for node in _walk_loop_body(loop):
                    if id(node) in seen:
                        continue
                    if isinstance(node, ast.Call) and \
                            isinstance(node.func, ast.Attribute) and \
                            node.func.attr == "tolist" and \
                            isinstance(node.func.value, ast.Name) and \
                            node.func.value.id in tracked and \
                            id(node) not in header_nodes:
                        seen.add(id(node))
                        findings.append(self.finding(
                            ctx, node,
                            f"per-iteration '{node.func.value.id}"
                            f".tolist()' inside a loop in {scope}",
                        ))
                    elif range_target and isinstance(node, ast.Subscript) and \
                            isinstance(node.ctx, ast.Load) and \
                            isinstance(node.value, ast.Name) and \
                            node.value.id in tracked and \
                            isinstance(node.slice, ast.Name) and \
                            node.slice.id == range_target:
                        seen.add(id(node))
                        findings.append(self.finding(
                            ctx, node,
                            f"scalar element indexing "
                            f"'{node.value.id}[{range_target}]' in a "
                            f"Python range loop in {scope}",
                        ))
        return findings

    def _check_loop_header(self, ctx: FileContext, loop: ast.AST, scope: str,
                           tracked: Set[str], out: List[Finding]) -> None:
        iterated = loop.iter
        if isinstance(iterated, ast.Name) and iterated.id in tracked:
            out.append(self.finding(
                ctx, iterated,
                f"Python-level iteration 'for ... in {iterated.id}' over "
                f"an ndarray in {scope}",
            ))
        elif isinstance(iterated, ast.Call):
            fn = dotted(iterated.func) or ""
            if any(fn.startswith(p) for p in self._ARRAY_PREFIXES) and \
                    fn.split(".")[-1] not in self._HEADER_WHITELIST:
                out.append(self.finding(
                    ctx, iterated,
                    f"Python-level iteration over '{fn}(...)' result "
                    f"in {scope}",
                ))

    @staticmethod
    def _range_target(loop: ast.AST) -> str:
        if isinstance(loop, (ast.For, ast.AsyncFor)) and \
                isinstance(loop.iter, ast.Call) and \
                isinstance(loop.iter.func, ast.Name) and \
                loop.iter.func.id == "range" and \
                isinstance(loop.target, ast.Name):
            return loop.target.id
        return ""

    def _tracked_arrays(self, unit: ast.AST) -> Set[str]:
        """Names bound to numpy-call results (or ndarray-annotated args)
        within one scope unit — tracking is per-function so a name reused
        for a non-array value in another function cannot leak in."""
        tracked: Set[str] = set()
        for node in _own_walk(unit):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                fn = dotted(node.value.func) or ""
                if any(fn.startswith(p) for p in self._ARRAY_PREFIXES):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tracked.add(target.id)
        if isinstance(unit, _FUNCTION_DEFS):
            args = unit.args
            for arg in (list(args.posonlyargs) + list(args.args) +
                        list(args.kwonlyargs)):
                if arg.annotation is not None and \
                        dotted(arg.annotation) in self._NDARRAY_ANNOTATIONS:
                    tracked.add(arg.arg)
        return tracked


class InvariantRecomputeRule(Rule):
    """R016: known-expensive pure helpers must be hoisted out of loops."""

    code = "R016"
    name = "invariant-recompute-in-loop"
    hint = (
        "the call's receiver and arguments never change inside this "
        "loop, but the helper rebuilds/rescans its result every "
        "iteration; hoist the call above the loop and reuse the bound "
        "result"
    )

    #: Pure helpers whose cost is linear in graph/embedding size: CSR
    #: (re)construction, embedding-table gathers, and type-pool scans.
    _EXPENSIVE = frozenset({"csr", "node_embeddings", "type_pool"})

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[int] = set()
        for loop, scope in _loops_with_scope(ctx.tree):
            stored = _stored_names(loop)
            for node in _walk_loop_body(loop):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute) or \
                        func.attr not in self._EXPENSIVE:
                    continue
                if _loop_invariant(node, stored):
                    seen.add(id(node))
                    findings.append(self.finding(
                        ctx, node,
                        f"loop-invariant call '{_src(node)}' recomputed "
                        f"every iteration of a {_loop_kind(loop)} loop "
                        f"in {scope}",
                    ))
        return findings


class MissingPreallocationRule(Rule):
    """R017: loop-invariant-shaped buffers are allocated once, outside."""

    code = "R017"
    name = "missing-preallocation"
    hint = (
        "the allocated shape never changes inside this loop, so every "
        "iteration pays allocator + zeroing cost for an identical "
        "buffer; allocate it once before the loop and overwrite in "
        "place (or write into a preallocated stacked output)"
    )

    _ALLOCATORS = frozenset({
        "np.zeros", "numpy.zeros",
        "np.empty", "numpy.empty",
        "np.ones", "numpy.ones",
        "np.full", "numpy.full",
    })

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[int] = set()
        for loop, scope in _loops_with_scope(ctx.tree):
            stored = _stored_names(loop)
            for node in _walk_loop_body(loop):
                if id(node) in seen or not isinstance(node, ast.Call):
                    continue
                fn = dotted(node.func) or ""
                if fn not in self._ALLOCATORS or not node.args:
                    continue
                shape = node.args[0]
                if isinstance(shape, ast.Constant) and shape.value == 0:
                    # Zero-size sentinel allocations are free.
                    continue
                if _loop_invariant(shape, stored):
                    seen.add(id(node))
                    findings.append(self.finding(
                        ctx, node,
                        f"fresh '{fn}' of loop-invariant shape "
                        f"'{_src(shape)}' allocated every iteration of a "
                        f"{_loop_kind(loop)} loop in {scope}",
                    ))
        return findings


PERF_RULES = (
    ArrayGrowthRule,
    DtypePromotionRule,
    NdarrayIterationRule,
    InvariantRecomputeRule,
    MissingPreallocationRule,
)


def perf_rules() -> List[Rule]:
    """Fresh instances of just the perf pack (for ``repro lint --perf``)."""
    return [cls() for cls in PERF_RULES]
