"""Project-specific AST lint rules for the HybridGNN reproduction.

Each rule encodes a bug class this repository has actually shipped (or
depends on never shipping):

======  ==============================================================
R001    bare ``np.random.*`` / ``random.*`` calls outside ``utils/rng.py``
        (breaks single-seed determinism)
R002    mutable default arguments (the PR 1 ``TrainerConfig`` bug class)
R003    in-place mutation of ``Tensor.data`` / ``.grad`` outside the
        whitelisted optimizer/init modules (corrupts activations saved by
        ``_backward`` closures; invisible to the version counter)
R004    closures defined inside a loop capturing the loop variable by
        reference (late binding mis-wires ``backward`` closures)
R005    float ``==`` / ``!=`` comparisons against float literals
R006    differentiable ``Tensor`` op with no case in the
        ``repro.verify.gradcheck`` registry
R007    wall-clock or environment reads (``time.time``, ``os.environ``)
        inside the deterministic core/nn/sampling paths
R008    ``Tensor`` op implementations constructing result arrays with a
        hard-coded float dtype instead of inheriting the operand dtype
R009    mutation of a ``# repro-lint: guarded-by=<lock>`` attribute
        outside a ``with self.<lock>:`` scope (see
        :mod:`repro.lint.concurrency`)
R011    a numpy ``Generator`` shared across thread/worker boundaries
        instead of per-worker ``spawn_rngs`` streams
R012    blocking calls (``time.sleep``, I/O, ``.join()``) while holding
        a lock/condition
R013    array growth (``np.append``/``np.concatenate``/``np.vstack`` or
        list-grow-then-``asarray``) inside a loop body (see
        :mod:`repro.lint.perf`)
R014    silent dtype-promotion copies (casts of fresh temporaries,
        chained ``astype``, unmarked float64 promotion) in hot modules
R015    Python-level iteration over ndarrays in hot modules
R016    loop-invariant calls to known-expensive helpers (``csr()``,
        ``node_embeddings()``, ``type_pool()``) inside loop bodies
R017    fresh ``np.zeros``/``np.empty`` of a loop-invariant shape
        allocated inside the loop instead of hoisted and reused
======  ==============================================================

Every finding carries a fix hint and can be silenced on its line with
``# repro-lint: disable=RXXX`` or excluded via the committed baseline.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.base import Rule, dotted as _dotted
from repro.lint.engine import FileContext, Finding

__all__ = ["Rule", "all_rules", "RULES"]


class BareRandomRule(Rule):
    """R001: all randomness must flow through ``utils/rng.py``."""

    code = "R001"
    name = "bare-random"
    hint = (
        "thread an explicit numpy Generator through the call chain via "
        "repro.utils.rng.as_rng / spawn_rng instead of module-level RNGs"
    )

    _PREFIXES = ("np.random.", "numpy.random.", "random.")
    _MODULES = {"random", "numpy.random"}

    def applies_to(self, rel_path: str) -> bool:
        return not rel_path.endswith("utils/rng.py")

    def check(self, ctx: FileContext) -> List[Finding]:
        imported: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in self._MODULES:
                imported.update(alias.asname or alias.name for alias in node.names)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _dotted(node.func)
            if fn is None:
                continue
            bare = any(fn.startswith(prefix) for prefix in self._PREFIXES)
            if bare or fn in imported:
                findings.append(self.finding(
                    ctx, node,
                    f"nondeterministic RNG call '{fn}()' outside utils/rng.py",
                ))
        return findings


class MutableDefaultRule(Rule):
    """R002: mutable default arguments are shared across calls."""

    code = "R002"
    name = "mutable-default"
    hint = (
        "default to None and construct the container inside the function "
        "(or use dataclasses.field(default_factory=...))"
    )

    _FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
                  "Counter", "deque"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = _dotted(node.func)
            if fn is None:
                return False
            return fn in self._FACTORIES or fn.split(".")[-1] in self._FACTORIES
        return False

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = list(args.posonlyargs) + list(args.args)
            for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                    args.defaults):
                if self._is_mutable(default):
                    findings.append(self.finding(
                        ctx, default,
                        f"mutable default argument "
                        f"'{arg.arg}={ast.unparse(default)}'",
                    ))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and self._is_mutable(default):
                    findings.append(self.finding(
                        ctx, default,
                        f"mutable default argument "
                        f"'{arg.arg}={ast.unparse(default)}'",
                    ))
        return findings


class BufferMutationRule(Rule):
    """R003: ``.data`` / ``.grad`` must not be mutated in place.

    The sanctioned write path is whole-array assignment
    (``tensor.data = ...``), which bumps the Tensor version counter the
    runtime sanitizer checks.  In-place stores (``+=`` on the buffer,
    slice assignment, ``out=``) bypass the counter and silently corrupt
    activations saved by ``_backward`` closures.
    """

    code = "R003"
    name = "autograd-buffer-mutation"
    hint = (
        "replace the buffer with a fresh array via `tensor.data = ...` "
        "(the version-counted write path); only the whitelisted "
        "optimizer/init/engine modules may mutate in place"
    )

    _WHITELIST = ("nn/optim.py", "nn/init.py", "nn/tensor.py")
    _ATTRS = {"data", "grad"}

    def applies_to(self, rel_path: str) -> bool:
        return not any(rel_path.endswith(entry) for entry in self._WHITELIST)

    def _is_buffer_attr(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self._ATTRS

    def _mentions_buffer(self, node: ast.AST) -> bool:
        return any(self._is_buffer_attr(sub) for sub in ast.walk(node))

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign):
                target = node.target
                base = target.value if isinstance(target, ast.Subscript) else target
                if self._is_buffer_attr(base):
                    findings.append(self.finding(
                        ctx, node,
                        f"in-place update of autograd buffer "
                        f"'{ast.unparse(target)}'",
                    ))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and \
                            self._is_buffer_attr(target.value):
                        findings.append(self.finding(
                            ctx, node,
                            f"slice assignment into autograd buffer "
                            f"'{ast.unparse(target)}'",
                        ))
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "out" and self._mentions_buffer(keyword.value):
                        findings.append(self.finding(
                            ctx, node,
                            f"numpy out= writes into autograd buffer "
                            f"'{ast.unparse(keyword.value)}'",
                        ))
        return findings


class LoopClosureRule(Rule):
    """R004: closures created in a loop see the loop variable's final value."""

    code = "R004"
    name = "loop-closure-capture"
    hint = (
        "bind the current value at definition time (e.g. a default "
        "argument `def backward(grad, i=i)`) or build the closure in a "
        "helper function called with the loop variable"
    )

    def _bound_names(self, func: ast.AST) -> Set[str]:
        bound: Set[str] = set()
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args) +
                    list(args.kwonlyargs)):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, (ast.Store, ast.Del)):
                    bound.add(node.id)
                elif isinstance(node, ast.arg):
                    bound.add(node.arg)
        return bound

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            targets = {
                node.id for node in ast.walk(loop.target)
                if isinstance(node, ast.Name)
            }
            for stmt in loop.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef, ast.Lambda)):
                        continue
                    bound = self._bound_names(node)
                    body = node.body if isinstance(node.body, list) else [node.body]
                    captured = set()
                    for inner_stmt in body:
                        for sub in ast.walk(inner_stmt):
                            if isinstance(sub, ast.Name) and \
                                    isinstance(sub.ctx, ast.Load) and \
                                    sub.id in targets and sub.id not in bound:
                                captured.add(sub.id)
                    for name in sorted(captured):
                        label = getattr(node, "name", "<lambda>")
                        findings.append(self.finding(
                            ctx, node,
                            f"closure '{label}' defined inside a loop "
                            f"captures loop variable '{name}' by reference "
                            f"(late binding)",
                        ))
        return findings


class FloatEqualityRule(Rule):
    """R005: exact float comparison is numerically fragile."""

    code = "R005"
    name = "float-equality"
    hint = (
        "compare with np.isclose/math.isclose or an explicit tolerance; "
        "for degenerate-value guards prefer <= / >= bounds"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left] + list(node.comparators):
                if isinstance(operand, ast.Constant) and \
                        isinstance(operand.value, float):
                    findings.append(self.finding(
                        ctx, node,
                        f"float equality comparison against literal "
                        f"{operand.value!r}",
                    ))
                    break
        return findings


class GradcheckCoverageRule(Rule):
    """R006: every differentiable op needs a gradcheck registry case.

    Cross-checks the AST of any file defining ``class Tensor`` (or
    module-level functionals built on ``Tensor._make``) against the live
    ``repro.verify.gradcheck`` registry introspection, so a new op lands
    with its numeric gradient check or not at all.
    """

    code = "R006"
    name = "gradcheck-coverage"
    hint = (
        "register a case with @register(name, targets=(...)) in "
        "src/repro/verify/gradcheck.py exercising the new op's gradient"
    )

    def _covered(self) -> Set[str]:
        from repro.verify.gradcheck import covered_targets

        return set(covered_targets())

    def check(self, ctx: FileContext) -> List[Finding]:
        tensor_class = None
        functionals = []
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Tensor":
                tensor_class = node
            elif isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_") and \
                    self._builds_tensor(node):
                functionals.append(node)
        if tensor_class is None and not functionals:
            return []

        from repro.verify.gradcheck import _DUNDER_OPS, _NON_DIFF_METHODS

        covered = self._covered()
        findings = []
        if tensor_class is not None:
            for member in tensor_class.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if self._is_property(member):
                    continue
                if member.name in _DUNDER_OPS:
                    op = _DUNDER_OPS[member.name]
                elif member.name.startswith("_") or \
                        member.name in _NON_DIFF_METHODS:
                    continue
                else:
                    op = member.name
                target = f"Tensor.{op}"
                if target not in covered:
                    findings.append(self.finding(
                        ctx, member,
                        f"differentiable op '{target}' has no case in the "
                        f"verify.gradcheck registry",
                    ))
        for node in functionals:
            if node.name not in covered:
                findings.append(self.finding(
                    ctx, node,
                    f"differentiable functional '{node.name}' has no case "
                    f"in the verify.gradcheck registry",
                ))
        return findings

    @staticmethod
    def _is_property(member: ast.FunctionDef) -> bool:
        for decorator in member.decorator_list:
            name = _dotted(decorator) or ""
            if name == "property" or name.endswith(".setter") or \
                    name.endswith(".getter") or name == "staticmethod":
                return True
        return False

    @staticmethod
    def _builds_tensor(node: ast.FunctionDef) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _dotted(sub.func) == "Tensor._make":
                return True
        return False


class EnvironmentReadRule(Rule):
    """R007: core paths must be deterministic functions of inputs + seed."""

    code = "R007"
    name = "environment-read"
    hint = (
        "pass the value in through a config/profile argument; wall-clock "
        "and environment reads belong in perf/, experiments/ or the CLI"
    )

    _RESTRICTED = ("core/", "nn/", "sampling/")
    _CALLS = {
        "time.time", "time.monotonic", "time.perf_counter",
        "time.process_time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.datetime.now",
        "datetime.datetime.utcnow", "date.today", "datetime.date.today",
        "os.getenv",
    }

    def applies_to(self, rel_path: str) -> bool:
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in rel_path
            for prefix in self._RESTRICTED
        )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fn = _dotted(node.func)
                if fn and (fn in self._CALLS or fn.startswith("os.environ.")):
                    findings.append(self.finding(
                        ctx, node,
                        f"environment-dependent call '{fn}' in a "
                        f"deterministic core path",
                    ))
            elif isinstance(node, ast.Subscript):
                if _dotted(node.value) == "os.environ" and \
                        isinstance(node.ctx, ast.Load):
                    findings.append(self.finding(
                        ctx, node,
                        "os.environ read in a deterministic core path",
                    ))
        return findings


class HardcodedDtypeRule(Rule):
    """R008: op results must inherit operand dtype, not pin their own.

    A ``Tensor`` op (a ``Tensor`` method or a functional built on
    ``Tensor._make``) that constructs its result or an intermediate with
    an explicit float dtype (``np.zeros(..., dtype=np.float64)``,
    ``.astype(np.float32)``) silently promotes or truncates whatever
    dtype flows in, which the graph checker then reports as a C004
    promotion on every model.  Inherit the operand dtype
    (``dtype=x.dtype``) instead.  Intentional coercion boundaries
    (``Tensor.__init__``, the ``data`` setter, ``backward`` seeding) are
    carried in the lint baseline.
    """

    code = "R008"
    name = "hardcoded-dtype"
    hint = (
        "derive the result dtype from the operand (e.g. dtype=self._data.dtype "
        "or .astype(x.dtype)); hard-coded float dtypes belong only at the "
        "Tensor construction boundary"
    )

    _FLOAT_DTYPES = {
        "np.float64", "np.float32", "np.float16", "numpy.float64",
        "numpy.float32", "numpy.float16", "np.single", "np.double",
        "numpy.single", "numpy.double",
    }

    def _float_dtype_name(self, node: ast.AST) -> Optional[str]:
        name = _dotted(node)
        if name in self._FLOAT_DTYPES:
            return name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                node.value.startswith(("float", "single", "double")):
            return repr(node.value)
        return None

    def _check_scope(self, ctx: FileContext, scope: ast.FunctionDef,
                     where: str) -> List[Finding]:
        findings = []
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg != "dtype":
                    continue
                name = self._float_dtype_name(keyword.value)
                if name is not None:
                    findings.append(self.finding(
                        ctx, node,
                        f"hard-coded result dtype {name} in {where}",
                    ))
            fn = _dotted(node.func)
            if fn and fn.endswith(".astype") and node.args:
                name = self._float_dtype_name(node.args[0])
                if name is not None:
                    findings.append(self.finding(
                        ctx, node,
                        f"hard-coded .astype({name}) in {where}",
                    ))
        return findings

    def check(self, ctx: FileContext) -> List[Finding]:
        findings = []
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Tensor":
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        findings.extend(self._check_scope(
                            ctx, member, f"Tensor.{member.name}"))
            elif isinstance(node, ast.FunctionDef) and \
                    GradcheckCoverageRule._builds_tensor(node):
                findings.extend(self._check_scope(ctx, node, node.name))
        return findings


# Imported here (not at the top) so the concurrency/perf packs can reuse
# the shared base without a circular import; see repro/lint/base.py.
from repro.lint.concurrency import CONCURRENCY_RULES  # noqa: E402
from repro.lint.perf import PERF_RULES  # noqa: E402

RULES = (
    BareRandomRule,
    MutableDefaultRule,
    BufferMutationRule,
    LoopClosureRule,
    FloatEqualityRule,
    GradcheckCoverageRule,
    EnvironmentReadRule,
    HardcodedDtypeRule,
) + CONCURRENCY_RULES + PERF_RULES


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [cls() for cls in RULES]
