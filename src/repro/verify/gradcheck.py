"""Vectorised numeric gradient checking with a case registry.

Three features set it apart from a plain per-element central-difference
loop:

- **relative steps**: central differences use a per-element step
  ``eps * max(1, |x|)``, so parameters far from unit scale (huge embedding
  rows, tiny attention logits) are perturbed at the right magnitude instead
  of a fixed absolute ``1e-6``;
- **subset sampling**: large tensors are checked on a random subset of
  elements (every element of small tensors), bounding the number of forward
  evaluations while keeping coverage unbiased;
- **directional probe**: one extra pair of forward evaluations perturbs
  *every* element of *every* checked tensor along a random direction and
  compares against the analytic directional derivative — a whole-graph
  consistency check that costs O(1) evaluations regardless of parameter
  count.

On top of the engine sits a **registry** of gradient-check cases covering
every differentiable public op and module of :mod:`repro.nn` plus the core
HybridGNN modules (hierarchical attention, skip-gram loss, and the full
model forward).  :func:`uncovered_targets` computes which required targets
lack a case — the test suite asserts it is empty, so adding a new op without
a gradcheck fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Module, ModuleDict, ModuleList, Parameter
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng, spawn_rng

__all__ = [
    "TensorCheck",
    "GradCheckReport",
    "GradCheckCase",
    "numeric_gradient",
    "check_gradients",
    "check_gradients_report",
    "register",
    "gradcheck_cases",
    "run_gradcheck_suite",
    "required_targets",
    "covered_targets",
    "uncovered_targets",
    "registry_coverage",
    "freeze_rngs",
]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class TensorCheck:
    """Numeric-vs-analytic comparison for one tensor of one case."""

    name: str
    size: int
    checked: int
    max_abs_diff: float
    max_rel_diff: float
    worst_index: int
    passed: bool
    message: str = ""

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "size": self.size,
            "checked": self.checked,
            "max_abs_diff": self.max_abs_diff,
            "max_rel_diff": self.max_rel_diff,
            "worst_index": self.worst_index,
            "passed": self.passed,
            "message": self.message,
        }


@dataclass
class GradCheckReport:
    """Structured result of one gradient-check case."""

    case: str
    tensors: List[TensorCheck] = field(default_factory=list)
    directional_abs_diff: float = 0.0
    directional_passed: bool = True

    @property
    def passed(self) -> bool:
        return self.directional_passed and all(t.passed for t in self.tensors)

    @property
    def max_abs_diff(self) -> float:
        diffs = [t.max_abs_diff for t in self.tensors] + [self.directional_abs_diff]
        return float(max(diffs)) if diffs else 0.0

    @property
    def checked_elements(self) -> int:
        return sum(t.checked for t in self.tensors)

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        lines = [
            f"gradcheck[{self.case}] {status}: "
            f"{self.checked_elements} elements, max |diff| {self.max_abs_diff:.3g}"
        ]
        for t in self.tensors:
            if not t.passed:
                lines.append(
                    f"  {t.name}: max |numeric - analytic| = {t.max_abs_diff:.3g} "
                    f"at flat index {t.worst_index} ({t.checked}/{t.size} checked)"
                    + (f" [{t.message}]" if t.message else "")
                )
        if not self.directional_passed:
            lines.append(
                f"  directional probe: |diff| = {self.directional_abs_diff:.3g}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "max_abs_diff": self.max_abs_diff,
            "checked_elements": self.checked_elements,
            "directional_abs_diff": self.directional_abs_diff,
            "directional_passed": self.directional_passed,
            "tensors": [t.to_dict() for t in self.tensors],
        }


# ----------------------------------------------------------------------
# Core numeric differentiation
# ----------------------------------------------------------------------
def _steps_for(values: np.ndarray, eps: float) -> np.ndarray:
    """Per-element relative step ``eps * max(1, |x|)``."""
    return eps * np.maximum(1.0, np.abs(values))


def numeric_gradient(
    func: Callable[[], Tensor],
    tensor: Tensor,
    eps: float = 1e-6,
    indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central-difference gradient of scalar ``func()`` w.r.t. ``tensor``.

    The step for element ``x`` is ``eps * max(1, |x|)`` — a relative step
    that stays accurate for parameters of any magnitude (the historical
    absolute ``eps`` underflowed the perturbation for large weights and
    swamped small ones).

    ``indices`` restricts the computation to a subset of flat indices;
    unchecked entries of the returned array are zero.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    if indices is None:
        indices = np.arange(flat.size)
    steps = _steps_for(flat[indices], eps)
    for idx, h in zip(indices.tolist(), steps.tolist()):
        original = flat[idx]
        flat[idx] = original + h
        plus = func().item()
        flat[idx] = original - h
        minus = func().item()
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2.0 * h)
    return grad


def _directional_probe(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    grads: Sequence[Optional[np.ndarray]],
    eps: float,
    rng: np.random.Generator,
) -> float:
    """|numeric - analytic| directional derivative along a random direction.

    Perturbs all elements of all tensors at once (scaled per element like
    :func:`numeric_gradient`), so gradient bugs anywhere in the graph show
    up for two extra forward evaluations total.
    """
    directions = [rng.standard_normal(t.data.shape) for t in tensors]
    scales = [np.maximum(1.0, np.abs(t.data)) for t in tensors]
    originals = [t.data.copy() for t in tensors]
    try:
        for t, o, d, s in zip(tensors, originals, directions, scales):
            t.data = o + eps * s * d
        plus = func().item()
        for t, o, d, s in zip(tensors, originals, directions, scales):
            t.data = o - eps * s * d
        minus = func().item()
    finally:
        for t, o in zip(tensors, originals):
            t.data = o
    numeric = (plus - minus) / (2.0 * eps)
    analytic = sum(
        float((g * s * d).sum())
        for g, s, d in zip(grads, scales, directions)
        if g is not None
    )
    return abs(numeric - analytic)


def check_gradients_report(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    names: Optional[Sequence[str]] = None,
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-4,
    max_elements: Optional[int] = None,
    rng: SeedLike = None,
    case: str = "adhoc",
) -> GradCheckReport:
    """Compare autograd gradients of ``func`` against numeric ones.

    ``func`` must rebuild the graph on each call (it is invoked repeatedly
    with perturbed inputs).  When ``max_elements`` is set, tensors larger
    than that are checked on a random element subset.  Never raises —
    failures are recorded in the returned :class:`GradCheckReport`.
    """
    rng = as_rng(rng)
    tensors = list(tensors)
    if names is None:
        names = [t.name or f"tensor{i}" for i, t in enumerate(tensors)]
    for tensor in tensors:
        tensor.zero_grad()
    out = func()
    out.backward()
    grads = [None if t.grad is None else t.grad.copy() for t in tensors]
    for tensor in tensors:
        tensor.zero_grad()

    report = GradCheckReport(case=case)
    for tensor, grad, name in zip(tensors, grads, names):
        size = tensor.data.size
        if grad is None:
            report.tensors.append(
                TensorCheck(
                    name=name, size=size, checked=0, max_abs_diff=float("inf"),
                    max_rel_diff=float("inf"), worst_index=-1, passed=False,
                    message="no gradient reached this tensor",
                )
            )
            continue
        if max_elements is not None and size > max_elements:
            indices = np.sort(rng.choice(size, size=max_elements, replace=False))
        else:
            indices = np.arange(size)
        numeric = numeric_gradient(func, tensor, eps=eps, indices=indices)
        num = numeric.reshape(-1)[indices]
        ana = grad.reshape(-1)[indices]
        diff = np.abs(num - ana)
        tol = atol + rtol * np.abs(num)
        worst = int(np.argmax(diff - tol))
        rel = diff / np.maximum(np.abs(num), 1e-12)
        report.tensors.append(
            TensorCheck(
                name=name,
                size=size,
                checked=len(indices),
                max_abs_diff=float(diff.max()) if len(diff) else 0.0,
                max_rel_diff=float(rel.max()) if len(rel) else 0.0,
                worst_index=int(indices[worst]) if len(diff) else -1,
                passed=bool(np.all(diff <= tol)),
            )
        )

    probe_diff = _directional_probe(func, tensors, grads, eps, rng)
    # Tolerance for the probe scales with the gradient mass it aggregates.
    mass = sum(float(np.abs(g).sum()) for g in grads if g is not None)
    report.directional_abs_diff = float(probe_diff)
    report.directional_passed = bool(probe_diff <= atol * 10 + rtol * 10 * max(mass, 1.0))
    return report


def check_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradients of ``func`` match numeric ones.

    Historical assertion-style interface (every element checked); the
    engine behind it is :func:`check_gradients_report`.
    """
    report = check_gradients_report(
        func, tensors, eps=eps, atol=atol, rtol=rtol, max_elements=None, rng=0
    )
    assert report.passed, report.summary()


# ----------------------------------------------------------------------
# Deterministic replay of stochastic modules
# ----------------------------------------------------------------------
def _collect_generators(obj, seen: set, out: List[np.random.Generator]) -> None:
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.random.Generator):
        out.append(obj)
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _collect_generators(item, seen, out)
        return
    if isinstance(obj, dict):
        for item in obj.values():
            _collect_generators(item, seen, out)
        return
    # Recurse only into this package's objects to bound the walk.
    if type(obj).__module__.split(".")[0] == "repro" and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _collect_generators(item, seen, out)


def freeze_rngs(func: Callable[[], Tensor], *roots) -> Callable[[], Tensor]:
    """Wrap ``func`` so every RNG reachable from ``roots`` replays identically.

    Needed to gradcheck stochastic modules (dropout, neighborhood sampling):
    the wrapper snapshots the state of every :class:`numpy.random.Generator`
    found by walking the roots and restores it before each call, making the
    function deterministic under repeated evaluation.
    """
    generators: List[np.random.Generator] = []
    _collect_generators(list(roots), set(), generators)
    states = [gen.bit_generator.state for gen in generators]

    def frozen() -> Tensor:
        for gen, state in zip(generators, states):
            gen.bit_generator.state = state
        return func()

    return frozen


# ----------------------------------------------------------------------
# Case registry
# ----------------------------------------------------------------------
BuildResult = Tuple[Callable[[], Tensor], List[Tensor], List[str]]


@dataclass(frozen=True)
class GradCheckCase:
    """A named, reproducible gradient-check scenario.

    ``build(rng)`` returns ``(func, tensors, names)`` where ``func`` is the
    scalar forward closure and ``tensors`` the leaves to check.  ``targets``
    names the public ops/modules the case covers (for coverage accounting).
    """

    name: str
    targets: Tuple[str, ...]
    build: Callable[[np.random.Generator], BuildResult]
    atol: float = 1e-4
    rtol: float = 1e-4
    eps: float = 1e-6
    max_elements: Optional[int] = 32


_REGISTRY: Dict[str, GradCheckCase] = {}


def register(name: str, targets: Sequence[str], **overrides):
    """Decorator adding a case builder to the registry."""

    def decorate(build: Callable[[np.random.Generator], BuildResult]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate gradcheck case {name!r}")
        _REGISTRY[name] = GradCheckCase(
            name=name, targets=tuple(targets), build=build, **overrides
        )
        return build

    return decorate


def gradcheck_cases() -> List[GradCheckCase]:
    """All registered cases, in registration order."""
    return list(_REGISTRY.values())


def run_gradcheck_suite(
    names: Optional[Sequence[str]] = None, seed: int = 0
) -> List[GradCheckReport]:
    """Run every (or the named) registered case; never raises."""
    selected = gradcheck_cases()
    if names is not None:
        wanted = set(names)
        unknown = wanted - {case.name for case in selected}
        if unknown:
            raise KeyError(f"unknown gradcheck cases: {sorted(unknown)}")
        selected = [case for case in selected if case.name in wanted]
    reports = []
    for index, case in enumerate(selected):
        rng = as_rng((seed, index))
        try:
            func, tensors, tensor_names = case.build(rng)
            report = check_gradients_report(
                func, tensors, names=tensor_names, eps=case.eps, atol=case.atol,
                rtol=case.rtol, max_elements=case.max_elements, rng=rng,
                case=case.name,
            )
        except Exception as exc:  # surface builder/runtime errors as failures
            report = GradCheckReport(case=case.name)
            report.tensors.append(
                TensorCheck(
                    name="<build>", size=0, checked=0,
                    max_abs_diff=float("inf"), max_rel_diff=float("inf"),
                    worst_index=-1, passed=False,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )
        reports.append(report)
    return reports


# ----------------------------------------------------------------------
# Coverage accounting
# ----------------------------------------------------------------------
_DUNDER_OPS = {
    "__add__": "add",
    "__neg__": "neg",
    "__sub__": "sub",
    "__mul__": "mul",
    "__truediv__": "truediv",
    "__pow__": "pow",
    "__matmul__": "matmul",
    "__getitem__": "getitem",
}

#: Tensor methods that do not produce differentiable outputs.
_NON_DIFF_METHODS = {"numpy", "item", "detach", "zero_grad", "backward",
                     "grad_rows", "subtract_rows"}

#: ``repro.nn.__all__`` entries that are not differentiable-op targets.
_NON_DIFF_EXPORTS = {
    "Tensor",
    "init",
    "make_aggregator",
    # Sanitizer control surface (repro.nn.sanitizer) — no gradients involved.
    "sanitize",
    "set_sanitizer",
    "sanitizer_enabled",
    "detect_anomaly",
    "set_detect_anomaly",
    "anomaly_enabled",
}

#: Core-package targets the registry must also cover.
CORE_TARGETS = (
    "core.softplus",
    "core.skip_gram_loss",
    "core.MetapathLevelAttention",
    "core.RelationshipLevelAttention",
    "core.HybridGNN",
)


def tensor_ops() -> List[str]:
    """Differentiable :class:`Tensor` operations, discovered by inspection.

    New ops added to ``Tensor`` automatically appear here, so the coverage
    test fails until a gradcheck case exists for them.
    """
    ops = set()
    for name, member in vars(Tensor).items():
        if name in _DUNDER_OPS:
            ops.add(_DUNDER_OPS[name])
        elif name.startswith("_") or name in _NON_DIFF_METHODS:
            continue
        elif callable(member):
            ops.add(name)
    return sorted(ops)


def required_targets() -> List[str]:
    """Every op/module the registry must cover."""
    import repro.nn as nn
    from repro.nn.aggregators import Aggregator

    targets = {f"Tensor.{op}" for op in tensor_ops()}
    containers = (Module, ModuleList, ModuleDict)
    for name in nn.__all__:
        if name in _NON_DIFF_EXPORTS:
            continue
        obj = getattr(nn, name)
        if isinstance(obj, type):
            if obj in containers or obj is Aggregator or obj is Parameter:
                continue
            if issubclass(obj, Optimizer):
                continue
            if issubclass(obj, Module):
                targets.add(name)
        elif callable(obj):
            targets.add(name)
    targets.update(CORE_TARGETS)
    return sorted(targets)


def covered_targets() -> List[str]:
    covered = set()
    for case in _REGISTRY.values():
        covered.update(case.targets)
    return sorted(covered)


def uncovered_targets() -> List[str]:
    """Required targets with no registered case (must be empty)."""
    return sorted(set(required_targets()) - set(covered_targets()))


def registry_coverage() -> Dict[str, List[str]]:
    """Map each required target to the cases covering it."""
    coverage: Dict[str, List[str]] = {target: [] for target in required_targets()}
    for case in _REGISTRY.values():
        for target in case.targets:
            coverage.setdefault(target, []).append(case.name)
    return coverage


# ----------------------------------------------------------------------
# Registered cases: Tensor ops
# ----------------------------------------------------------------------
def _t(rng: np.random.Generator, *shape: int, positive: bool = False,
       away_from_zero: float = 0.0, scale: float = 1.0, name: str = "") -> Tensor:
    data = rng.standard_normal(shape) * scale
    if positive:
        data = np.abs(data) + 0.5
    elif away_from_zero:
        data = data + away_from_zero * np.sign(data + (data == 0))
    return Tensor(data, requires_grad=True, name=name)


@register("tensor.add", targets=("Tensor.add",))
def _case_add(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4)  # broadcasting exercised
    return (lambda: (a + b).sum()), [a, b], ["a", "b"]


@register("tensor.neg", targets=("Tensor.neg",))
def _case_neg(rng):
    a = _t(rng, 3, 4)
    return (lambda: (-a).sum()), [a], ["a"]


@register("tensor.sub", targets=("Tensor.sub",))
def _case_sub(rng):
    a, b = _t(rng, 2, 5), _t(rng, 1, 5)
    return (lambda: (a - b).sum()), [a, b], ["a", "b"]


@register("tensor.mul", targets=("Tensor.mul",))
def _case_mul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 1)
    return (lambda: (a * b).sum()), [a, b], ["a", "b"]


@register("tensor.truediv", targets=("Tensor.truediv",))
def _case_div(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 4, positive=True)
    return (lambda: (a / b).sum()), [a, b], ["a", "b"]


@register("tensor.pow", targets=("Tensor.pow",))
def _case_pow(rng):
    a = _t(rng, 3, 4, positive=True)
    return (lambda: (a ** 1.7).sum()), [a], ["a"]


@register("tensor.matmul", targets=("Tensor.matmul",))
def _case_matmul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    return (lambda: (a @ b).sum()), [a, b], ["a", "b"]


@register("tensor.matmul_batched", targets=("Tensor.matmul",))
def _case_matmul_batched(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 4, 5)
    return (lambda: (a @ b).sum()), [a, b], ["a", "b"]


@register("tensor.matmul_vector", targets=("Tensor.matmul",))
def _case_matmul_vector(rng):
    a, b = _t(rng, 4), _t(rng, 3, 4, 2)
    return (lambda: (a @ b).sum()), [a, b], ["a", "b"]


@register("tensor.sum", targets=("Tensor.sum",))
def _case_sum(rng):
    a = _t(rng, 3, 4)
    weights = rng.standard_normal(3)
    return (lambda: (a.sum(axis=1) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.mean", targets=("Tensor.mean",))
def _case_mean(rng):
    a = _t(rng, 3, 4)
    weights = rng.standard_normal((3, 1))
    return (lambda: (a.mean(axis=1, keepdims=True) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.max", targets=("Tensor.max",))
def _case_max(rng):
    a = _t(rng, 4, 5)
    return (lambda: a.max(axis=1).sum()), [a], ["a"]


@register("tensor.exp", targets=("Tensor.exp",))
def _case_exp(rng):
    a = _t(rng, 3, 4)
    return (lambda: a.exp().sum()), [a], ["a"]


@register("tensor.log", targets=("Tensor.log",))
def _case_log(rng):
    a = _t(rng, 3, 4, positive=True)
    return (lambda: a.log().sum()), [a], ["a"]


@register("tensor.sigmoid", targets=("Tensor.sigmoid",))
def _case_sigmoid(rng):
    a = _t(rng, 3, 4, scale=2.0)
    return (lambda: a.sigmoid().sum()), [a], ["a"]


@register("tensor.tanh", targets=("Tensor.tanh",))
def _case_tanh(rng):
    a = _t(rng, 3, 4)
    return (lambda: a.tanh().sum()), [a], ["a"]


@register("tensor.relu", targets=("Tensor.relu",))
def _case_relu(rng):
    a = _t(rng, 4, 5, away_from_zero=0.2)
    return (lambda: a.relu().sum()), [a], ["a"]


@register("tensor.leaky_relu", targets=("Tensor.leaky_relu",))
def _case_leaky_relu(rng):
    a = _t(rng, 4, 5, away_from_zero=0.2)
    return (lambda: a.leaky_relu(0.1).sum()), [a], ["a"]


@register("tensor.softmax", targets=("Tensor.softmax",))
def _case_softmax(rng):
    a = _t(rng, 3, 5)
    weights = rng.standard_normal((3, 5))
    return (lambda: (a.softmax(axis=-1) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.log_softmax", targets=("Tensor.log_softmax",))
def _case_log_softmax(rng):
    a = _t(rng, 3, 5)
    weights = rng.standard_normal((3, 5))
    return (lambda: (a.log_softmax(axis=-1) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.reshape", targets=("Tensor.reshape",))
def _case_reshape(rng):
    a = _t(rng, 3, 4)
    weights = rng.standard_normal((2, 6))
    return (lambda: (a.reshape(2, 6) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.transpose", targets=("Tensor.transpose",))
def _case_transpose(rng):
    a = _t(rng, 3, 4)
    weights = rng.standard_normal((4, 3))
    return (lambda: (a.transpose(-2, -1) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.getitem", targets=("Tensor.getitem",))
def _case_getitem(rng):
    a = _t(rng, 5, 4)
    idx = np.asarray([0, 2, 2, 4])  # repeated rows exercise scatter-add
    return (lambda: (a[1:4].sum() + a[idx].sum())), [a], ["a"]


@register("tensor.squeeze_unsqueeze", targets=("Tensor.squeeze", "Tensor.unsqueeze"))
def _case_squeeze(rng):
    a = _t(rng, 3, 1, 4)
    weights = rng.standard_normal((1, 3, 4))
    return (lambda: (a.squeeze(1).unsqueeze(0) * Tensor(weights)).sum()), [a], ["a"]


@register("tensor.broadcast_to", targets=("Tensor.broadcast_to",))
def _case_broadcast(rng):
    a = _t(rng, 1, 4)
    weights = rng.standard_normal((3, 4))
    return (lambda: (a.broadcast_to((3, 4)) * Tensor(weights)).sum()), [a], ["a"]


# ----------------------------------------------------------------------
# Registered cases: functional ops
# ----------------------------------------------------------------------
@register("functional.concat", targets=("concat",))
def _case_concat(rng):
    from repro.nn.tensor import concat

    a, b = _t(rng, 2, 3), _t(rng, 2, 4)
    weights = rng.standard_normal((2, 7))
    return (lambda: (concat([a, b], axis=1) * Tensor(weights)).sum()), [a, b], ["a", "b"]


@register("functional.stack", targets=("stack",))
def _case_stack(rng):
    from repro.nn.tensor import stack

    a, b = _t(rng, 2, 3), _t(rng, 2, 3)
    weights = rng.standard_normal((2, 2, 3))
    return (lambda: (stack([a, b], axis=1) * Tensor(weights)).sum()), [a, b], ["a", "b"]


@register("functional.embedding_lookup", targets=("embedding_lookup",))
def _case_embedding_lookup(rng):
    from repro.nn.tensor import embedding_lookup

    weight = _t(rng, 6, 4)
    idx = np.asarray([[0, 2], [2, 5]])  # repeated rows exercise scatter-add
    return (lambda: embedding_lookup(weight, idx).sum()), [weight], ["weight"]


@register("functional.gather_rows", targets=("gather_rows",))
def _case_gather_rows(rng):
    from repro.nn.tensor import gather_rows

    x = _t(rng, 2, 3, 4)  # stacked: flat row s * 3 + i is x[s, i]
    idx = np.asarray([[0, 2, 2], [5, 3, 5]])  # repeated rows exercise scatter-add
    weights = rng.standard_normal((2, 3, 4))
    return (lambda: (gather_rows(x, idx) * Tensor(weights)).sum()), [x], ["x"]


@register("functional.gather_rows_sampled_layout", targets=("gather_rows",))
def _case_gather_rows_sampled_layout(rng):
    from repro.nn.tensor import gather_rows
    from repro.sampling.neighbor_sampler import sample_blocks

    def draw(shift):
        return lambda hop, frontier, fanout: (
            (shift * frontier[:, None] + np.arange(fanout)) % (3 + shift))

    # Two slices of different widths: padded rows, offsets and repeats.
    blocks = sample_blocks(np.asarray([3, 1, 3, 0]), [3], [draw(1), draw(2)])
    children, layout = blocks.children[0], blocks.children_segments[0]
    x = _t(rng, 2, blocks.nodes[1].shape[1], 4)
    weights = rng.standard_normal(children.shape + (4,))
    return (lambda: (gather_rows(x, children, layout) * Tensor(weights)).sum()), [x], ["x"]


@register("functional.sparse_matmul", targets=("sparse_matmul",))
def _case_sparse_matmul(rng):
    from scipy import sparse

    from repro.nn.tensor import sparse_matmul

    dense = (rng.random((4, 5)) < 0.5) * rng.standard_normal((4, 5))
    matrix = sparse.csr_matrix(dense)
    x = _t(rng, 5, 3)
    return (lambda: sparse_matmul(matrix, x).sum()), [x], ["x"]


@register("functional.where", targets=("where",))
def _case_where(rng):
    from repro.nn.tensor import where

    condition = rng.random((3, 4)) < 0.5
    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    return (lambda: where(condition, a, b).sum()), [a, b], ["a", "b"]


# ----------------------------------------------------------------------
# Registered cases: layers and aggregators
# ----------------------------------------------------------------------
@register("layers.linear", targets=("Linear",))
def _case_linear(rng):
    from repro.nn.layers import Linear

    layer = Linear(4, 3, rng=spawn_rng(rng))
    x = _t(rng, 5, 4)
    tensors = [x, layer.weight, layer.bias]
    return (lambda: layer(x).sum()), tensors, ["x", "weight", "bias"]


@register("layers.embedding", targets=("Embedding",))
def _case_embedding(rng):
    from repro.nn.layers import Embedding

    layer = Embedding(7, 4, rng=spawn_rng(rng))
    idx = np.asarray([0, 3, 3, 6])
    return (lambda: layer(idx).sum()), [layer.weight], ["weight"]


@register("layers.dropout", targets=("Dropout",))
def _case_dropout(rng):
    from repro.nn.layers import Dropout

    layer = Dropout(p=0.4, rng=spawn_rng(rng))
    x = _t(rng, 5, 6)
    func = freeze_rngs(lambda: layer(x).sum(), layer)
    return func, [x], ["x"]


@register("layers.layer_norm", targets=("LayerNorm",))
def _case_layer_norm(rng):
    from repro.nn.layers import LayerNorm

    layer = LayerNorm(6)
    x = _t(rng, 4, 6)
    weights = rng.standard_normal((4, 6))
    tensors = [x, layer.gamma, layer.beta]
    return (
        (lambda: (layer(x) * Tensor(weights)).sum()),
        tensors,
        ["x", "gamma", "beta"],
    )


@register("layers.sequential", targets=("Sequential", "ReLU"))
def _case_sequential(rng):
    from repro.nn.layers import Linear, ReLU, Sequential

    model = Sequential(
        Linear(4, 5, rng=spawn_rng(rng)), ReLU(), Linear(5, 2, rng=spawn_rng(rng))
    )
    x = _t(rng, 3, 4)
    tensors = [x, model.steps[0].weight, model.steps[2].weight]
    return (lambda: model(x).sum()), tensors, ["x", "w0", "w2"]


@register("layers.tanh_module", targets=("Tanh",))
def _case_tanh_module(rng):
    from repro.nn.layers import Tanh

    x = _t(rng, 3, 4)
    layer = Tanh()
    return (lambda: layer(x).sum()), [x], ["x"]


@register("layers.self_attention", targets=("SelfAttention",))
def _case_self_attention(rng):
    from repro.nn.attention import SelfAttention

    attn = SelfAttention(4, 3, rng=spawn_rng(rng))
    x = _t(rng, 2, 5, 4)
    tensors = [x, attn.query.weight, attn.key.weight, attn.value.weight]
    return (lambda: attn(x).sum()), tensors, ["x", "wq", "wk", "wv"]


@register("aggregators.mean", targets=("MeanAggregator",))
def _case_mean_aggregator(rng):
    from repro.nn.aggregators import MeanAggregator

    agg = MeanAggregator(4, 3, rng=spawn_rng(rng))
    s, n = _t(rng, 5, 4), _t(rng, 5, 3, 4)
    tensors = [s, n, agg.combine.weight]
    return (lambda: agg(s, n).sum()), tensors, ["self", "neighbors", "combine.weight"]


@register("aggregators.pool", targets=("MaxPoolAggregator",))
def _case_pool_aggregator(rng):
    from repro.nn.aggregators import MaxPoolAggregator

    agg = MaxPoolAggregator(4, 3, rng=spawn_rng(rng))
    s, n = _t(rng, 5, 4), _t(rng, 5, 3, 4)
    tensors = [s, n, agg.transform.weight]
    return (lambda: agg(s, n).sum()), tensors, ["self", "neighbors", "transform.weight"]


@register("aggregators.lstm", targets=("LSTMAggregator",), atol=2e-3, rtol=2e-3)
def _case_lstm_aggregator(rng):
    from repro.nn.aggregators import LSTMAggregator

    agg = LSTMAggregator(3, 2, rng=spawn_rng(rng))
    s, n = _t(rng, 4, 3), _t(rng, 4, 3, 3)
    tensors = [s, n, agg.gates.weight, agg.gates.bias]
    return (
        (lambda: agg(s, n).sum()),
        tensors,
        ["self", "neighbors", "gates.weight", "gates.bias"],
    )


@register("aggregators.stacked", targets=("MeanAggregator", "MaxPoolAggregator",
                                          "LSTMAggregator"), atol=2e-3, rtol=2e-3)
def _case_stacked_aggregators(rng):
    from repro.nn.aggregators import make_aggregator

    # Three stacked aggregators over (S=2, rows, d) activations; the bias
    # rides in each stacked weight's last input row.
    aggs = [make_aggregator(kind, 3, 2, rng=spawn_rng(rng), stack=2)
            for kind in ("mean", "pool", "lstm")]
    s, n = _t(rng, 2, 4, 3), _t(rng, 2, 4, 3, 3)
    tensors = [s, n] + [agg.combine.weight for agg in aggs]
    return (
        (lambda: sum(agg(s, n) for agg in aggs).sum()),
        tensors,
        ["self", "neighbors", "mean.combine", "pool.combine", "lstm.combine"],
    )


# ----------------------------------------------------------------------
# Registered cases: core model components
# ----------------------------------------------------------------------
@register("core.softplus", targets=("core.softplus",))
def _case_softplus(rng):
    from repro.core.loss import softplus

    x = _t(rng, 4, 5, scale=3.0)
    return (lambda: softplus(x).sum()), [x], ["x"]


@register("core.skip_gram_loss", targets=("core.skip_gram_loss",))
def _case_skip_gram_loss(rng):
    from repro.core.loss import skip_gram_loss
    from repro.nn.layers import Embedding

    table = Embedding(8, 4, rng=spawn_rng(rng))
    targets = _t(rng, 3, 4)
    contexts = np.asarray([1, 4, 4])
    negatives = np.asarray([[0, 2], [3, 7], [5, 1]])
    tensors = [targets, table.weight]
    return (
        (lambda: skip_gram_loss(targets, table, contexts, negatives)),
        tensors,
        ["targets", "context.weight"],
    )


@register("core.metapath_attention", targets=("core.MetapathLevelAttention",))
def _case_metapath_attention(rng):
    from repro.core.hierarchical_attention import MetapathLevelAttention

    attn = MetapathLevelAttention(4, rng=spawn_rng(rng))
    flows = [_t(rng, 3, 4) for _ in range(3)]
    tensors = flows + [attn.attention.query.weight]
    names = [f"flow{i}" for i in range(3)] + ["wq"]
    return (lambda: attn(flows).sum()), tensors, names


@register("core.relationship_attention", targets=("core.RelationshipLevelAttention",))
def _case_relationship_attention(rng):
    from repro.core.hierarchical_attention import RelationshipLevelAttention
    from repro.nn.tensor import stack

    attn = RelationshipLevelAttention(4, rng=spawn_rng(rng))
    relations = [_t(rng, 3, 4) for _ in range(2)]
    tensors = relations + [attn.attention.value.weight]
    names = ["rel0", "rel1", "wv"]
    return (lambda: attn(stack(relations, axis=1)).sum()), tensors, names


def _tiny_multiplex_graph():
    """Users 0-2, items 3-6, two overlapping relationships (conftest twin)."""
    from repro.graph.builder import GraphBuilder
    from repro.graph.schema import GraphSchema

    builder = GraphBuilder(GraphSchema(["user", "item"], ["view", "buy"]))
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


@register(
    "core.hybridgnn_forward", targets=("core.HybridGNN",),
    atol=1e-3, rtol=1e-3, max_elements=4,
)
def _case_hybridgnn(rng):
    from repro.core.config import HybridGNNConfig
    from repro.core.model import HybridGNN
    from repro.graph.schema import intra_relationship_schemes

    graph = _tiny_multiplex_graph()
    schemes = intra_relationship_schemes(
        ("U-I-U",), graph.schema.relationships, {"U": "user", "I": "item"}
    )
    config = HybridGNNConfig(
        base_dim=4, edge_dim=3, metapath_fanouts=(2, 2), exploration_fanout=2,
        exploration_depth=1, eval_samples=1, num_negatives=1,
    )
    model = HybridGNN(graph, schemes, config, rng=spawn_rng(rng))
    nodes = np.asarray([0, 1, 3, 5])
    func = freeze_rngs(lambda: model(nodes, "view").sum(), model)

    # Check a representative spread of the parameters the forward reaches.
    out = func()
    out.backward()
    reached = [(n, p) for n, p in model.named_parameters() if p.grad is not None]
    step = max(1, len(reached) // 6)
    picked = reached[::step][:6]
    for param in model.parameters():
        param.zero_grad()
    names = [name for name, _ in picked]
    tensors = [param for _, param in picked]
    return func, tensors, names
