"""Per-op shape/dtype transfer rules and the abstract propagation engine.

Every differentiable ``Tensor`` op — discovered through the gradcheck
registry's :func:`repro.verify.gradcheck.tensor_ops`, exactly the surface
lint rule R006 polices — plus the module-level functionals (``concat``,
``stack``, ``embedding_lookup``, ``gather_rows``, ``sparse_matmul``,
``where``) must have
a transfer rule registered here.  :func:`uncovered_transfer_rules`
mirrors the registry's ``uncovered_targets()``: a new differentiable op
without a transfer rule is a test failure, not a silent gap.

A transfer rule maps input :class:`~repro.check.spec.TensorSpec` values
(plus the op's recorded static attrs) to the output spec *without
numerics*.  The propagation engine then checks each abstract result
against the shape/dtype observed in the recording trace — a mismatch
means the rule (or the op) is wrong and is reported as an error.

Two ops are *trace-exact*: ``getitem`` (the key is arbitrary Python
indexing) and ``reshape`` (``-1`` inference), whose output shape is taken
from the trace and re-symbolised, with element-count conservation checked
abstractly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.check.spec import (
    BroadcastEvent,
    Dim,
    ShapeSpec,
    SpecError,
    TensorSpec,
    broadcast_specs,
    promote_dtypes,
)
from repro.check.trace import TraceNode

__all__ = [
    "OpContext",
    "PropagationProblem",
    "PropagationResult",
    "propagate",
    "required_transfer_ops",
    "transfer_rule",
    "transfer_rules",
    "uncovered_transfer_rules",
]

#: Module-level functionals traced by ``Tensor._make`` but not discovered
#: by ``tensor_ops()`` (they are free functions, not ``Tensor`` methods).
FUNCTIONAL_OPS: Tuple[str, ...] = (
    "concat",
    "stack",
    "embedding_lookup",
    "gather_rows",
    "sparse_matmul",
    "where",
)


@dataclass
class OpContext:
    """Everything a transfer rule may consult for one traced op."""

    op: str
    inputs: List[TensorSpec]
    attrs: Dict[str, Any]
    observed_shape: Tuple[int, ...]
    observed_dtype: str
    symbols: Mapping[int, str]
    events: List[BroadcastEvent] = field(default_factory=list)

    def resymbolize(self, shape: Sequence[int]) -> ShapeSpec:
        """Tag a trace-observed concrete shape with the active symbols."""
        return ShapeSpec.symbolized(shape, self.symbols)

    def promoted_dtype(self, extra: Sequence[str] = ()) -> str:
        return promote_dtypes([s.dtype for s in self.inputs] + list(extra))

    def record(self, events: Sequence[BroadcastEvent]) -> None:
        self.events.extend(events)


TransferRule = Callable[[OpContext], TensorSpec]

_TRANSFER: Dict[str, TransferRule] = {}


def transfer_rule(*ops: str) -> Callable[[TransferRule], TransferRule]:
    """Register a transfer rule for one or more op names."""

    def register(fn: TransferRule) -> TransferRule:
        for op in ops:
            if op in _TRANSFER:
                raise ValueError(f"duplicate transfer rule for op {op!r}")
            _TRANSFER[op] = fn
        return fn

    return register


def transfer_rules() -> Dict[str, TransferRule]:
    return dict(_TRANSFER)


def required_transfer_ops() -> List[str]:
    """Ops that must have a transfer rule (mirrors ``required_targets``)."""
    from repro.verify.gradcheck import tensor_ops

    return sorted(set(tensor_ops()) | set(FUNCTIONAL_OPS))


def uncovered_transfer_rules() -> List[str]:
    """Required ops with no transfer rule (must be empty)."""
    return sorted(set(required_transfer_ops()) - set(_TRANSFER))


def _normalize_axis(axis: int, rank: int, extra: int = 0) -> int:
    span = rank + extra
    if axis < -span or axis >= span:
        raise SpecError(f"axis {axis} out of range for rank {rank}")
    return axis + span if axis < 0 else axis


# ---------------------------------------------------------------------------
# Elementwise and activation ops
# ---------------------------------------------------------------------------


@transfer_rule("add", "sub", "mul", "truediv")
def _binary_elementwise(ctx: OpContext) -> TensorSpec:
    if len(ctx.inputs) != 2:
        raise SpecError(f"{ctx.op} expects 2 operands, traced {len(ctx.inputs)}")
    shape, events = broadcast_specs([s.shape for s in ctx.inputs])
    ctx.record(events)
    return TensorSpec(shape, ctx.promoted_dtype())


@transfer_rule("neg", "pow", "exp", "log", "sigmoid", "tanh", "relu", "leaky_relu")
def _unary_elementwise(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    return TensorSpec(x.shape, x.dtype)


@transfer_rule("softmax", "log_softmax")
def _softmax(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    _normalize_axis(int(ctx.attrs.get("axis", -1)), x.shape.rank)
    return TensorSpec(x.shape, x.dtype)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


@transfer_rule("matmul")
def _matmul(ctx: OpContext) -> TensorSpec:
    a, b = ctx.inputs
    dtype = ctx.promoted_dtype()
    if a.shape.rank == 0 or b.shape.rank == 0:
        raise SpecError("matmul operands must have rank >= 1")
    if a.shape.rank == 1 and b.shape.rank == 1:
        if a.shape.dims[0].value != b.shape.dims[0].value:
            raise SpecError(
                f"matmul inner dims differ: {a.shape.render()} @ {b.shape.render()}"
            )
        return TensorSpec(ShapeSpec(()), dtype)
    if a.shape.rank == 1:
        # (k,) @ (..., k, n) -> (..., n)
        if a.shape.dims[0].value != b.shape.dims[-2].value:
            raise SpecError(
                f"matmul inner dims differ: {a.shape.render()} @ {b.shape.render()}"
            )
        return TensorSpec(ShapeSpec(b.shape.dims[:-2] + (b.shape.dims[-1],)), dtype)
    if b.shape.rank == 1:
        # (..., m, k) @ (k,) -> (..., m)
        if a.shape.dims[-1].value != b.shape.dims[0].value:
            raise SpecError(
                f"matmul inner dims differ: {a.shape.render()} @ {b.shape.render()}"
            )
        return TensorSpec(ShapeSpec(a.shape.dims[:-1]), dtype)
    if a.shape.dims[-1].value != b.shape.dims[-2].value:
        raise SpecError(
            f"matmul inner dims differ: {a.shape.render()} @ {b.shape.render()}"
        )
    batch, events = broadcast_specs(
        [ShapeSpec(a.shape.dims[:-2]), ShapeSpec(b.shape.dims[:-2])]
    )
    ctx.record(events)
    return TensorSpec(
        ShapeSpec(batch.dims + (a.shape.dims[-2], b.shape.dims[-1])), dtype
    )


@transfer_rule("sparse_matmul")
def _sparse_matmul(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    matrix = ctx.resymbolize(ctx.attrs["matrix_shape"])
    if matrix.rank != 2 or x.shape.rank != 2:
        raise SpecError(
            f"sparse_matmul expects 2-D operands, got {matrix.render()} @ {x.shape.render()}"
        )
    if matrix.dims[1].value != x.shape.dims[0].value:
        raise SpecError(
            f"sparse_matmul inner dims differ: {matrix.render()} @ {x.shape.render()}"
        )
    dtype = promote_dtypes([str(ctx.attrs.get("matrix_dtype", x.dtype)), x.dtype])
    return TensorSpec(ShapeSpec((matrix.dims[0], x.shape.dims[1])), dtype)


@transfer_rule("embedding_lookup")
def _embedding_lookup(ctx: OpContext) -> TensorSpec:
    (weight,) = ctx.inputs
    if weight.shape.rank < 2:
        raise SpecError(
            f"embedding_lookup weight must be at least 2-D, got {weight.shape.render()}"
        )
    # Rows of a 2-D table, or slices of a stacked (S, d_in, d_out) weight.
    indices = ctx.resymbolize(ctx.attrs["indices_shape"])
    return TensorSpec(ShapeSpec(indices.dims + weight.shape.dims[1:]), weight.dtype)


@transfer_rule("gather_rows")
def _gather_rows(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    if x.shape.rank < 1:
        raise SpecError(f"gather_rows input must be at least 1-D, got {x.shape.render()}")
    # Rows of x with its leading axes flattened; the last axis is kept.
    index = ctx.resymbolize(ctx.attrs["index_shape"])
    return TensorSpec(ShapeSpec(index.dims + x.shape.dims[-1:]), x.dtype)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _reduced_shape(shape: ShapeSpec, axis: Any, keepdims: bool) -> ShapeSpec:
    if axis is None:
        axes = tuple(range(shape.rank))
    elif isinstance(axis, (tuple, list)):
        axes = tuple(_normalize_axis(int(a), shape.rank) for a in axis)
    else:
        axes = (_normalize_axis(int(axis), shape.rank),)
    dims: List[Dim] = []
    for i, dim in enumerate(shape.dims):
        if i in axes:
            if keepdims:
                dims.append(Dim(1))
        else:
            dims.append(dim)
    return ShapeSpec(dims)


@transfer_rule("sum", "mean")
def _reduce(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    shape = _reduced_shape(
        x.shape, ctx.attrs.get("axis"), bool(ctx.attrs.get("keepdims", False))
    )
    return TensorSpec(shape, x.dtype)


@transfer_rule("max")
def _max(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    if "axis" not in ctx.attrs or ctx.attrs["axis"] is None:
        raise SpecError("max requires an integer axis")
    shape = _reduced_shape(
        x.shape, int(ctx.attrs["axis"]), bool(ctx.attrs.get("keepdims", False))
    )
    return TensorSpec(shape, x.dtype)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


@transfer_rule("reshape")
def _reshape(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    # Trace-exact (``-1`` inference), but element count must be conserved.
    out = ctx.resymbolize(ctx.observed_shape)
    if out.size() != x.shape.size():
        raise SpecError(
            f"reshape changes element count: {x.shape.render()} "
            f"({x.shape.size()} elems) -> {out.render()} ({out.size()} elems)"
        )
    requested = tuple(ctx.attrs.get("shape", ()))
    if -1 not in requested and requested and tuple(requested) != ctx.observed_shape:
        raise SpecError(
            f"reshape target {requested} disagrees with observed {ctx.observed_shape}"
        )
    return TensorSpec(out, x.dtype)


@transfer_rule("getitem")
def _getitem(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    # Trace-exact: arbitrary Python indexing; adopt the observed shape.
    return TensorSpec(ctx.resymbolize(ctx.observed_shape), x.dtype)


@transfer_rule("transpose")
def _transpose(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    axis1 = _normalize_axis(int(ctx.attrs.get("axis1", -2)), x.shape.rank)
    axis2 = _normalize_axis(int(ctx.attrs.get("axis2", -1)), x.shape.rank)
    dims = list(x.shape.dims)
    dims[axis1], dims[axis2] = dims[axis2], dims[axis1]
    return TensorSpec(ShapeSpec(dims), x.dtype)


@transfer_rule("squeeze")
def _squeeze(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    axis = _normalize_axis(int(ctx.attrs["axis"]), x.shape.rank)
    if x.shape.dims[axis].value != 1:
        raise SpecError(
            f"squeeze axis {axis} has extent {x.shape.dims[axis].render()}, not 1"
        )
    dims = list(x.shape.dims)
    del dims[axis]
    return TensorSpec(ShapeSpec(dims), x.dtype)


@transfer_rule("unsqueeze")
def _unsqueeze(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    axis = _normalize_axis(int(ctx.attrs["axis"]), x.shape.rank, extra=1)
    dims = list(x.shape.dims)
    dims.insert(axis, Dim(1))
    return TensorSpec(ShapeSpec(dims), x.dtype)


@transfer_rule("broadcast_to")
def _broadcast_to(ctx: OpContext) -> TensorSpec:
    (x,) = ctx.inputs
    target = ctx.resymbolize(ctx.attrs["shape"])
    shape, events = broadcast_specs([x.shape, target])
    if shape.values() != target.values():
        raise SpecError(
            f"cannot broadcast {x.shape.render()} to {target.render()}"
        )
    # Only the real operand's alignment is meaningful.
    ctx.record([e for e in events if e.operand == 0])
    return TensorSpec(shape, x.dtype)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@transfer_rule("concat")
def _concat(ctx: OpContext) -> TensorSpec:
    if not ctx.inputs:
        raise SpecError("concat of zero tensors")
    rank = ctx.inputs[0].shape.rank
    axis = _normalize_axis(int(ctx.attrs.get("axis", 0)), rank)
    total = 0
    dims: List[Optional[Dim]] = [None] * rank
    for spec in ctx.inputs:
        if spec.shape.rank != rank:
            raise SpecError(
                f"concat rank mismatch: {spec.shape.render()} vs rank {rank}"
            )
        total += spec.shape.dims[axis].value
        for i, dim in enumerate(spec.shape.dims):
            if i == axis:
                continue
            if dims[i] is None:
                dims[i] = dim
            elif dims[i].value != dim.value:  # type: ignore[union-attr]
                raise SpecError(
                    f"concat non-axis extents differ on axis {i}: "
                    f"{dims[i].render()} vs {dim.render()}"  # type: ignore[union-attr]
                )
            elif not dims[i].symbol:  # type: ignore[union-attr]
                dims[i] = dim
    dims[axis] = Dim(total, ctx.symbols.get(total, ""))
    return TensorSpec(ShapeSpec([d for d in dims if d is not None]), ctx.promoted_dtype())


@transfer_rule("stack")
def _stack(ctx: OpContext) -> TensorSpec:
    if not ctx.inputs:
        raise SpecError("stack of zero tensors")
    first = ctx.inputs[0].shape
    for spec in ctx.inputs[1:]:
        if spec.shape.values() != first.values():
            raise SpecError(
                f"stack shape mismatch: {spec.shape.render()} vs {first.render()}"
            )
    axis = _normalize_axis(int(ctx.attrs.get("axis", 0)), first.rank, extra=1)
    dims = list(first.dims)
    dims.insert(axis, Dim(len(ctx.inputs)))
    return TensorSpec(ShapeSpec(dims), ctx.promoted_dtype())


@transfer_rule("where")
def _where(ctx: OpContext) -> TensorSpec:
    a, b = ctx.inputs
    shape, events = broadcast_specs([a.shape, b.shape])
    ctx.record(events)
    condition = ctx.resymbolize(ctx.attrs["condition_shape"])
    # The (non-differentiable) condition also participates in broadcasting.
    shape, _ = broadcast_specs([shape, condition])
    return TensorSpec(shape, ctx.promoted_dtype())


# ---------------------------------------------------------------------------
# Propagation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationProblem:
    """Raw defect discovered while propagating specs over a trace."""

    kind: str  # "missing_rule" | "mismatch"
    node: int
    op: str
    message: str


@dataclass
class PropagationResult:
    """Abstract spec per node plus all defects and broadcast events."""

    specs: Dict[int, TensorSpec]
    problems: List[PropagationProblem]
    events: List[Tuple[int, BroadcastEvent]]

    def spec_of(self, index: int) -> TensorSpec:
        return self.specs[index]


def propagate(
    nodes: Sequence[TraceNode], symbols: Optional[Mapping[int, str]] = None
) -> PropagationResult:
    """Abstractly re-execute a recorded trace through the transfer rules.

    Leaves are symbolised from their observed shapes; each op node runs
    its transfer rule on the parents' specs and is validated against the
    observed shape/dtype.  Missing rules and mismatches become
    :class:`PropagationProblem` entries; on either, the node falls back to
    its (re-symbolised) observed spec so downstream propagation continues.
    """
    symbols = dict(symbols or {})
    specs: Dict[int, TensorSpec] = {}
    problems: List[PropagationProblem] = []
    events: List[Tuple[int, BroadcastEvent]] = []
    for node in nodes:
        observed = TensorSpec(ShapeSpec.symbolized(node.shape, symbols), node.dtype)
        if node.op is None:
            specs[node.index] = observed
            continue
        rule = _TRANSFER.get(node.op)
        if rule is None:
            problems.append(
                PropagationProblem(
                    kind="missing_rule",
                    node=node.index,
                    op=node.op,
                    message=(
                        f"op {node.op!r} (node {node.index}) has no shape/dtype "
                        "transfer rule registered in repro.check.transfer"
                    ),
                )
            )
            specs[node.index] = observed
            continue
        ctx = OpContext(
            op=node.op,
            inputs=[specs[p] for p in node.parents],
            attrs=node.attrs,
            observed_shape=node.shape,
            observed_dtype=node.dtype,
            symbols=symbols,
        )
        try:
            spec = rule(ctx)
        except (SpecError, KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(
                PropagationProblem(
                    kind="mismatch",
                    node=node.index,
                    op=node.op,
                    message=f"transfer rule for {node.op!r} failed: {exc}",
                )
            )
            specs[node.index] = observed
            continue
        if spec.shape.values() != node.shape or np.dtype(spec.dtype) != np.dtype(node.dtype):
            problems.append(
                PropagationProblem(
                    kind="mismatch",
                    node=node.index,
                    op=node.op,
                    message=(
                        f"abstract result {spec.render()} disagrees with observed "
                        f"{ShapeSpec.concrete(node.shape).render()} {node.dtype} "
                        f"at op {node.op!r} (node {node.index})"
                    ),
                )
            )
            specs[node.index] = observed
            continue
        specs[node.index] = spec
        events.extend((node.index, event) for event in ctx.events)
    return PropagationResult(specs=specs, problems=problems, events=events)
