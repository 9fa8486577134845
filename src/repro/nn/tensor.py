"""A reverse-mode automatic differentiation engine over numpy arrays.

This module is the stand-in for the PyTorch autograd the paper's original
implementation relies on.  :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it; calling :meth:`Tensor.backward` on a
scalar result propagates gradients to every tensor created with
``requires_grad=True``.

Only the operations needed by the models in this repository are implemented,
but each is fully general (broadcasting, batched matmul, arbitrary axes) and
covered by numeric gradient checks in the test suite.

Gradients that arrive through :func:`embedding_lookup` are kept on the
weight in row form (:meth:`Tensor.grad_rows`); :attr:`Tensor.grad`
materialises the dense array on read.

Every tensor also carries an integer :attr:`Tensor.version` bumped by the
sanctioned write paths (assignment to ``tensor.data`` and the optimisers'
:meth:`Tensor.subtract_rows`).  When the opt-in
sanitizer is active (:mod:`repro.nn.sanitizer`), each op additionally
records the versions of the tensors it saves for backward, and
:meth:`Tensor.backward` raises :class:`~repro.errors.SanitizerError` naming
the op whose saved inputs were mutated after the forward pass.  In-place
numpy writes that bypass ``tensor.data`` assignment (slice stores, ``out=``)
are invisible to the counter — the project linter (``python -m repro lint``,
rule R003) forbids them outside the whitelisted optimizer/init modules.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from repro.errors import AnomalyError, AutogradError, SanitizerError, ShapeError
from repro.nn.sanitizer import STATE as _SANITIZER
from repro.nn.tracing import STATE as _TRACING

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]


class Segments(NamedTuple):
    """Where each row occurs in a flattened index array.

    The positions holding row ``r`` are ``order[indptr[r]:indptr[r + 1]]``,
    in ascending order: the CSR form of the index's transpose (two int64
    arrays), which one stable sort of the index yields (:func:`segments`).
    The samplers build it from the sort they already make (DESIGN.md,
    "Where duplicates are summed").
    """

    indptr: np.ndarray
    order: np.ndarray


def stable_sort(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions of the integer ``values`` in a stable sort, and the
    sorted values.

    One ``np.sort`` of int64 keys that pack each value above its position:
    numpy's vectorised sort of plain integers is several times faster
    than a stable argsort, and distinct keys make any sort stable.
    Values too wide to pack fall back to the stable argsort.
    """
    values = np.asarray(values).reshape(-1)
    bits = max(len(values) - 1, 1).bit_length()
    if len(values) and max(int(values.max()), -int(values.min())) >= 1 << (62 - bits):
        order = np.argsort(values, kind="stable")
        return order, values[order]
    keys = values.astype(np.int64, copy=False) << bits
    keys |= np.arange(len(values))
    keys = np.sort(keys)
    return keys & ((1 << bits) - 1), keys >> bits


def segments(index: np.ndarray, rows: int, order: Optional[np.ndarray] = None) -> Segments:
    """The :class:`Segments` of ``index`` over ``rows`` rows.

    ``order`` is the index's positions stable-sorted by row, when a sort
    already made them; without it this makes one (:func:`stable_sort`).
    """
    flat = np.asarray(index).reshape(-1)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=rows), out=indptr[1:])
    return Segments(indptr, stable_sort(flat)[0] if order is None else order)


def segment_sum(values: np.ndarray, layout: Segments) -> np.ndarray:
    """Per row of ``layout``, the sum of the ``values`` rows at its positions.

    Each sum starts from zero and adds its rows one by one in position
    order, so it is bit-identical to ``np.add.at`` into a zeroed buffer or
    a weighted ``np.bincount``.  The kernel is scipy's CSR product with a
    matrix of ones, called directly: building a ``csr_matrix`` for it
    costs more than the product at these sizes.  The kernel does not
    check its indices, so a layout that points outside ``values`` raises
    here instead.
    """
    indptr = np.asarray(layout.indptr, dtype=np.int64)
    order = np.asarray(layout.order, dtype=np.int64)
    rows, count = len(indptr) - 1, len(order)
    if rows < 0 or indptr[0] != 0 or indptr.max() > count or (
            count and (order.min() < 0 or order.max() >= count)):
        raise ShapeError(f"segment layout does not address {count} positions")
    width = math.prod(values.shape[1:])
    flat = np.ascontiguousarray(values.reshape(count, width), dtype=np.float64)
    sums = np.zeros((rows, width))
    csr_matvecs(rows, count, width, indptr, order, np.ones(count), flat, sums)
    return sums.reshape((rows,) + values.shape[1:])


def _sum_rows(indices: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``indices`` and the sum of ``values`` rows per index,
    in input order (one :func:`stable_sort` and a :func:`segment_sum`)."""
    order, ordered = stable_sort(indices)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    indptr = np.append(starts, len(ordered))
    return ordered[starts], segment_sum(values, Segments(indptr, order))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        If True, gradients accumulate into :attr:`grad` during backward.
    """

    __slots__ = (
        "_data",
        "_grad",
        "_grad_rows",
        "_grad_borrowed",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_version",
        "_op",
        "_saved_versions",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data._data
        self._data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad: bool = bool(requires_grad)
        self._grad: Optional[np.ndarray] = None
        self._grad_rows: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        # True while ``_grad`` is an array this tensor did not allocate (an
        # adopted contribution) or has handed to its parents: copy on write.
        self._grad_borrowed: bool = False
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        self._version: int = 0
        self._op: Optional[str] = None
        self._saved_versions: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Data access: ``tensor.data = array`` is the sanctioned write path
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: ArrayLike) -> None:
        if isinstance(value, Tensor):
            value = value._data
        self._data = np.asarray(value, dtype=np.float64)
        self._version += 1

    @property
    def version(self) -> int:
        """Write-path version counter (see :mod:`repro.nn.sanitizer`).

        Bumped by every assignment to :attr:`data`, including augmented
        assignments such as ``param.data -= update`` (they re-assign the
        attribute after the in-place numpy op).
        """
        return self._version

    @property
    def op(self) -> Optional[str]:
        """Name of the autograd op that created this tensor, if any."""
        return self._op

    def subtract_rows(self, rows, values: np.ndarray) -> None:
        """``data[rows] -= values`` in place, through the version counter.

        ``rows`` is a sorted unique index array or ``slice(None)``; this is
        the write path of the row-wise optimisers.  Index rows are read
        with ``np.take``, which gathers rows several times faster than
        fancy indexing, and written back once.
        """
        if isinstance(rows, slice):
            self._data[rows] -= values
        else:
            current = np.take(self._data, rows, axis=0)
            current -= values
            self._data[rows] = current
        self._version += 1

    # ------------------------------------------------------------------
    # Gradient storage: dense, or row-sparse chunks from embedding_lookup
    # ------------------------------------------------------------------
    @property
    def grad(self) -> Optional[np.ndarray]:
        """The dense gradient, or None before any backward reached it.

        Row-sparse gradients (see :meth:`grad_rows`) are materialised into
        a fresh dense array on every read; reading never changes the stored
        form, so it never changes what an optimiser does.
        """
        chunks = self._grad_rows
        if chunks is None:
            return self._grad
        dense = np.zeros_like(self._data)
        for rows, values in chunks:
            dense[rows] += values
        return dense

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value
        self._grad_rows = None
        self._grad_borrowed = value is not None

    def grad_rows(self):
        """The gradient as ``(rows, values)``, or ``(None, None)`` if absent.

        A row-sparse gradient yields the sorted unique touched rows and one
        summed value row each; a dense gradient yields ``slice(None)`` and
        the whole array, so ``data[rows]`` addresses the same rows either
        way.  Chunks are summed per row in arrival order, the association
        the dense read uses, so both forms hold bit-identical values.
        """
        chunks = self._grad_rows
        if chunks is None:
            return (None, None) if self._grad is None else (slice(None), self._grad)
        if len(chunks) > 1:
            chunks[:] = [_sum_rows(np.concatenate([chunk[0] for chunk in chunks]),
                                   np.concatenate([chunk[1] for chunk in chunks]))]
        return chunks[0]

    def _accumulate_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` into the unique ``rows``, keeping the sparse form."""
        if not self.requires_grad:
            return
        if self._grad is not None:
            if self._grad_borrowed:
                self._grad, self._grad_borrowed = self._grad.copy(), False
            self._grad[rows] += values
        elif self._grad_rows is None:
            self._grad_rows = [(rows, values)]
        else:
            self._grad_rows.append((rows, values))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self._data

    def item(self) -> float:
        return float(self._data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self._data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str = "",
        attrs: Optional[dict] = None,
    ) -> "Tensor":
        out = Tensor(data)
        if _SANITIZER.anomaly and not np.isfinite(data).all():
            bad = int(data.size - np.count_nonzero(np.isfinite(data)))
            shapes = ", ".join(str(p.shape) for p in parents) or "none"
            raise AnomalyError(
                f"detect_anomaly: op '{op}' produced {bad} non-finite "
                f"value(s) in an output of shape {np.shape(data)} "
                f"(parent shapes: {shapes})"
            )
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._op = op
            if _SANITIZER.track:
                out._saved_versions = (
                    out._version,
                ) + tuple(p._version for p in parents)
        if _TRACING.active:
            _TRACING.handler(out, parents, op, attrs)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a dense contribution, adopting the first one without a copy.

        The first contribution of the right shape and dtype is stored as
        is and marked borrowed: backward closures hand the same array to
        several parents (``add``) or pass views (``sum``, ``reshape``), so
        it is copied only when a second contribution has to be added.
        """
        if not self.requires_grad:
            return
        if self._grad_rows is not None:
            # A dense contribution makes the whole gradient dense; fold the
            # pending rows first so each row keeps its arrival-order sum.
            self._grad, self._grad_rows = self.grad, None
            self._grad_borrowed = False
        elif self._grad is None:
            if grad.shape == self._data.shape and grad.dtype == np.float64:
                self._grad, self._grad_borrowed = grad, True
                return
            self._grad, self._grad_borrowed = np.zeros_like(self._data), False
        elif self._grad_borrowed:
            self._grad, self._grad_borrowed = self._grad + grad, False
            return
        self._grad += grad

    def _check_saved_versions(self) -> None:
        """Raise if a tensor saved by this op's forward was since mutated."""
        saved = self._saved_versions
        tensors = (self,) + self._parents
        for index, (tensor, expected) in enumerate(zip(tensors, saved)):
            if tensor._version == expected:
                continue
            label = "output" if index == 0 else f"input {index - 1}"
            described = f"'{tensor.name}' " if tensor.name else ""
            raise SanitizerError(
                f"a tensor saved for the backward of op '{self._op}' was "
                f"mutated after the forward pass: {label} {described}"
                f"(shape {tensor.shape}) is at version {tensor._version}, "
                f"expected {expected}. Writing through `tensor.data` "
                "invalidates activations captured by the op's backward "
                "closure; run backward() first or operate on a copy."
            )

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Propagate gradients from this tensor to all its ancestors.

        ``grad`` defaults to 1 for scalar tensors; for non-scalar outputs it
        must be supplied explicitly.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self._data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self._data)
        grad = np.array(grad, dtype=np.float64)  # the caller keeps its array
        if grad.shape != self._data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        anomaly = _SANITIZER.anomaly
        if anomaly and not np.isfinite(grad).all():
            raise AnomalyError(
                f"detect_anomaly: backward() was seeded with a non-finite "
                f"gradient (shape {grad.shape})"
            )
        for node in reversed(topo):
            if node._backward is None:
                continue
            node_grad = node.grad
            if node_grad is None:
                continue
            if node._saved_versions is not None:
                node._check_saved_versions()
            node._backward(node_grad)
            # The parents may now hold this array: a later contribution
            # (a second backward through this node) must not write into it.
            node._grad_borrowed = True
            if anomaly:
                for index, parent in enumerate(node._parents):
                    if parent.grad is None or np.isfinite(parent.grad).all():
                        continue
                    described = f" '{parent.name}'" if parent.name else ""
                    raise AnomalyError(
                        f"detect_anomaly: backward of op '{node._op}' "
                        f"produced a non-finite gradient for input {index}"
                        f"{described} (shape {parent.shape})"
                    )

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self._data + other._data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self._data.shape))
            other._accumulate(_unbroadcast(grad, other._data.shape))

        return Tensor._make(out_data, (self, other), backward, op="add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self._data, (self,), backward, op="neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self._data * other._data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other._data, self._data.shape))
            other._accumulate(_unbroadcast(grad * self._data, other._data.shape))

        return Tensor._make(out_data, (self, other), backward, op="mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self._data / other._data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other._data, self._data.shape))
            other._accumulate(
                _unbroadcast(-grad * self._data / (other._data**2), other._data.shape)
            )

        return Tensor._make(out_data, (self, other), backward, op="truediv")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise ShapeError("only scalar exponents are supported")
        out_data = self._data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self._data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, op="pow")

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self._data @ other._data

        def backward(grad: np.ndarray) -> None:
            a, b = self._data, other._data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (grad[..., None, :] * b).sum(axis=-1)
                self._accumulate(_unbroadcast(ga, a.shape))
                gb = a[:, None] * grad[..., None, :]
                other._accumulate(_unbroadcast(gb, b.shape))
                return
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., :, None] * b
                self._accumulate(_unbroadcast(ga, a.shape))
                gb = (grad[..., :, None] * a).sum(axis=tuple(range(grad.ndim - 1)) + (-2,))
                other._accumulate(_unbroadcast(gb.reshape(b.shape), b.shape))
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), backward, op="matmul")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self._data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self._data.shape))

        return Tensor._make(
            out_data,
            (self,),
            backward,
            op="sum",
            attrs={"axis": axis, "keepdims": keepdims},
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self._data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self._data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self._data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self._data == expanded).astype(self._data.dtype)
            # Split gradient evenly among ties to keep the op well-defined.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(
            out_data,
            (self,),
            backward,
            op="max",
            attrs={"axis": axis, "keepdims": keepdims},
        )

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self._data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, op="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self._data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self._data)

        return Tensor._make(out_data, (self,), backward, op="log")

    def sigmoid(self) -> "Tensor":
        out_data = 0.5 * (1.0 + np.tanh(0.5 * self._data))  # numerically stable

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, op="sigmoid")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self._data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, op="tanh")

    def relu(self) -> "Tensor":
        out_data = np.maximum(self._data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self._data > 0.0))

        return Tensor._make(out_data, (self,), backward, op="relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self._data > 0.0, self._data, negative_slope * self._data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(self._data > 0.0, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward, op="leaky_relu")

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self._data - self._data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward, op="softmax", attrs={"axis": axis})

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self._data - self._data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(
            out_data, (self,), backward, op="log_softmax", attrs={"axis": axis}
        )

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self._data.reshape(shape)
        original = self._data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(
            out_data, (self,), backward, op="reshape", attrs={"shape": tuple(shape)}
        )

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        out_data = np.swapaxes(self._data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(
            out_data, (self,), backward, op="transpose", attrs={"axis1": axis1, "axis2": axis2}
        )

    def __getitem__(self, key) -> "Tensor":
        out_data = self._data[key]
        basic = all(isinstance(k, (int, np.integer, slice, type(None), type(Ellipsis)))
                    and not isinstance(k, (bool, np.bool_))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self._data)
            if basic:
                full[key] += grad  # a basic index addresses each element once
            else:
                np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward, op="getitem")

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self._data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward, op="squeeze", attrs={"axis": axis})

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self._data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward, op="unsqueeze", attrs={"axis": axis})

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self._data, shape).copy()
        original = self._data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, original))

        return Tensor._make(
            out_data, (self,), backward, op="broadcast_to", attrs={"shape": tuple(shape)}
        )


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate ``tensors`` along ``axis`` (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward, op="concat", attrs={"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack ``tensors`` along a new ``axis`` (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack() requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for idx, tensor in enumerate(tensors):
            tensor._accumulate(np.take(grad, idx, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward, op="stack", attrs={"axis": axis})


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiable row gather: ``weight[indices]``.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (embedding_dim,)``.  The gradient is summed per row
    into a compact ``(unique rows, embedding_dim)`` buffer and kept on
    ``weight`` in row form (``torch.nn.Embedding(sparse=True)``), so a
    lookup's backward costs O(len(indices)), not O(num_embeddings).
    Sorted unique ``indices`` are stored as they are, without that sum.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ShapeError("embedding_lookup indices must be integers")
    out_data = np.take(weight.data, indices, axis=0)

    def backward(grad: np.ndarray) -> None:
        table = weight.data
        flat = indices.reshape(-1)
        if flat.size and flat.min() < 0:
            flat = flat % len(table)
        values = grad.reshape((-1,) + table.shape[1:])
        if np.all(flat[1:] > flat[:-1]):
            # Sorted unique rows (the flows' lookups) are already reduced.
            weight._accumulate_rows(flat, values)
        else:
            weight._accumulate_rows(*_sum_rows(flat, values))

    return Tensor._make(
        out_data,
        (weight,),
        backward,
        op="embedding_lookup",
        attrs={"indices_shape": tuple(indices.shape)},
    )


def gather_rows(x: Tensor, index: np.ndarray,
                layout: Union[Segments, Callable[[], Segments], None] = None) -> Tensor:
    """Differentiable gather of the vectors along ``x``'s last axis.

    ``x`` is read as ``(rows, d)`` with its leading axes flattened, so row
    ``s * n + i`` of a stacked ``(S, n, d)`` input is ``x[s, i]``.  The
    result has shape ``index.shape + (d,)``.  Backward sums each output
    row into its source row through ``index``'s :class:`Segments`
    (:func:`segment_sum`), so duplicated rows are summed where the
    duplicates arise.  ``layout`` must equal ``segments(index, rows)``,
    or be a function that builds it when a backward first needs it: the
    flows pass what their sorts made, so a forward that is never
    differentiated builds nothing.  Without it the backward sorts
    ``index`` itself.
    """
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise ShapeError("gather_rows index must be integers")
    width = x.shape[-1]
    rows = math.prod(x.shape[:-1])
    out_data = np.take(x.data.reshape(-1, width), index, axis=0)

    def backward(grad: np.ndarray) -> None:
        made = layout() if callable(layout) else layout
        if made is None:
            made = segments(index, rows)
        elif len(made.indptr) != rows + 1 or len(made.order) != index.size:
            raise ShapeError(
                f"gather_rows layout covers {len(made.indptr) - 1} rows and "
                f"{len(made.order)} positions, the index {rows} and {index.size}"
            )
        x._accumulate(segment_sum(grad.reshape(-1, width), made).reshape(x.shape))

    return Tensor._make(
        out_data, (x,), backward, op="gather_rows",
        attrs={"index_shape": tuple(index.shape)},
    )


def sparse_matmul(matrix, x: Tensor) -> Tensor:
    """Differentiable ``matrix @ x`` for a *constant* scipy sparse matrix.

    Used by the spectral GNN baselines (GCN, R-GCN) whose propagation is a
    fixed normalised adjacency.  Gradient: ``matrix.T @ grad``.
    """
    out_data = matrix @ x.data

    def backward(grad: np.ndarray) -> None:
        x._accumulate(matrix.T @ grad)

    return Tensor._make(
        np.asarray(out_data),
        (x,),
        backward,
        op="sparse_matmul",
        attrs={"matrix_shape": tuple(matrix.shape), "matrix_dtype": str(matrix.dtype)},
    )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select; ``condition`` is non-differentiable."""
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(np.where(condition, grad, 0.0), a.data.shape))
        b._accumulate(_unbroadcast(np.where(condition, 0.0, grad), b.data.shape))

    return Tensor._make(
        out_data, (a, b), backward, op="where", attrs={"condition_shape": tuple(condition.shape)}
    )
