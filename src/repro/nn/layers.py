"""Common neural-network layers built on the autograd engine."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, concat, embedding_lookup
from repro.utils.rng import SeedLike, as_rng, slice_rngs


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis of ``x``.

    ``forward(*parts)`` concatenates its inputs along the last axis first.

    With ``stack=S`` the layer holds S independent maps in one weight of
    shape ``(S, in, out)`` and maps ``x`` of shape ``(S, ..., in)`` slice by
    slice as one batched GEMM; ``rng`` may be a list of one generator per
    slice (:func:`~repro.utils.rng.slice_rngs`).  A stacked bias is the weight's last input
    row, fed by a constant ones column, so no ``(S, 1, out)`` operand is
    stretched across the rows.  ``rows`` runs a subset of the S maps: their
    slices are gathered, so the unused slices get no gradient.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: SeedLike = None, stack: Optional[int] = None):
        super().__init__()
        rngs = slice_rngs(rng, stack or 1)
        self.in_features = in_features
        self.out_features = out_features
        self.stack = stack
        self._bias_row = bias and stack is not None
        if stack is None:
            self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rngs[0]))
            self.bias = Parameter(np.zeros(out_features)) if bias else None
            return
        slices = [init.xavier_uniform((in_features, out_features), rng=r) for r in rngs]
        if bias:
            slices = [np.vstack([w, np.zeros((1, out_features))]) for w in slices]
        self.weight = Parameter(np.stack(slices))
        self.bias = None

    def forward(self, *parts: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
        if self._bias_row:
            parts += (Tensor(np.ones(parts[0].shape[:-1] + (1,))),)
        x = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        if self.stack is None:
            out = x @ self.weight
            return out if self.bias is None else out + self.bias
        weight = self.weight if rows is None else embedding_lookup(self.weight, rows)
        if x.ndim == 3:
            return x @ weight
        lead = x.shape[:-1]
        flat = x.reshape(lead[0], -1, x.shape[-1])
        return (flat @ weight).reshape(lead + (self.out_features,))


class Embedding(Module):
    """A table of ``num_embeddings`` learnable ``embedding_dim``-vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 std: float = 0.1, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=std, rng=rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float = 0.5, rng: SeedLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p <= 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep  # repro-lint: intended-dtype=float64 (Tensor buffers are canonically float64)
        return x * Tensor(mask)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((var + self.eps) ** -0.5)
        return normed * self.gamma + self.beta
