"""Scaled dot-product self-attention (Eq. 6 and Eq. 9 of the paper).

Both levels of HybridGNN's hierarchical attention are instances of the same
single-head self-attention where queries, keys and values are the input
sequence itself:

    A(H) = softmax(H W_Q (H W_K)^T / sqrt(d_k)) H W_V
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, slice_rngs, spawn_rng


class SelfAttention(Module):
    """Single-head self-attention over sequences of shape ``(..., n, d_in)``.

    Parameters
    ----------
    in_dim:
        Feature size of each sequence element.
    attn_dim:
        Projection size ``d_k`` for queries/keys/values (the output feature
        size is also ``attn_dim``, matching the paper's formulation).
    stack:
        If given, hold that many independent heads as stacked weights
        (:class:`~repro.nn.layers.Linear`; ``rng`` may give one generator
        per head); ``h`` then carries a leading axis of that size, and
        ``rows`` picks a subset of the heads.
    """

    def __init__(self, in_dim: int, attn_dim: int, rng: SeedLike = None,
                 stack: Optional[int] = None):
        super().__init__()
        rngs = slice_rngs(rng, stack or 1)
        self.in_dim = in_dim
        self.attn_dim = attn_dim
        self.query, self.key, self.value = (
            Linear(in_dim, attn_dim, bias=False, rng=[spawn_rng(r) for r in rngs], stack=stack)
            for _ in range(3)
        )
        self._last_weights: Optional[np.ndarray] = None

    def forward(self, h: Tensor, rows: Optional[np.ndarray] = None) -> Tensor:
        """Attend ``h`` of shape ``(..., n, in_dim)`` -> ``(..., n, attn_dim)``."""
        q = self.query(h, rows=rows)
        k = self.key(h, rows=rows)
        v = self.value(h, rows=rows)
        scores = (q @ k.transpose(-2, -1)) * (1.0 / np.sqrt(self.attn_dim))
        weights = scores.softmax(axis=-1)
        self._last_weights = weights.data.copy()
        return weights @ v

    @property
    def last_attention_weights(self) -> Optional[np.ndarray]:
        """Attention matrix from the most recent forward pass.

        Shape ``(..., n, n)``; row ``i`` is the distribution over inputs used
        to build output ``i``.  Used by the paper's Fig. 5 case study to read
        out metapath importances.
        """
        return self._last_weights
