"""Neighborhood aggregation functions AGG(h_self, {h_neigh}) (Eq. 3).

The paper names three candidates — mean, pooling and LSTM aggregators — and
reports "no significant differences" between them, using the mean aggregator
in all experiments.  All three are implemented here (the ablation bench
verifies the claim).

Every aggregator maps

    self features      (batch, d_in)
    neighbor features  (batch, n_neighbors, d_in)

to aggregated features (batch, d_out), GraphSage-style: a learnable combine
of the self vector and a learnable reduction of the neighbor set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, slice_rngs, spawn_rng


class Aggregator(Module):
    """Interface: ``forward(self_feats, neighbor_feats, rows=None) -> Tensor``.

    With ``stack=S`` every weight holds S independent aggregators (see
    :class:`~repro.nn.layers.Linear`): inputs carry a leading axis of S
    (``(S, batch, d_in)`` and ``(S, batch, n, d_in)``), and ``rows`` picks
    a subset of the S.
    """

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, self_feats: Tensor, neighbor_feats: Tensor,
                rows: Optional[np.ndarray] = None) -> Tensor:
        raise NotImplementedError


class MeanAggregator(Aggregator):
    """h' = ReLU([h_self ; mean(h_neigh)] W) — the paper's default."""

    def __init__(self, in_dim: int, out_dim: int, rng: SeedLike = None,
                 stack: Optional[int] = None):
        super().__init__(in_dim, out_dim)
        self.combine = Linear(2 * in_dim, out_dim, rng=rng, stack=stack)

    def forward(self, self_feats: Tensor, neighbor_feats: Tensor,
                rows: Optional[np.ndarray] = None) -> Tensor:
        pooled = neighbor_feats.mean(axis=-2)
        return self.combine(self_feats, pooled, rows=rows).relu()


class MaxPoolAggregator(Aggregator):
    """Transform each neighbor with an MLP, take elementwise max, combine."""

    def __init__(self, in_dim: int, out_dim: int, rng: SeedLike = None,
                 stack: Optional[int] = None):
        super().__init__(in_dim, out_dim)
        rngs = slice_rngs(rng, stack or 1)
        self.transform = Linear(in_dim, in_dim, rng=[spawn_rng(r) for r in rngs], stack=stack)
        self.combine = Linear(2 * in_dim, out_dim, rng=[spawn_rng(r) for r in rngs],
                              stack=stack)

    def forward(self, self_feats: Tensor, neighbor_feats: Tensor,
                rows: Optional[np.ndarray] = None) -> Tensor:
        transformed = self.transform(neighbor_feats, rows=rows).relu()
        pooled = transformed.max(axis=-2)
        return self.combine(self_feats, pooled, rows=rows).relu()


class LSTMAggregator(Aggregator):
    """Run a single-layer LSTM over the neighbor sequence; use the last state.

    Neighbor order is an artifact of sampling, so (as in GraphSage) the
    aggregator is applied to the neighbors in sampled order; the sampler
    already randomises that order.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: SeedLike = None,
                 stack: Optional[int] = None):
        super().__init__(in_dim, out_dim)
        rngs = slice_rngs(rng, stack or 1)
        hidden = in_dim
        self.hidden_dim = hidden
        # Fused gate weights over [x_t ; h_{t-1}]: [input, forget, cell,
        # output] stacked along the output axis.
        self.gates = Linear(in_dim + hidden, 4 * hidden, rng=[spawn_rng(r) for r in rngs],
                            stack=stack)
        self.combine = Linear(2 * in_dim, out_dim, rng=[spawn_rng(r) for r in rngs],
                              stack=stack)

    def forward(self, self_feats: Tensor, neighbor_feats: Tensor,
                rows: Optional[np.ndarray] = None) -> Tensor:
        n_neighbors = neighbor_feats.shape[-2]
        state_shape = neighbor_feats.shape[:-2] + (self.hidden_dim,)
        hidden = Tensor(np.zeros(state_shape))
        cell = Tensor(np.zeros(state_shape))
        h = self.hidden_dim
        for step in range(n_neighbors):
            gates = self.gates(neighbor_feats[..., step, :], hidden, rows=rows)
            i_gate = gates[..., :h].sigmoid()
            f_gate = gates[..., h: 2 * h].sigmoid()
            g_gate = gates[..., 2 * h: 3 * h].tanh()
            o_gate = gates[..., 3 * h:].sigmoid()
            cell = f_gate * cell + i_gate * g_gate
            hidden = o_gate * cell.tanh()
        return self.combine(self_feats, hidden, rows=rows).relu()


_AGGREGATORS = {
    "mean": MeanAggregator,
    "pool": MaxPoolAggregator,
    "lstm": LSTMAggregator,
}


def make_aggregator(kind: str, in_dim: int, out_dim: int, rng: SeedLike = None,
                    stack: Optional[int] = None) -> Aggregator:
    """Factory for the three aggregator kinds: ``mean``, ``pool``, ``lstm``."""
    try:
        cls = _AGGREGATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown aggregator {kind!r}; expected one of {sorted(_AGGREGATORS)}"
        ) from None
    return cls(in_dim, out_dim, rng=rng, stack=stack)
