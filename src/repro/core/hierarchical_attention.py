"""Hierarchical attention (Sect. III-D, Eqs. 6-10).

Two stacked self-attention stages:

- **metapath-level** (Eq. 6-7): re-weigh the edge embeddings produced by the
  hybrid aggregation flows of one relationship, then mean-pool over flows to
  get the relationship-local embedding  \\hat h_{v, r};
- **relationship-level** (Eq. 8-9): attend over the per-relationship
  embeddings to fuse cross-relationship signal, yielding e_{v, r} for every
  relationship r.

Both stages expose their attention matrices so the Fig. 5 case study can
read out flow importances.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.attention import SelfAttention
from repro.nn.module import Module
from repro.nn.tensor import Tensor, stack
from repro.utils.rng import SeedLike, as_rng


class MetapathLevelAttention(Module):
    """Eq. 6-7: self-attention over flow embeddings, then mean pooling.

    With ``stack=S`` it holds one attention per relationship as stacked
    Q/K/V weights, and flow embeddings carry a leading relationship axis;
    ``rows`` picks the relationships present.  With ``enabled=False`` (the
    "w/o metapath-level attention" ablation of Table VII) the flows are
    mean-pooled without re-weighting.
    """

    def __init__(self, edge_dim: int, enabled: bool = True, rng: SeedLike = None,
                 stack: Optional[int] = None):
        super().__init__()
        self.enabled = enabled
        self.attention = (
            SelfAttention(edge_dim, edge_dim, rng=rng, stack=stack)
            if enabled else None
        )
        self._last_flow_importance: Optional[np.ndarray] = None

    def forward(self, flow_embeddings: Sequence[Tensor],
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Fuse per-flow embeddings [(..., B, d), ...] into (..., B, d)."""
        h = stack(list(flow_embeddings), axis=-2)  # (..., B, n_flows, d)
        if self.enabled:
            # Residual keeps each flow's own signal alongside the re-weighted
            # mixture (stabilises training when one flow dominates).
            h = h + self.attention(h, rows=rows)
            weights = self.attention.last_attention_weights  # (..., B, n, n)
            # Column mass = how much each flow contributes across outputs.
            self._last_flow_importance = weights.mean(axis=(-3, -2))
        else:
            n_flows = h.shape[-2]
            self._last_flow_importance = np.full(h.shape[:-3] + (n_flows,), 1.0 / n_flows)
        return h.mean(axis=-2)

    @property
    def last_flow_importance(self) -> Optional[np.ndarray]:
        """Per-flow attention mass from the latest forward (sums to 1).

        Shape ``(n_flows,)``, or ``(S, n_flows)`` for stacked input.
        """
        return self._last_flow_importance


class RelationshipLevelAttention(Module):
    """Eq. 8-9: self-attention over the per-relationship embeddings.

    With ``enabled=False`` (the "w/o relationship-level attention" ablation)
    the input embeddings pass through unchanged.
    """

    def __init__(self, edge_dim: int, enabled: bool = True, rng: SeedLike = None):
        super().__init__()
        self.enabled = enabled
        self.attention = SelfAttention(edge_dim, edge_dim, rng=as_rng(rng)) if enabled else None
        self._last_relation_importance: Optional[np.ndarray] = None

    def forward(self, u: Tensor) -> Tensor:
        """Fuse the per-relationship embeddings (B, |R|, d) into e_{v, r}."""
        if not self.enabled:
            self._last_relation_importance = np.full(
                u.shape[1], 1.0 / u.shape[1]
            )
            return u
        # Residual: relation-specific signal passes through untouched while
        # the attention adds the cross-relationship mixture.
        out = u + self.attention(u)
        weights = self.attention.last_attention_weights
        self._last_relation_importance = weights.mean(axis=(0, 1))
        return out

    @property
    def last_relation_importance(self) -> Optional[np.ndarray]:
        return self._last_relation_importance
