"""GraphSage (Hamilton et al., NeurIPS 2017) on the type-erased graph.

Two layers of sampled mean aggregation over learnable input embeddings,
trained with the dot-product link-prediction objective on edge mini-batches.
Heterogeneity is ignored, matching the paper's protocol for this baseline.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.base import SingleEmbeddingModel
from repro.core.hybrid_aggregation import aggregate_layers
from repro.core.loss import softplus
from repro.datasets.splits import EdgeSplit
from repro.datasets.zoo import Dataset
from repro.errors import TrainingError
from repro.nn.aggregators import make_aggregator
from repro.nn.layers import Embedding
from repro.nn.module import Module, ModuleList
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.adjacency import sample_uniform_neighbors
from repro.sampling.neighbor_sampler import sample_blocks
from repro.sampling.random_walk import _merged_csr
from repro.utils.rng import SeedLike, as_rng, spawn_rng


class _SageEncoder(Module):
    """Sampled two-layer mean aggregation over the merged adjacency."""

    def __init__(self, num_nodes: int, dim: int, fanouts: List[int],
                 indptr: np.ndarray, indices: np.ndarray, rng):
        super().__init__()
        rng = as_rng(rng)
        self.fanouts = fanouts
        self.features = Embedding(num_nodes, dim, rng=spawn_rng(rng))
        self.aggregators = ModuleList(
            [make_aggregator("mean", dim, dim, rng=spawn_rng(rng)) for _ in fanouts]
        )
        self._indptr = indptr
        self._indices = indices
        self._rng = spawn_rng(rng)

    def forward(self, nodes: np.ndarray) -> Tensor:
        blocks = sample_blocks(
            nodes, self.fanouts,
            [lambda hop, frontier, fanout: sample_uniform_neighbors(
                self._indptr, self._indices, frontier, fanout, self._rng)],
        ).single()
        return aggregate_layers(blocks, self.features, self.aggregators)


class GraphSage(SingleEmbeddingModel):
    """Inductive sampled-aggregation embeddings (heterogeneity ignored)."""

    name = "GraphSage"

    def __init__(self, dim: int = 32, fanouts: List[int] = (5, 3), epochs: int = 5,
                 batch_size: int = 128, learning_rate: float = 0.02,
                 rng: SeedLike = None):
        super().__init__(rng)
        self.dim = dim
        self.fanouts = list(fanouts)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate

    def fit(self, dataset: Dataset, split: EdgeSplit) -> None:
        graph = split.train_graph
        src, dst = graph.merged_homogeneous_view()
        if len(src) == 0:
            raise TrainingError("GraphSage needs at least one training edge")
        indptr, indices = _merged_csr(graph)
        encoder = _SageEncoder(
            graph.num_nodes, self.dim, self.fanouts, indptr, indices,
            spawn_rng(self._rng),
        )
        optimizer = Adam(encoder.parameters(), lr=self.learning_rate)
        rng = self._rng

        for _ in range(self.epochs):
            order = rng.permutation(len(src))
            for start in range(0, len(src), self.batch_size):
                idx = order[start: start + self.batch_size]
                pos_u, pos_v = src[idx], dst[idx]
                neg_v = rng.integers(0, graph.num_nodes, size=len(idx))
                emb_u = encoder(pos_u)
                emb_v = encoder(pos_v)
                emb_n = encoder(neg_v)
                pos_logit = (emb_u * emb_v).sum(axis=-1)
                neg_logit = (emb_u * emb_n).sum(axis=-1)
                loss = softplus(-pos_logit).mean() + softplus(neg_logit).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        # Materialise embeddings for evaluation.
        rows = []
        for start in range(0, graph.num_nodes, 1024):
            batch = np.arange(start, min(start + 1024, graph.num_nodes))
            rows.append(encoder(batch).data)
        self._embeddings = np.concatenate(rows, axis=0)
