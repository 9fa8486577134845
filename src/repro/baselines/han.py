"""HAN (Wang et al., WWW 2019): hierarchical attention over metapaths.

Node-level attention (GAT-style) aggregates each metapath's sampled
neighbors; semantic-level attention fuses the per-metapath embeddings.
HAN ignores multiplexity, so it runs on the merged-relationship view of the
graph and produces one embedding per node; per the paper's protocol, its
reported number is the best over the dataset's metapath candidates — here
all candidates participate through semantic attention, which upper-bounds a
single-path choice in expectation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import BaselineModel
from repro.core.config import TrainerConfig
from repro.core.trainer import SkipGramTrainer
from repro.datasets.splits import EdgeSplit
from repro.datasets.zoo import Dataset
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.nn import init
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor, concat, stack
from repro.sampling.adjacency import TypedAdjacencyCache
from repro.sampling.neighbor_sampler import MetapathNeighborSampler
from repro.utils.rng import SeedLike, as_rng, spawn_rng

MERGED_RELATION = "all"


class _NodeLevelAttention(Module):
    """GAT-style attention of a target node over its metapath neighbors."""

    def __init__(self, dim: int, rng):
        super().__init__()
        rng = as_rng(rng)
        self.project = Linear(dim, dim, bias=False, rng=spawn_rng(rng))
        self.attn_self = Parameter(init.xavier_uniform((dim, 1), rng=spawn_rng(rng)))
        self.attn_neigh = Parameter(init.xavier_uniform((dim, 1), rng=spawn_rng(rng)))

    def forward(self, self_feats: Tensor, neighbor_feats: Tensor) -> Tensor:
        """(B, d), (B, n, d) -> (B, d)."""
        h_self = self.project(self_feats)          # (B, d)
        h_neigh = self.project(neighbor_feats)     # (B, n, d)
        score_self = h_self @ self.attn_self       # (B, 1)
        score_neigh = (h_neigh @ self.attn_neigh).squeeze(-1)  # (B, n)
        logits = (score_neigh + score_self).leaky_relu(0.2)
        weights = logits.softmax(axis=-1)          # (B, n)
        return (h_neigh * weights.unsqueeze(-1)).sum(axis=1).relu()


class _SemanticAttention(Module):
    """HAN's semantic-level attention over per-metapath embeddings."""

    def __init__(self, dim: int, hidden: int, rng):
        super().__init__()
        rng = as_rng(rng)
        self.project = Linear(dim, hidden, rng=spawn_rng(rng))
        self.query = Parameter(init.xavier_uniform((hidden, 1), rng=spawn_rng(rng)))

    def forward(self, per_path: List[Tensor]) -> Tensor:
        z = stack(per_path, axis=1)  # (B, P, d)
        keys = self.project(z).tanh()  # (B, P, h)
        # Path importance is averaged over the batch (HAN Eq. 7).
        scores = (keys @ self.query).squeeze(-1).mean(axis=0)  # (P,)
        weights = scores.softmax(axis=-1)  # (P,)
        return (z * weights.reshape(1, -1, 1)).sum(axis=1)


class HANModule(Module):
    """Trainable HAN network on the merged-relationship graph."""

    def __init__(self, graph: MultiplexHeteroGraph,
                 schemes: List[MetapathScheme], dim: int = 32,
                 fanout: int = 8, num_negatives: int = 5, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.graph = graph
        self.schemes = schemes
        self.num_negatives = num_negatives
        self.features = Embedding(graph.num_nodes, dim, rng=spawn_rng(rng))
        self.context = Embedding(graph.num_nodes, dim, rng=spawn_rng(rng))
        adjacency = TypedAdjacencyCache(graph)
        self._samplers = [
            MetapathNeighborSampler(
                graph, scheme, [fanout] * len(scheme), rng=spawn_rng(rng),
                adjacency=adjacency,
            )
            for scheme in schemes
        ]
        self.node_attention = ModuleList(
            [_NodeLevelAttention(dim, spawn_rng(rng)) for _ in schemes]
        )
        self.semantic_attention = _SemanticAttention(dim, dim, spawn_rng(rng))
        self.self_loop = Linear(dim, dim, bias=False, rng=spawn_rng(rng))
        self._cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _path_embedding(self, nodes: np.ndarray, index: int) -> Tensor:
        sampler = self._samplers[index]
        # Terminal metapath neighbors, one row per batch entry.
        neighbors = sampler.sample_layers(nodes).expand(len(sampler.fanouts))
        return self.node_attention[index](
            self.features(nodes), self.features(neighbors)
        )

    def forward(self, nodes: np.ndarray, relation: str = MERGED_RELATION) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        codes = self.graph.node_type_codes[nodes]
        type_names = self.graph.schema.node_types
        per_type_results: List[Tensor] = []
        positions: List[np.ndarray] = []
        for code in np.unique(codes):
            node_type = type_names[int(code)]
            idx = np.flatnonzero(codes == code)
            group = nodes[idx]
            applicable = [
                i for i, scheme in enumerate(self.schemes)
                if scheme.start_type == node_type
            ]
            if applicable:
                per_path = [self._path_embedding(group, i) for i in applicable]
                if len(per_path) == 1:
                    fused = per_path[0]
                else:
                    fused = self.semantic_attention(per_path)
            else:
                fused = self.self_loop(self.features(group)).relu()
            per_type_results.append(fused)
            positions.append(idx)
        if len(per_type_results) == 1:
            return per_type_results[0]
        combined = concat(per_type_results, axis=0)
        order = np.concatenate(positions)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        return combined[inverse]

    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        self._cache = None

    def node_embeddings(self, nodes: np.ndarray, relation: str,
                        chunk_size: int = 1024) -> np.ndarray:
        if self._cache is None:
            rows = []
            for start in range(0, self.graph.num_nodes, chunk_size):
                batch = np.arange(start, min(start + chunk_size, self.graph.num_nodes))
                rows.append(self.forward(batch).data)
            self._cache = np.concatenate(rows, axis=0)
        return self._cache[np.asarray(nodes, dtype=np.int64)]


class HAN(BaselineModel):
    """Baseline wrapper: merged-graph HAN trained with skip-gram walks."""

    name = "HAN"

    def __init__(self, dim: int = 32, fanout: int = 8,
                 trainer_config: Optional[TrainerConfig] = None,
                 rng: SeedLike = None):
        super().__init__(rng)
        self.dim = dim
        self.fanout = fanout
        self.trainer_config = trainer_config or TrainerConfig()
        self._module: Optional[HANModule] = None

    @staticmethod
    def merged_schemes(dataset: Dataset) -> List[MetapathScheme]:
        """Dataset metapath patterns re-typed onto the merged relation."""
        return [
            MetapathScheme.parse(pattern, MERGED_RELATION, dataset.abbreviations)
            for pattern in dataset.metapath_patterns
        ]

    def fit(self, dataset: Dataset, split: EdgeSplit) -> None:
        merged = split.train_graph.merged_relation_graph(MERGED_RELATION)
        schemes = self.merged_schemes(dataset)
        self._module = HANModule(
            merged, schemes, dim=self.dim, fanout=self.fanout,
            rng=spawn_rng(self._rng),
        )
        # Validation sets reference original relationships; the merged module
        # ignores the relation argument, so wrap the split transparently.
        merged_split = EdgeSplit(
            train_graph=merged, val=split.val, test=split.test
        )
        trainer = SkipGramTrainer(
            self._module,
            {MERGED_RELATION: schemes},
            merged_split,
            config=self.trainer_config,
            rng=spawn_rng(self._rng),
        )
        trainer.fit()

    def node_embeddings(self, nodes: np.ndarray, relation: str) -> np.ndarray:
        if self._module is None:
            raise RuntimeError("HAN has not been fitted")
        return self._module.node_embeddings(nodes, relation)
