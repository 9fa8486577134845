"""node2vec (Grover & Leskovec, KDD 2016).

DeepWalk with second-order biased walks controlled by the return parameter
p and in-out parameter q.
"""

from __future__ import annotations

from repro.baselines.base import SingleEmbeddingModel
from repro.baselines.word2vec import SkipGramEmbeddings
from repro.datasets.splits import EdgeSplit
from repro.datasets.zoo import Dataset
from repro.sampling.context import context_pairs
from repro.sampling.negative import UnigramNegativeSampler
from repro.sampling.node2vec_walk import Node2VecWalker
from repro.utils.rng import SeedLike, spawn_rng


class Node2Vec(SingleEmbeddingModel):
    """Biased-walk skip-gram embeddings on the homogenised graph."""

    name = "node2vec"

    def __init__(self, dim: int = 32, num_walks: int = 6, walk_length: int = 10,
                 window: int = 3, epochs: int = 2, num_negatives: int = 5,
                 p: float = 2.0, q: float = 0.5, learning_rate: float = 0.2,
                 rng: SeedLike = None):
        super().__init__(rng)
        self.dim = dim
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.num_negatives = num_negatives
        self.p = p
        self.q = q
        self.learning_rate = learning_rate

    def fit(self, dataset: Dataset, split: EdgeSplit) -> None:
        graph = split.train_graph
        walker = Node2VecWalker(graph, p=self.p, q=self.q, rng=spawn_rng(self._rng))
        walks = walker.walks_matrix(self.num_walks, self.walk_length)
        pairs = context_pairs(walks, self.window)
        sampler = UnigramNegativeSampler(graph, rng=spawn_rng(self._rng))
        model = SkipGramEmbeddings(
            graph.num_nodes, self.dim, learning_rate=self.learning_rate,
            num_negatives=self.num_negatives, rng=spawn_rng(self._rng),
        )
        model.train(pairs, sampler, epochs=self.epochs)
        self._embeddings = model.w_in
