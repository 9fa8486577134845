"""DeepWalk (Perozzi et al., KDD 2014).

Uniform random walks over the type-erased graph feed a skip-gram model.
Node and edge types are ignored during training and evaluation, exactly as
the paper applies this baseline (Sect. IV-B).
"""

from __future__ import annotations

from repro.baselines.base import SingleEmbeddingModel
from repro.baselines.word2vec import SkipGramEmbeddings
from repro.datasets.splits import EdgeSplit
from repro.datasets.zoo import Dataset
from repro.sampling.context import context_pairs
from repro.sampling.negative import UnigramNegativeSampler
from repro.sampling.random_walk import UniformRandomWalker
from repro.utils.rng import SeedLike, spawn_rng


class DeepWalk(SingleEmbeddingModel):
    """Random-walk skip-gram embeddings on the homogenised graph."""

    name = "DeepWalk"

    def __init__(self, dim: int = 32, num_walks: int = 6, walk_length: int = 10,
                 window: int = 3, epochs: int = 2, num_negatives: int = 5,
                 learning_rate: float = 0.2, rng: SeedLike = None):
        super().__init__(rng)
        self.dim = dim
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.num_negatives = num_negatives
        self.learning_rate = learning_rate

    def fit(self, dataset: Dataset, split: EdgeSplit) -> None:
        graph = split.train_graph
        walker = UniformRandomWalker(graph, rng=spawn_rng(self._rng))
        walks = walker.walks_matrix(self.num_walks, self.walk_length)
        pairs = context_pairs(walks, self.window)
        sampler = UnigramNegativeSampler(graph, rng=spawn_rng(self._rng))
        # DeepWalk ignores node types: draw negatives globally by overriding
        # the per-type restriction.
        model = SkipGramEmbeddings(
            graph.num_nodes, self.dim, learning_rate=self.learning_rate,
            num_negatives=self.num_negatives, rng=spawn_rng(self._rng),
        )
        model.train(pairs, sampler, epochs=self.epochs)
        self._embeddings = model.w_in
