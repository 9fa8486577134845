"""Sampling machinery: walks, exploration, neighborhoods and negatives."""

from repro.sampling.adjacency import (
    TypedAdjacencyCache,
    sample_uniform_neighbors,
    step_uniform,
)
from repro.sampling.alias import AliasTable
from repro.sampling.frontier import PAD, concat_matrices, run_frontier
from repro.sampling.random_walk import UniformRandomWalker
from repro.sampling.node2vec_walk import Node2VecWalker
from repro.sampling.metapath_walk import MetapathWalker, relationship_walk_matrix
from repro.sampling.exploration import RandomizedExploration
from repro.sampling.neighbor_sampler import (
    Blocks,
    MetapathNeighborSampler,
    sample_blocks,
)
from repro.sampling.negative import UnigramNegativeSampler
from repro.sampling.context import context_pairs

__all__ = [
    "AliasTable",
    "PAD",
    "TypedAdjacencyCache",
    "sample_uniform_neighbors",
    "step_uniform",
    "run_frontier",
    "concat_matrices",
    "UniformRandomWalker",
    "Node2VecWalker",
    "MetapathWalker",
    "relationship_walk_matrix",
    "RandomizedExploration",
    "MetapathNeighborSampler",
    "Blocks",
    "sample_blocks",
    "UnigramNegativeSampler",
    "context_pairs",
]
