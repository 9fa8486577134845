"""Negative sampling distributions.

Skip-gram training draws "noise" nodes from the unigram distribution raised
to the 3/4 power (word2vec's P_Neg).  For heterogeneous graphs the paper
follows metapath2vec's *heterogeneous* negative sampling: negatives are
drawn among nodes of the same type as the positive context node.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SamplingError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.sampling.alias import AliasTable
from repro.utils.rng import SeedLike, as_rng


class UnigramNegativeSampler:
    """Draws nodes proportional to degree^power (default 0.75).

    Parameters
    ----------
    graph:
        Source of degrees and node types.
    power:
        Distortion exponent; 0 gives the uniform distribution.
    per_type:
        When True (heterogeneous negative sampling), ``sample`` restricted to
        a node type uses a distribution over that type only.
    """

    def __init__(self, graph: MultiplexHeteroGraph, power: float = 0.75,
                 rng: SeedLike = None):
        self.graph = graph
        self.power = power
        self._rng = as_rng(rng)
        degrees = graph.degrees().astype(np.float64)  # repro-lint: intended-dtype=float64 (one-time promotion to the unigram probability dtype)
        weights = np.power(np.maximum(degrees, 1e-12), power)
        # Alias tables give O(1) draws; choice(p=...) would rescan the
        # distribution on every batch.
        self._global_table = AliasTable(weights)
        self._type_tables: Dict[str, AliasTable] = {}
        self._type_nodes: Dict[str, np.ndarray] = {}
        for node_type in graph.schema.node_types:
            nodes = graph.nodes_of_type(node_type)
            if len(nodes) == 0:
                continue
            self._type_nodes[node_type] = nodes
            self._type_tables[node_type] = AliasTable(weights[nodes])

    def sample(self, size: int, node_type: Optional[str] = None) -> np.ndarray:
        """Draw ``size`` node ids, optionally restricted to one node type."""
        if size <= 0:
            raise SamplingError(f"sample size must be positive, got {size}")
        if node_type is None:
            return self._global_table.sample(size, rng=self._rng)
        if node_type not in self._type_nodes:
            raise SamplingError(f"no nodes of type {node_type!r} to sample")
        positions = self._type_tables[node_type].sample(size, rng=self._rng)
        return self._type_nodes[node_type][positions]

    def sample_like(self, nodes: np.ndarray, num_negatives: int) -> np.ndarray:
        """For each node, draw ``num_negatives`` negatives of the same type.

        Returns shape ``(len(nodes), num_negatives)``.  This is the
        heterogeneous negative sampling of Eq. 13.  Like word2vec and
        metapath2vec, a draw may hit the positive node itself.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        result = np.empty((len(nodes), num_negatives), dtype=np.int64)
        codes = self.graph.node_type_codes[nodes]
        for code in np.unique(codes):
            node_type = self.graph.schema.node_types[int(code)]
            mask = codes == code
            count = int(mask.sum()) * num_negatives
            draws = self.sample(count, node_type=node_type)
            result[mask] = draws.reshape(-1, num_negatives)
        return result
