"""Metapath-based random walks used for training (Sect. III-E, Eq. 12).

For every relationship r the paper defines the walk scheme

    phi(v_0) -r-> phi(v_1) -r-> ... -r-> phi(v_n)

and the transition T(v_{t+1} | v_t) is uniform over the neighbors of v_t
under r whose type matches the next type on the scheme.  The walker cycles
through the scheme's node types (a scheme like U-I-U continues U-I-U-I-U…
for walks longer than the scheme).

All starts of a round walk concurrently through the batched frontier engine
(:mod:`repro.sampling.frontier`): the typed CSR view for a walk position is
looked up once and advances every alive walker in one vectorised step.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import MetapathError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.sampling.adjacency import TypedAdjacencyCache, step_uniform
from repro.sampling.frontier import concat_matrices, run_frontier, walk_rounds
from repro.utils.rng import SeedLike, as_rng


class MetapathWalker:
    """Walks guided by one intra-relationship metapath scheme.

    Parameters
    ----------
    graph:
        The multiplex heterogeneous graph.
    scheme:
        An intra-relationship scheme; its single relation defines the
        relationship-specific subgraph g_r the walk stays inside.
    """

    def __init__(self, graph: MultiplexHeteroGraph, scheme: MetapathScheme,
                 rng: SeedLike = None,
                 adjacency: Optional[TypedAdjacencyCache] = None):
        scheme.validate(graph.schema)
        if not scheme.is_intra_relationship:
            raise MetapathError(
                "training walks use intra-relationship schemes; "
                f"got {scheme.describe()}"
            )
        self.graph = graph
        self.scheme = scheme
        self.relation = scheme.relations[0]
        self._rng = as_rng(rng)
        self._adjacency = adjacency or TypedAdjacencyCache(graph)

    def _type_at(self, position: int) -> str:
        """Node type at walk position ``position`` under cyclic extension."""
        cycle = self.scheme.node_types[:-1]  # last type == first for symmetric schemes
        if self.scheme.node_types[0] == self.scheme.node_types[-1]:
            return cycle[position % len(cycle)]
        # Asymmetric scheme: bounce back and forth (U-I-A-I-U style extension).
        full = list(self.scheme.node_types)
        period = 2 * (len(full) - 1)
        offset = position % period
        if offset >= len(full):
            offset = period - offset
        return full[offset]

    # ------------------------------------------------------------------
    def _check_starts(self, starts: np.ndarray) -> None:
        codes = self.graph.node_type_codes[starts]
        start_code = self.graph.schema.node_type_index(self.scheme.start_type)
        if np.any(codes != start_code):
            bad = int(starts[np.flatnonzero(codes != start_code)[0]])
            raise MetapathError(
                f"walk must start at a {self.scheme.start_type!r} node, "
                f"got {self.graph.node_type(bad)!r}"
            )

    def _step(self, nodes: np.ndarray, position: int,
              walker_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        indptr, indices = self._adjacency.view(self.relation, self._type_at(position))
        return step_uniform(indptr, indices, nodes, self._rng)

    def walk_matrix(self, starts: np.ndarray, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Metapath-guided walks from ``starts`` as a padded ``(W, L)`` matrix.

        All starts must have the scheme's start type; rows stop (padding
        with -1) at nodes with no valid typed neighbor.
        """
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        self._check_starts(starts)
        return run_frontier(starts, length, self._step)

    def walks_matrix(self, num_walks: int, length: int,
                     starts: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """``num_walks`` rounds of walks from each start node of the scheme's
        start type as one padded ``(W, L)`` matrix (:func:`walk_rounds`)."""
        if starts is None:
            starts = self.graph.nodes_of_type(self.scheme.start_type)
        return walk_rounds(self.walk_matrix, self._rng, starts, num_walks, length)


def relationship_walk_matrix(
    graph: MultiplexHeteroGraph,
    schemes: Sequence[MetapathScheme],
    num_walks: int,
    length: int,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pooled walks from several schemes (one relationship's PS_{r} set)
    as one padded ``(W, L)`` matrix, scheme by scheme."""
    rng = as_rng(rng)
    adjacency = None
    parts = []
    for scheme in schemes:
        walker = MetapathWalker(graph, scheme, rng=rng, adjacency=adjacency)
        adjacency = walker._adjacency  # share the typed-CSR cache across schemes
        parts.append(walker.walks_matrix(num_walks, length))
    return concat_matrices(parts)

