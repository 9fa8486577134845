"""Vectorised adjacency sampling primitives.

All samplers in this package reduce to "pick a uniform neighbor of each node
in a batch under some (relationship, target-node-type) constraint".  This
module provides that primitive over the graph's CSR arrays, plus a cache of
*type-filtered* CSR views so metapath-guided sampling never rescans neighbor
lists.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.multiplex import MultiplexHeteroGraph


class TypedAdjacencyCache:
    """Lazy cache of CSR adjacencies filtered to one destination node type.

    ``view(relation, node_type)`` returns ``(indptr, indices)`` where the
    neighbor lists contain only nodes of ``node_type``.  ``node_type=None``
    returns the unfiltered adjacency.
    """

    def __init__(self, graph: MultiplexHeteroGraph):
        self.graph = graph
        self._cache: Dict[Tuple[str, Optional[str]], Tuple[np.ndarray, np.ndarray]] = {}

    def view(self, relation: str, node_type: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray]:
        key = (relation, node_type)
        if key not in self._cache:
            indptr, indices = self.graph.csr(relation)
            if node_type is None:
                self._cache[key] = (indptr, indices)
            else:
                code = self.graph.schema.node_type_index(node_type)
                keep = self.graph.node_type_codes[indices] == code
                new_indices = indices[keep]
                counts = np.zeros(self.graph.num_nodes, dtype=np.int64)
                # Recount kept neighbors per source row.
                row_of = np.repeat(
                    np.arange(self.graph.num_nodes), np.diff(indptr)
                )[keep]
                np.add.at(counts, row_of, 1)
                new_indptr = np.zeros(self.graph.num_nodes + 1, dtype=np.int64)
                np.cumsum(counts, out=new_indptr[1:])
                self._cache[key] = (new_indptr, new_indices)
        return self._cache[key]


def sample_uniform_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    count: int,
    rng: np.random.Generator,
    fallback: Optional[np.ndarray] = None,
) -> np.ndarray:
    """For each node, draw ``count`` neighbors uniformly with replacement.

    Nodes with an empty neighbor list receive ``fallback`` (defaults to the
    node itself), which keeps batch shapes fixed — the aggregation then mixes
    in the node's own state, a standard GraphSage-style degenerate case.

    Returns an int array of shape ``nodes.shape + (count,)``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    flat = nodes.reshape(-1)
    # ``np.take`` gathers several times faster than fancy indexing.
    starts = np.take(indptr, flat)
    degrees = np.take(indptr, flat + 1) - starts
    # Scale the uniform draws in place: same multiply, same truncation,
    # one less (flat.size, count) float64 temporary.
    draws = rng.random((flat.size, count))
    np.multiply(draws, np.maximum(degrees, 1)[:, None], out=draws)
    positions = draws.astype(np.int64)
    positions += starts[:, None]
    # Clip positions for zero-degree rows (value is replaced below anyway).
    np.minimum(positions, len(indices) - 1 if len(indices) else 0, out=positions)
    if len(indices):
        sampled = np.take(indices, positions)
    else:
        sampled = np.zeros((flat.size, count), dtype=np.int64)
    if fallback is None:
        fallback_flat = flat
    else:
        fallback_flat = np.asarray(fallback, dtype=np.int64).reshape(-1)
    empty = degrees == 0
    if empty.any():
        sampled[empty] = fallback_flat[empty, None]
    return sampled.reshape(nodes.shape + (count,))


def step_uniform(
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One uniform step for each node; returns ``(next_nodes, moved_mask)``.

    Nodes with no neighbors stay in place with ``moved_mask`` False.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    degrees = indptr[nodes + 1] - indptr[nodes]
    moved = degrees > 0
    # In-place scale of the draws: bit-identical offsets, no extra
    # full-frontier float64 temporary on the per-step hot path.
    draws = rng.random(nodes.size)
    np.multiply(draws, np.maximum(degrees, 1), out=draws)
    offsets = draws.astype(np.int64)
    positions = indptr[nodes] + offsets
    positions = np.minimum(positions, len(indices) - 1 if len(indices) else 0)
    next_nodes = nodes.copy()
    if len(indices):
        next_nodes[moved] = indices[positions[moved]]
    return next_nodes, moved
