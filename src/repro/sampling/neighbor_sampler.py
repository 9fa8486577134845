"""Metapath-guided neighbor sampling (Def. 5 and Eq. 3) in per-hop blocks.

Given a metapath scheme P = o_0 -r_1-> o_1 ... -r_K-> o_K and a batch of
o_0-typed nodes, :class:`MetapathNeighborSampler` draws fixed-size
neighborhoods hop by hop, as :class:`Blocks` (the message-flow graphs of
GraphSAGE-style minibatch training):

    level 0: the batch's unique nodes                 nodes[0]     (U_0,)
    hop k:   fanout[k] typed neighbors per level-k node,
             reduced to level k+1's unique nodes      nodes[k+1]   (U_{k+1},)
             and the rows each neighbor lands on      children[k]  (U_k, f_k)
    batch:   the level-0 row of every batch entry     batch        (B,)

Each level's nodes are sorted and unique, so a node that occurs several
times at one hop of a batch is sampled and aggregated once and shares one
neighborhood.  Fixed fanouts keep every block a dense array, which is what
makes the recursive aggregation of Eq. 3 a handful of matrix multiplies
instead of a per-node loop.  A node with no valid typed neighbor
contributes itself, preserving shapes (the aggregator then mixes in
self-information only).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import MetapathError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.sampling.adjacency import TypedAdjacencyCache, sample_uniform_neighbors
from repro.utils.rng import SeedLike, as_rng


class Blocks(NamedTuple):
    """Per-hop sampled blocks of a batch (see the module docstring).

    ``children[k]`` and ``batch`` hold row numbers into the next level's
    ``nodes`` with its leading axes flattened.  A stack of S slices
    (:func:`stack_blocks`) puts a leading axis of S on every array.
    """

    nodes: List[np.ndarray]
    children: List[np.ndarray]
    batch: np.ndarray

    def expand(self, level: int) -> np.ndarray:
        """Level ``level``'s node of every path from a batch entry, laid
        out per entry: shape ``batch.shape + (f_0 * ... * f_{level-1},)``."""
        rows = self.batch
        for children in self.children[:level]:
            rows = children.reshape(-1, children.shape[-1])[rows]
        return self.nodes[level].reshape(-1)[rows].reshape(self.batch.shape + (-1,))


def sample_blocks(nodes: np.ndarray, fanouts: Sequence[int],
                  draw: Callable[[int, np.ndarray, int], np.ndarray]) -> Blocks:
    """Blocks for ``nodes``; ``draw(hop, frontier, fanout)`` samples a
    ``(len(frontier), fanout)`` array of neighbors of the unique
    ``frontier``."""
    frontier, batch = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
    levels, children = [frontier], []
    for hop, fanout in enumerate(fanouts):
        sampled = draw(hop, frontier, fanout)
        frontier, inverse = np.unique(sampled, return_inverse=True)
        levels.append(frontier)
        children.append(inverse.reshape(sampled.shape))
    return Blocks(levels, children, batch.reshape(-1))


def stack_blocks(slices: Sequence[Blocks]) -> Blocks:
    """Stack same-depth blocks of one batch into ``(S, ...)`` arrays.

    Level k is padded to the widest slice's node count.  A padded slot
    repeats a real node of its own slice and no row points at it, so it
    gets no gradient and adds no untouched row to a row-sparse gradient;
    a padded children row points at its slice's first row.  Row numbers
    are offset by ``s * width`` to address the flattened stack.
    """
    count = len(slices)
    widths = [max(len(block.nodes[k]) for block in slices)
              for k in range(len(slices[0].nodes))]
    nodes = [np.empty((count, width), dtype=np.int64) for width in widths]
    children = [np.empty((count, widths[k], rows.shape[1]), dtype=np.int64)
                for k, rows in enumerate(slices[0].children)]
    batch = np.empty((count, len(slices[0].batch)), dtype=np.int64)
    for s, block in enumerate(slices):
        for level, ids in zip(nodes, block.nodes):
            level[s, :len(ids)] = ids
            level[s, len(ids):] = ids[-1:]
        for k, rows in enumerate(block.children):
            offset = s * widths[k + 1]
            children[k][s, :len(rows)] = rows + offset
            children[k][s, len(rows):] = offset
        batch[s] = block.batch + s * widths[0]
    return Blocks(nodes, children, batch)


class MetapathNeighborSampler:
    """Samples metapath-guided neighborhoods for batches of start nodes."""

    def __init__(self, graph: MultiplexHeteroGraph, scheme: MetapathScheme,
                 fanouts: Sequence[int], rng: SeedLike = None,
                 adjacency: Optional[TypedAdjacencyCache] = None):
        scheme.validate(graph.schema)
        if len(fanouts) != len(scheme):
            raise MetapathError(
                f"scheme {scheme.describe()} has {len(scheme)} hops but "
                f"{len(fanouts)} fanouts were given"
            )
        if any(f <= 0 for f in fanouts):
            raise MetapathError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.scheme = scheme
        self.fanouts = list(fanouts)
        self._rng = as_rng(rng)
        self._adjacency = adjacency or TypedAdjacencyCache(graph)

    def sample_layers(self, nodes: np.ndarray) -> Blocks:
        """Per-hop blocks for ``nodes`` (see module docstring)."""

        def draw(hop: int, frontier: np.ndarray, fanout: int) -> np.ndarray:
            relation = self.scheme.relations[hop]
            target_type = self.scheme.node_types[hop + 1]
            indptr, indices = self._adjacency.view(relation, target_type)
            return sample_uniform_neighbors(indptr, indices, frontier, fanout, self._rng)

        return sample_blocks(nodes, self.fanouts, draw)

    def guided_neighbors(self, node: int, step: int) -> np.ndarray:
        """Exact N^step_P(node): all metapath-guided neighbors (no sampling).

        Exponential in path length; intended for tests and small-graph
        inspection, not training.
        """
        if not 0 <= step <= len(self.scheme):
            raise MetapathError(f"step must be in [0, {len(self.scheme)}], got {step}")
        frontier = {int(node)}
        for hop in range(step):
            relation = self.scheme.relations[hop]
            target_type = self.scheme.node_types[hop + 1]
            code = self.graph.schema.node_type_index(target_type)
            next_frontier = set()
            for current in frontier:
                for neighbor in self.graph.neighbors(current, relation):
                    if self.graph.node_type_codes[neighbor] == code:
                        next_frontier.add(int(neighbor))
            frontier = next_frontier
            if not frontier:
                break
        return np.asarray(sorted(frontier), dtype=np.int64)
