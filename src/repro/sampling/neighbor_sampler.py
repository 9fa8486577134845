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

from typing import Callable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import MetapathError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.nn.tensor import Segments, stable_sort
from repro.sampling.adjacency import TypedAdjacencyCache, sample_uniform_neighbors
from repro.utils.rng import SeedLike, slice_rngs


class Blocks(NamedTuple):
    """Per-hop sampled blocks of a batch (see the module docstring).

    ``children[k]`` and ``batch`` hold row numbers into the next level's
    ``nodes`` with its leading axes flattened.  A stack of S slices puts a
    leading axis of S on every array.  The layouts come from the one sort
    of each level (:func:`sample_blocks`): ``children_segments[k]`` and
    ``batch_segments`` are the :class:`~repro.nn.tensor.Segments` of
    ``children[k]`` and ``batch`` over the rows they address.  Blocks
    built by hand may leave them None.
    """

    nodes: List[np.ndarray]
    children: List[np.ndarray]
    batch: np.ndarray
    children_segments: Optional[List[Segments]] = None
    batch_segments: Optional[Segments] = None

    def expand(self, level: int) -> np.ndarray:
        """Level ``level``'s node of every path from a batch entry, laid
        out per entry: shape ``batch.shape + (f_0 * ... * f_{level-1},)``."""
        rows = self.batch
        for children in self.children[:level]:
            rows = children.reshape(-1, children.shape[-1])[rows]
        return self.nodes[level].reshape(-1)[rows].reshape(self.batch.shape + (-1,))

    def single(self) -> "Blocks":
        """The blocks of a one-slice stack without the slice axis (the
        flattened rows and positions, hence the layouts, are unchanged)."""
        return self._replace(nodes=[level[0] for level in self.nodes],
                             children=[rows[0] for rows in self.children],
                             batch=self.batch[0])


def _level(ids: np.ndarray):
    """Reduce the ``(S, n)`` node ids of one level to its blocks' form.

    One sort of (slice, node, position) keys (:func:`stable_sort`) groups
    the positions by slice and node; each group is one row of the level,
    the slice's sorted unique nodes padded to the widest slice with the
    slice's last node.  The sorted positions are the rows' layout as they
    stand.  Returns the ``(S, width)`` nodes, the row of every position,
    the positions' :class:`Segments` over the rows and each slice's node
    count.
    """
    count = len(ids)
    span = int(ids.max()) + 1 if ids.size else 1
    order, ordered = stable_sort(ids + np.arange(count)[:, None] * span if count > 1 else ids)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = np.take(ordered, starts)
    # Slice s owns groups bounds[s]:bounds[s + 1], which start at sorted
    # positions ends[bounds[s]]:ends[bounds[s + 1]], and rows from s * width.
    bounds = np.searchsorted(keys, np.arange(count + 1) * span)
    sizes = np.diff(bounds)
    width = int(sizes.max())
    ends = np.append(starts, len(ordered))
    nodes = np.empty((count, width), dtype=np.int64)
    indptr = np.empty(count * width + 1, dtype=np.int64)
    indptr[-1] = len(ordered)
    rows = np.cumsum(first)
    rows -= 1
    for s, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        row = s * width
        nodes[s, :hi - lo] = keys[lo:hi] - s * span
        if hi - lo < width:
            nodes[s, hi - lo:] = nodes[s, hi - lo - 1]
        indptr[row:row + hi - lo] = starts[lo:hi]
        indptr[row + hi - lo:row + width] = ends[hi]
        rows[ends[lo]:ends[hi]] += row - lo
    children = np.empty(len(ordered), dtype=np.int64)
    children[order] = rows
    return nodes, children.reshape(ids.shape), Segments(indptr, order), sizes


def sample_blocks(nodes: np.ndarray, fanouts: Sequence[int],
                  draws: Sequence[Callable[[int, np.ndarray, int], np.ndarray]]) -> Blocks:
    """Stacked blocks of ``nodes``, one slice per draw, sampled hop by hop.

    ``draws[s](hop, frontier, fanout)`` samples a ``(len(frontier),
    fanout)`` array of neighbors of slice s's unique ``frontier``; each
    slice keeps its own draw order, so its nodes do not depend on the
    other slices.  Each level costs one sort over all slices
    (:func:`_level`), which yields its unique nodes, the row numbers and
    their layouts.  A padded slot repeats a real node of its own slice and
    no row points at it, so it gets no gradient and adds no untouched row
    to a row-sparse gradient; a padded frontier row's children point at
    its slice's first row.  Row numbers are offset by ``s * width`` to
    address the flattened stack.  :meth:`Blocks.single` drops the slice
    axis of a one-slice stack.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    count = len(draws)
    level, batch, batch_segments, sizes = _level(np.tile(nodes, (count, 1)))
    levels, children, layouts = [level], [], []
    for hop, fanout in enumerate(fanouts):
        sampled = np.empty(level.shape + (fanout,), dtype=np.int64)
        for s, (draw, size) in enumerate(zip(draws, sizes.tolist())):
            sampled[s, :size] = draw(hop, level[s, :size], fanout)
            if size < level.shape[1]:
                sampled[s, size:] = sampled[s, :size].min()
        level, rows, layout, sizes = _level(sampled.reshape(count, -1))
        levels.append(level)
        children.append(rows.reshape(sampled.shape))
        layouts.append(layout)
    return Blocks(levels, children, batch, layouts, batch_segments)


class MetapathNeighborSampler:
    """Samples metapath-guided neighborhoods for batches of start nodes.

    ``scheme`` is one scheme, or a sequence of schemes of one start type
    and length sampled side by side as the slices of a stack, each with
    its own generator (``rng`` may be a list of one generator per scheme;
    they are ``generators``).  One scheme gives blocks without the slice
    axis.
    """

    def __init__(self, graph: MultiplexHeteroGraph,
                 scheme: Union[MetapathScheme, Sequence[MetapathScheme]],
                 fanouts: Sequence[int], rng: SeedLike = None,
                 adjacency: Optional[TypedAdjacencyCache] = None):
        self._stacked = not isinstance(scheme, MetapathScheme)
        self.schemes = list(scheme) if self._stacked else [scheme]
        for each in self.schemes:
            each.validate(graph.schema)
            if len(fanouts) != len(each):
                raise MetapathError(
                    f"scheme {each.describe()} has {len(each)} hops but "
                    f"{len(fanouts)} fanouts were given"
                )
        if any(f <= 0 for f in fanouts):
            raise MetapathError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.generators = slice_rngs(rng, len(self.schemes))
        self._adjacency = adjacency or TypedAdjacencyCache(graph)

    @property
    def scheme(self) -> MetapathScheme:
        """The first scheme (for an unstacked sampler, its only one)."""
        return self.schemes[0]

    def _draw(self, index: int) -> Callable[[int, np.ndarray, int], np.ndarray]:
        scheme, rng = self.schemes[index], self.generators[index]

        def draw(hop: int, frontier: np.ndarray, fanout: int) -> np.ndarray:
            indptr, indices = self._adjacency.view(scheme.relations[hop],
                                                   scheme.node_types[hop + 1])
            return sample_uniform_neighbors(indptr, indices, frontier, fanout, rng)

        return draw

    def sample_layers(self, nodes: np.ndarray, rows: Optional[Sequence[int]] = None) -> Blocks:
        """Per-hop blocks for ``nodes`` (see module docstring), stacked over
        the schemes (those at ``rows``, default all) when there are several."""
        picked = range(len(self.schemes)) if rows is None else rows
        blocks = sample_blocks(nodes, self.fanouts, [self._draw(i) for i in picked])
        return blocks if self._stacked else blocks.single()

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
