"""Hybrid aggregation flows (Sect. III-C, Eqs. 3-5).

A *flow* turns a batch of nodes into edge embeddings by recursively
aggregating a fixed-fanout neighborhood, sampled hop by hop as blocks of
unique nodes (:mod:`repro.sampling.neighbor_sampler`):

    h^{(k)}_{v|P} = AGG_P(h^{(k-1)}_{v|P}, {h^{(k-1)}_{u|P} : u in N^{K-k+1}_P(v)})

Three flow types share this recursion and differ only in how layers are
sampled:

- :class:`MetapathFlow` — layers follow a predefined intra-relationship
  metapath scheme (Eq. 3), one per relationship, run as one stack;
- :class:`ExplorationFlow` — layers come from the randomized
  inter-relationship exploration (Eq. 4), with one shared parameter stack;
- :class:`RandomNeighborFlow` — untyped uniform neighbors inside each
  relationship's subgraph, stacked (the "w/o hybrid aggregation"
  ablation of Table VII).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.nn.aggregators import make_aggregator
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Segments, Tensor, gather_rows, segments, stable_sort
from repro.sampling.adjacency import TypedAdjacencyCache, sample_uniform_neighbors
from repro.sampling.exploration import RandomizedExploration
from repro.sampling.neighbor_sampler import (
    Blocks,
    MetapathNeighborSampler,
    sample_blocks,
)
from repro.utils.rng import SeedLike, as_rng, slice_rngs, spawn_rng


def _lookup(features: Module, blocks: Blocks):
    """h^(0) of every level node, as one sorted unique ``features`` lookup.

    One sort over all levels (:func:`~repro.nn.tensor.stable_sort`) yields
    the unique ids and the table row of every level node (shaped like its
    level).  ``layout(k)`` builds level k's layout over the table from the
    same sort, once, when a backward first needs it.
    """
    levels = [level.reshape(-1) for level in blocks.nodes]
    order, ordered = stable_sort(np.concatenate(levels))
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    table = features(ordered[first])
    inverse = np.empty(len(ordered), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    bounds = np.cumsum([0] + [len(level) for level in levels]).tolist()
    where = [inverse[lo:hi].reshape(level.shape)
             for level, lo, hi in zip(blocks.nodes, bounds[:-1], bounds[1:])]

    @lru_cache(maxsize=None)
    def layout(k: int) -> Segments:
        lo, hi = bounds[k], bounds[k + 1]
        return segments(where[k], len(table), order[(order >= lo) & (order < hi)] - lo)

    return table, where, layout


def _through(children: Segments, layout: Callable[[int], Segments], level: int) -> Segments:
    """The layout over the table of the children's table rows, from the
    children's layout over level ``level``'s rows and that level's layout
    over the table.  The level's layout lists its rows by table row and
    then by slice; the children's positions are slice-major, so their
    runs concatenated in that row order are stable-sorted by table row,
    and the running count at each table row's first level row is its
    start."""
    rows = layout(level)
    starts = np.take(children.indptr, rows.order)
    counts = np.take(children.indptr, rows.order + 1) - starts
    done = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=done[1:])
    skip = np.repeat(starts - done[:-1], counts)
    order = np.take(children.order, skip + np.arange(len(skip)))
    return Segments(np.take(done, rows.indptr), order)


def aggregate_layers(
    blocks: Blocks,
    features: Module,
    aggregators: ModuleList,
    rows: Optional[np.ndarray] = None,
) -> Tensor:
    """Collapse per-hop blocks into one embedding per batch entry.

    ``blocks`` (:class:`~repro.sampling.neighbor_sampler.Blocks`) carries
    a leading axis of S for stacked aggregators.  Every node of every
    level is looked up once, as one sorted unique ``features`` call; sweep
    k then computes h^(k+1) once per unique node of each level that still
    has a deeper one, from its own h^(k) and its children's, gathered
    through the block's row numbers (the recursion of Eq. 3).  Each
    gather's backward sums through a layout that a sort already made: the
    sampler's, one per level, or the lookup's.  Activations stay
    ``(..., rows, d)``, so a stacked aggregator is one batched GEMM per
    call.  Returns ``batch.shape + (d,)``; ``rows`` is passed on to
    stacked aggregators.
    """
    depth = len(blocks.children)
    assert len(aggregators) == depth, "one aggregator per sweep"
    table, where, layout = _lookup(features, blocks)
    laid_out = blocks.children_segments is not None
    # Sweep 0 reads parents and children straight from the table.
    hidden = []
    for j in range(depth):
        index = np.take(where[j + 1], blocks.children[j])
        through = (partial(_through, blocks.children_segments[j], layout, j + 1)
                   if laid_out else None)
        hidden.append(aggregators[0](gather_rows(table, where[j], partial(layout, j)),
                                     gather_rows(table, index, through), rows=rows))
    for k in range(1, depth):
        hidden = [
            aggregators[k](
                hidden[j],
                gather_rows(hidden[j + 1], blocks.children[j],
                            blocks.children_segments[j] if laid_out else None),
                rows=rows,
            )
            for j in range(depth - k)
        ]
    return gather_rows(hidden[0], blocks.batch, blocks.batch_segments)


class MetapathFlow(Module):
    """Metapath-guided flows (Eq. 3), one per relationship, run stacked.

    ``schemes`` holds one scheme per stacked relationship; they share a
    start type and a length, so one stacked sampler draws their per-hop
    blocks side by side and each sweep is one batched aggregation with
    ``(S, d_in, d_out)`` weights.  Each scheme samples with its own
    generator; ``rng`` may be a list of one generator per scheme.
    ``forward`` returns ``(S, B, d)``; ``rows`` runs a subset.
    ``generators`` holds the samplers' generators.
    """

    def __init__(self, graph: MultiplexHeteroGraph, schemes: Sequence[MetapathScheme],
                 features: Module, edge_dim: int, fanouts: Sequence[int],
                 aggregator: str = "mean", rng: SeedLike = None,
                 adjacency: Optional[TypedAdjacencyCache] = None):
        super().__init__()
        self.schemes = list(schemes)
        length = len(self.schemes[0])
        if any(len(s) != length or s.start_type != self.start_type for s in self.schemes):
            raise ValueError("stacked schemes must share a start type and a length")
        self.fanouts = list(fanouts)[:length]
        if len(self.fanouts) < length:
            raise ValueError(
                f"scheme {self.schemes[0].describe()} needs {length} fanouts, "
                f"got {len(self.fanouts)}"
            )
        self._features = features
        rngs = slice_rngs(rng, len(self.schemes))
        self.generators = [spawn_rng(r) for r in rngs]
        self._sampler = MetapathNeighborSampler(
            graph, self.schemes, self.fanouts, rng=self.generators, adjacency=adjacency
        )
        self.aggregators = ModuleList(
            [
                make_aggregator(aggregator, edge_dim, edge_dim,
                                rng=[spawn_rng(r) for r in rngs], stack=len(rngs))
                for _ in range(length)
            ]
        )

    @property
    def labels(self) -> List[str]:
        """Per stacked scheme, the identifier used in attention readouts."""
        return ["-".join(t[0].upper() for t in s.node_types) for s in self.schemes]

    @property
    def start_type(self) -> str:
        return self.schemes[0].start_type

    def forward(self, nodes: np.ndarray, rows: Optional[np.ndarray] = None) -> Tensor:
        blocks = self._sampler.sample_layers(nodes, rows)
        return aggregate_layers(blocks, self._features, self.aggregators, rows)


class ExplorationFlow(Module):
    """The P_rand flow fed by randomized inter-relationship exploration.

    One instance (one parameter stack) is shared across relationships,
    matching the paper's "learnable weights are shared among the randomized
    sample neighbors".
    """

    label = "random"

    def __init__(self, graph: MultiplexHeteroGraph, features: Module,
                 edge_dim: int, depth: int, fanout: int,
                 aggregator: str = "mean", rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.depth = depth
        self.fanouts = [fanout] * depth
        self._features = features
        self.generators = [spawn_rng(rng)]
        self._exploration = RandomizedExploration(graph, rng=self.generators[0])
        self.aggregators = ModuleList(
            [
                make_aggregator(aggregator, edge_dim, edge_dim, rng=spawn_rng(rng))
                for _ in range(depth)
            ]
        )

    def forward(self, nodes: np.ndarray) -> Tensor:
        blocks = self._exploration.sample_layers(nodes, self.depth, self.fanouts)
        return aggregate_layers(blocks, self._features, self.aggregators)


class RandomNeighborFlow(Module):
    """Untyped uniform-neighbor aggregation, one per relationship, stacked.

    Used by the "w/o hybrid aggregation flows" ablation: metapath guidance is
    replaced by plain random sampling aggregation in each g_r.  ``forward``
    returns ``(S, B, d)`` for the S ``relations``; ``rows`` runs a subset.
    ``rng`` may be a list of one generator per relationship.
    """

    label = "random-neighbor"

    def __init__(self, graph: MultiplexHeteroGraph, relations: Sequence[str],
                 features: Module, edge_dim: int, depth: int, fanout: int,
                 aggregator: str = "mean", rng: SeedLike = None):
        super().__init__()
        self.relations = list(relations)
        self.depth = depth
        self.fanouts = [fanout] * depth
        self._features = features
        self._csr = [graph.csr(relation) for relation in self.relations]
        rngs = slice_rngs(rng, len(self.relations))
        self.generators = [spawn_rng(r) for r in rngs]
        self.aggregators = ModuleList(
            [
                make_aggregator(aggregator, edge_dim, edge_dim,
                                rng=[spawn_rng(r) for r in rngs], stack=len(rngs))
                for _ in range(depth)
            ]
        )

    @property
    def labels(self) -> List[str]:
        return [self.label] * len(self.relations)

    def _draw(self, index: int):
        (indptr, indices), generator = self._csr[index], self.generators[index]
        return lambda hop, frontier, fanout: sample_uniform_neighbors(
            indptr, indices, frontier, fanout, generator)

    def forward(self, nodes: np.ndarray, rows: Optional[np.ndarray] = None) -> Tensor:
        picked = range(len(self.relations)) if rows is None else rows
        blocks = sample_blocks(nodes, self.fanouts, [self._draw(i) for i in picked])
        return aggregate_layers(blocks, self._features, self.aggregators, rows)


class FlowGroup(Module):
    """Relationships whose flows for one node type share a signature.

    ``relations`` indexes the model's relationship list; flow i of every
    one of them runs as the stacked flow ``stacks[i]``.  A group with no
    stacks has no metapath flow for the node type.
    """

    def __init__(self, relations: np.ndarray, stacks: Sequence[Module]):
        super().__init__()
        self.relations = np.asarray(relations, dtype=np.int64)
        self.stacks = ModuleList(stacks)
