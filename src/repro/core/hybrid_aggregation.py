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

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.nn.aggregators import make_aggregator
from repro.nn.layers import Embedding
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor, gather_rows
from repro.sampling.adjacency import TypedAdjacencyCache, sample_uniform_neighbors
from repro.sampling.exploration import RandomizedExploration
from repro.sampling.neighbor_sampler import (
    Blocks,
    MetapathNeighborSampler,
    sample_blocks,
    stack_blocks,
)
from repro.utils.rng import SeedLike, as_rng, slice_rngs, spawn_rng


def aggregate_layers(
    blocks: Blocks,
    features: Embedding,
    aggregators: ModuleList,
    rows: Optional[np.ndarray] = None,
) -> Tensor:
    """Collapse per-hop blocks into one embedding per batch entry.

    ``blocks`` (:class:`~repro.sampling.neighbor_sampler.Blocks`) carries
    a leading axis of S for stacked aggregators.  Every node of every
    level is looked up once, as one sorted unique ``features`` call; sweep
    k then computes h^(k+1) once per unique node of each level that still
    has a deeper one, from its own h^(k) and its children's, gathered
    through the block's row numbers (the recursion of Eq. 3).  Activations
    stay ``(..., rows, d)``, so a stacked aggregator is one batched GEMM
    per call.  Returns ``batch.shape + (d,)``; ``rows`` is passed on to
    stacked aggregators.
    """
    depth = len(blocks.children)
    assert len(aggregators) == depth, "one aggregator per sweep"
    ids, where = np.unique(np.concatenate([level.reshape(-1) for level in blocks.nodes]),
                           return_inverse=True)
    offsets = np.cumsum([level.size for level in blocks.nodes])[:-1]
    where = [w.reshape(level.shape)
             for w, level in zip(np.split(where, offsets), blocks.nodes)]
    table = features(ids)
    # Sweep 0 reads parents and children straight from the table.
    hidden = [
        aggregators[0](
            gather_rows(table, where[j]),
            gather_rows(table, where[j + 1].reshape(-1)[blocks.children[j]]),
            rows=rows,
        )
        for j in range(depth)
    ]
    for k in range(1, depth):
        hidden = [
            aggregators[k](hidden[j], gather_rows(hidden[j + 1], blocks.children[j]),
                           rows=rows)
            for j in range(depth - k)
        ]
    return gather_rows(hidden[0], blocks.batch)


class MetapathFlow(Module):
    """Metapath-guided flows (Eq. 3), one per relationship, run stacked.

    ``schemes`` holds one scheme per stacked relationship; they share a
    start type and a length, so their per-hop blocks stack
    (:func:`~repro.sampling.neighbor_sampler.stack_blocks`) and each
    sweep is one batched aggregation with ``(S, d_in, d_out)`` weights.  Each scheme samples with its own
    sampler; ``rng`` may be a list of one generator per scheme.
    ``forward`` returns ``(S, B, d)``; ``rows`` runs a subset.
    ``generators`` holds the samplers' generators.
    """

    def __init__(self, graph: MultiplexHeteroGraph, schemes: Sequence[MetapathScheme],
                 features: Embedding, edge_dim: int, fanouts: Sequence[int],
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
        self._samplers = [
            MetapathNeighborSampler(
                graph, scheme, self.fanouts, rng=generator, adjacency=adjacency
            )
            for scheme, generator in zip(self.schemes, self.generators)
        ]
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
        samplers = self._samplers if rows is None else [self._samplers[i] for i in rows]
        blocks = stack_blocks([sampler.sample_layers(nodes) for sampler in samplers])
        return aggregate_layers(blocks, self._features, self.aggregators, rows)


class ExplorationFlow(Module):
    """The P_rand flow fed by randomized inter-relationship exploration.

    One instance (one parameter stack) is shared across relationships,
    matching the paper's "learnable weights are shared among the randomized
    sample neighbors".
    """

    label = "random"

    def __init__(self, graph: MultiplexHeteroGraph, features: Embedding,
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
                 features: Embedding, edge_dim: int, depth: int, fanout: int,
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

    def _blocks(self, index: int, nodes: np.ndarray) -> Blocks:
        indptr, indices = self._csr[index]
        generator = self.generators[index]
        return sample_blocks(
            nodes, self.fanouts,
            lambda hop, frontier, fanout: sample_uniform_neighbors(
                indptr, indices, frontier, fanout, generator),
        )

    def forward(self, nodes: np.ndarray, rows: Optional[np.ndarray] = None) -> Tensor:
        picked = range(len(self.relations)) if rows is None else rows
        blocks = stack_blocks([self._blocks(i, nodes) for i in picked])
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
