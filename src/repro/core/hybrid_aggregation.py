"""Hybrid aggregation flows (Sect. III-C, Eqs. 3-5).

A *flow* turns a batch of nodes into edge embeddings by recursively
aggregating a layered, fixed-fanout neighborhood:

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
from repro.nn.tensor import Tensor
from repro.sampling.adjacency import TypedAdjacencyCache, sample_uniform_neighbors
from repro.sampling.exploration import RandomizedExploration
from repro.sampling.neighbor_sampler import MetapathNeighborSampler
from repro.utils.rng import SeedLike, as_rng, slice_rngs, spawn_rng


def aggregate_layers(
    layers: Sequence[np.ndarray],
    fanouts: Sequence[int],
    features: Embedding,
    aggregators: ModuleList,
    rows: Optional[np.ndarray] = None,
) -> Tensor:
    """Collapse layered neighborhoods into one embedding per batch node.

    ``layers[j]`` holds node ids of shape ``lead + (prod(fanouts[:j]),)``
    (layer 0 may omit the last axis), where ``lead`` is ``(B,)``, or
    ``(S, B)`` for stacked aggregators; sweep k collapses the deepest
    remaining layer into its parents using ``aggregators[k]``, realising
    the recursion of Eq. 3.  Activations stay flat, ``(..., rows, d)``, so
    a stacked aggregator is one batched GEMM per call.  Returns
    ``lead + (d,)``.  ``rows`` is passed on to stacked aggregators.
    """
    depth = len(layers) - 1
    assert len(aggregators) == depth, "one aggregator per sweep"
    stack = layers[0].shape[:-1]
    embeddings = [features(layer.reshape(stack + (-1,))) for layer in layers]
    for k in range(depth):
        aggregator = aggregators[k]
        collapsed = []
        for j in range(len(embeddings) - 1):
            parent = embeddings[j]
            child = embeddings[j + 1].reshape(parent.shape[:-1] + (fanouts[j], -1))
            collapsed.append(aggregator(parent, child, rows=rows))
        embeddings = collapsed
    return embeddings[0]


class MetapathFlow(Module):
    """Metapath-guided flows (Eq. 3), one per relationship, run stacked.

    ``schemes`` holds one scheme per stacked relationship; they share a
    start type and a length, so their sampled layers stack to
    ``(S, B, ...)`` and each sweep is one batched aggregation with
    ``(S, d_in, d_out)`` weights.  Each scheme samples with its own
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
        sampled = [sampler.sample_layers(nodes) for sampler in samplers]
        layers = [np.stack(layer) for layer in zip(*sampled)]
        return aggregate_layers(layers, self.fanouts, self._features, self.aggregators, rows)


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
        layers = self._exploration.sample_layers(nodes, self.depth, self.fanouts)
        return aggregate_layers(layers, self.fanouts, self._features, self.aggregators)


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

    def forward(self, nodes: np.ndarray, rows: Optional[np.ndarray] = None) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        picked = range(len(self.relations)) if rows is None else rows
        layers = [np.tile(nodes, (len(picked), 1))]
        for fanout in self.fanouts:
            layers.append(np.stack([
                sample_uniform_neighbors(
                    *self._csr[i], frontier.reshape(-1), fanout, self.generators[i]
                ).reshape(len(nodes), -1)
                for i, frontier in zip(picked, layers[-1])
            ]))
        return aggregate_layers(layers, self.fanouts, self._features, self.aggregators, rows)


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
