"""The HybridGNN model (Sect. III, Algorithm 1).

For a batch of nodes and a target relationship r_l the forward pass:

1. runs the hybrid aggregation flows of every relationship — the predefined
   intra-relationship metapath flows of PS_r plus the shared randomized
   inter-relationship exploration flow (Eqs. 3-5);
2. fuses each relationship's flows with metapath-level attention and mean
   pooling (Eqs. 6-7), giving \\hat h_{v, r};
3. fuses the per-relationship embeddings with relationship-level attention
   (Eqs. 8-9), giving the local edge embedding e_{v, r_l};
4. outputs  e*_{v, r_l} = e_v + e_{v, r_l} W_{r_l}  (Eq. 10).

Steps 1-3 run for all relationships at once (:meth:`HybridGNN.forward_all`);
``forward(nodes, r)`` is its column r.

The four ablation switches of Table VII are honoured via
:class:`~repro.core.config.HybridGNNConfig`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TrainingError
from repro.core.config import HybridGNNConfig
from repro.core.features import make_feature_source
from repro.core.hierarchical_attention import (
    MetapathLevelAttention,
    RelationshipLevelAttention,
)
from repro.core.hybrid_aggregation import (
    ExplorationFlow,
    FlowGroup,
    MetapathFlow,
    RandomNeighborFlow,
)
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.graph.schema import MetapathScheme
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module, ModuleDict, ModuleList
from repro.nn.tensor import Tensor, concat, embedding_lookup, gather_rows, segments, stable_sort
from repro.sampling.adjacency import TypedAdjacencyCache
from repro.utils.rng import SeedLike, as_rng, preserved_streams, spawn_rng


class HybridGNN(Module):
    """End-to-end GNN for recommendation in multiplex heterogeneous networks.

    The relationship axis is a tensor axis: every per-relationship weight
    is one slice of a stacked parameter, and the flows of all
    relationships run as one stacked computation per node type and flow
    signature (DESIGN.md, "Stacked relationship flows").

    Parameters
    ----------
    graph:
        The (training) multiplex heterogeneous graph.
    schemes_by_relation:
        PS_r for every relationship: the predefined intra-relationship
        metapath schemes (Table II).  Only schemes whose start type matches a
        node's type apply to that node (the rho(v) ∩ PS_r of Eq. 3).
    config:
        Model hyper-parameters and ablation switches.
    """

    def __init__(
        self,
        graph: MultiplexHeteroGraph,
        schemes_by_relation: Dict[str, List[MetapathScheme]],
        config: HybridGNNConfig = HybridGNNConfig(),
        rng: SeedLike = None,
        node_features: Optional[np.ndarray] = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        self.graph = graph
        self.config = config
        self.relations = list(graph.schema.relationships)
        missing = set(self.relations) - set(schemes_by_relation)
        if config.use_hybrid_flows and missing:
            raise TrainingError(f"no metapath schemes given for relationships {sorted(missing)}")

        num_nodes = graph.num_nodes
        self.base = Embedding(num_nodes, config.base_dim, rng=spawn_rng(rng))
        # Flow inputs h^(0): a learned table (transductive, the paper's
        # experiments) or projected fixed node features (inductive setting).
        self.features = make_feature_source(
            num_nodes, config.edge_dim, node_features=node_features,
            rng=spawn_rng(rng),
        )
        self.context = Embedding(num_nodes, config.base_dim, rng=spawn_rng(rng))
        self.flows = ModuleDict(self._build_flows(schemes_by_relation, rng))

        self.exploration_flow: Optional[ExplorationFlow] = None
        if config.use_randomized_exploration:
            self.exploration_flow = ExplorationFlow(
                graph, self.features, config.edge_dim, depth=config.exploration_depth,
                fanout=config.exploration_fanout, aggregator=config.aggregator,
                rng=spawn_rng(rng),
            )
        # Slice r of a stacked weight draws from its own stream, spawned in
        # relationship order, so seeding does not depend on the grouping.
        stack = len(self.relations)
        self.metapath_attention = MetapathLevelAttention(
            config.edge_dim, enabled=config.use_metapath_attention,
            rng=[spawn_rng(rng) for _ in self.relations], stack=stack,
        )
        self.relationship_attention = RelationshipLevelAttention(
            config.edge_dim, enabled=config.use_relationship_attention,
            rng=spawn_rng(rng),
        )
        # Eq. 10's W_r, one (edge_dim, base_dim) slice per relationship.
        self.output_transforms = Linear(
            config.edge_dim, config.base_dim, bias=False,
            rng=[spawn_rng(rng) for _ in self.relations], stack=stack,
        )
        # Projection used only for nodes with no applicable flow at all.
        self.self_projection = Linear(
            config.edge_dim, config.edge_dim, bias=False, rng=spawn_rng(rng)
        )
        self._embedding_cache: Dict[str, np.ndarray] = {}

    def _build_flows(self, schemes_by_relation: Dict[str, List[MetapathScheme]],
                     rng) -> Dict[str, ModuleList]:
        """Per node type, the relationships grouped by flow signature.

        A relationship's signature for a node type is the lengths (hence
        fanouts) of its schemes starting at that type, in order.  Equal
        signatures stack; the shipped datasets form one group per type.
        """
        graph, config = self.graph, self.config
        node_types = graph.schema.node_types
        if not config.use_hybrid_flows:
            shared = RandomNeighborFlow(
                graph, self.relations, self.features, config.edge_dim,
                depth=config.random_flow_depth, fanout=config.exploration_fanout,
                aggregator=config.aggregator, rng=[spawn_rng(rng) for _ in self.relations],
            )
            every = np.arange(len(self.relations))
            return {t: ModuleList([FlowGroup(every, [shared])]) for t in node_types}
        # One stream per (relationship, scheme), drawn in that order.
        seeded = [
            [(scheme, spawn_rng(rng)) for scheme in schemes_by_relation[relation]]
            for relation in self.relations
        ]
        for scheme, _ in sum(seeded, []):
            scheme.validate(graph.schema)
        adjacency = TypedAdjacencyCache(graph)
        flows: Dict[str, ModuleList] = {}
        for node_type in node_types:
            starting = [[pair for pair in pairs if pair[0].start_type == node_type]
                        for pairs in seeded]
            by_signature: Dict[tuple, List[int]] = {}
            for index, pairs in enumerate(starting):
                by_signature.setdefault(tuple(len(s) for s, _ in pairs), []).append(index)
            groups = []
            for members in by_signature.values():
                stacks = [
                    MetapathFlow(
                        graph, [starting[index][i][0] for index in members],
                        self.features, config.edge_dim, config.metapath_fanouts,
                        aggregator=config.aggregator, adjacency=adjacency,
                        rng=[starting[index][i][1] for index in members],
                    )
                    for i in range(len(starting[members[0]]))
                ]
                groups.append(FlowGroup(np.asarray(members), stacks))
            flows[node_type] = ModuleList(groups)
        return flows

    @property
    def num_negatives(self) -> int:
        """Negatives per positive pair (trainer protocol)."""
        return self.config.num_negatives

    def audit_exemptions(self) -> Dict[str, str]:
        """Parameters structurally unused for this configuration.

        Consumed by the graph auditor (``repro check-model``): matching
        parameters that are unreachable from the loss are reported as
        informational rather than as defects.  Patterns are fnmatch-style
        against ``named_parameters()`` names.
        """
        exemptions = {
            "self_projection.*": (
                "fallback projection, used only for nodes with no applicable "
                "flow and no exploration"
            ),
        }
        if len(self.relations) < 2:
            exemptions["relationship_attention.*"] = (
                "single-relationship graph: forward bypasses "
                "relationship-level attention"
            )
        return exemptions

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _group_embedding(self, nodes: np.ndarray, group: FlowGroup,
                         rows: Optional[np.ndarray], relations: np.ndarray,
                         exploration: Optional[Tensor]) -> Tensor:
        """\\hat h_{v, r} (Eqs. 3-7) for same-typed ``nodes`` and the
        group's ``relations`` (its ``rows``, None for all); shape
        (len(relations), B, edge_dim)."""
        flow_embeddings = [flows(nodes, rows) for flows in group.stacks]
        shared = exploration
        if shared is None and not flow_embeddings:
            shared = self.self_projection(self.features(nodes)).relu()
        if shared is not None:
            flow_embeddings.append(
                shared.reshape((1,) + shared.shape).broadcast_to(
                    (len(relations),) + shared.shape)
            )
        every = len(relations) == len(self.relations)
        return self.metapath_attention(flow_embeddings, rows=None if every else relations)

    def _type_embedding(self, nodes: np.ndarray, node_type: str,
                        wanted: np.ndarray, exploration: Optional[Tensor]) -> Tensor:
        """(len(wanted), B, edge_dim) for same-typed ``nodes``."""
        pieces: List[Tensor] = []
        order: List[np.ndarray] = []
        for group in self.flows[node_type]:
            rows = np.flatnonzero(np.isin(group.relations, wanted))
            if len(rows) == 0:
                continue
            relations = group.relations[rows]
            if len(rows) == len(group.relations):
                rows = None
            pieces.append(self._group_embedding(nodes, group, rows, relations, exploration))
            order.append(relations)
        if len(pieces) == 1:
            return pieces[0]
        combined = concat(pieces, axis=0)
        return combined[np.argsort(np.concatenate(order))]

    def local_embeddings(self, nodes: np.ndarray,
                         wanted: Optional[np.ndarray] = None) -> Tensor:
        """\\hat h_{v, r} for a mixed-type batch (Eqs. 3-7).

        ``wanted`` holds sorted relationship indices (default: all); the
        result has shape (len(wanted), B, edge_dim).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        wanted = np.arange(len(self.relations)) if wanted is None else np.asarray(wanted)
        # The exploration flow is relation-independent (Eq. 4): sample and
        # aggregate it once per batch, shared by every relationship.
        exploration = (
            self.exploration_flow(nodes) if self.exploration_flow is not None else None
        )
        # One stable sort splits the batch by node type; each part keeps
        # its batch positions in ascending order.
        codes = self.graph.node_type_codes[nodes]
        order, ordered = stable_sort(codes)
        node_types = self.graph.schema.node_types
        if ordered[0] == ordered[-1]:
            return self._type_embedding(nodes, node_types[int(ordered[0])], wanted, exploration)
        pieces: List[Tensor] = []
        cuts = [0] + (np.flatnonzero(np.diff(ordered)) + 1).tolist() + [len(order)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            idx = order[lo:hi]
            group_exploration = None
            if exploration is not None:
                group_exploration = gather_rows(
                    exploration, idx, partial(segments, idx, len(nodes), np.arange(len(idx))))
            pieces.append(self._type_embedding(
                nodes[idx], node_types[int(ordered[lo])], wanted, group_exploration
            ))
        # Put the parts back in batch order: a permutation gathers each
        # source row once, at the position ``order`` names.
        combined = concat(pieces, axis=1)
        offsets = np.arange(combined.shape[0])[:, None] * len(nodes)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        index = offsets + inverse
        return gather_rows(combined, index,
                           partial(segments, index, index.size, (offsets + order).reshape(-1)))

    def _fused(self, nodes: np.ndarray) -> Tensor:
        """e_{v, r} for every relationship (Eqs. 3-9); shape (B, |R|, edge_dim)."""
        local = self.local_embeddings(nodes).transpose(0, 1)
        if self.config.use_relationship_attention and len(self.relations) > 1:
            return self.relationship_attention(local)
        return local

    def _relation_index(self, relation: str) -> int:
        if relation not in self.relations:
            raise TrainingError(f"unknown relationship {relation!r}")
        return self.relations.index(relation)

    def forward(self, nodes: np.ndarray, relation: str) -> Tensor:
        """e*_{v, r} for every v in ``nodes`` (Eq. 10); shape (B, base_dim).

        Column r of :meth:`forward_all`.  Only W_r receives a gradient, and
        without relationship-level attention only r's flows run.
        """
        index = self._relation_index(relation)
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.config.use_relationship_attention and len(self.relations) > 1:
            local = self._fused(nodes)[:, index]
        else:
            local = self.local_embeddings(nodes, np.asarray([index]))[0]
        weight = embedding_lookup(self.output_transforms.weight, np.asarray(index))
        return self.base(nodes) + local @ weight

    def forward_all(self, nodes: np.ndarray) -> Tensor:
        """e*_{v, r} for every relationship; shape (B, |R|, base_dim)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        transformed = self.output_transforms(self._fused(nodes).transpose(0, 1))
        return self.base(nodes).unsqueeze(1) + transformed.transpose(0, 1)

    # ------------------------------------------------------------------
    # Evaluation interface
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached embeddings (call after any parameter update)."""
        self._embedding_cache.clear()

    def _sampling_generators(self) -> List[np.random.Generator]:
        flows = [flow for groups in self.flows.values() for group in groups
                 for flow in group.stacks]
        if self.exploration_flow is not None:
            flows.append(self.exploration_flow)
        return [generator for flow in flows for generator in flow.generators]

    def node_embeddings(self, nodes: np.ndarray, relation: str,
                        chunk_size: int = 512) -> np.ndarray:
        """Relationship-specific embeddings for evaluation (cached).

        The first call embeds the whole graph for every relationship at
        once (:meth:`forward_all`), ``eval_samples`` times; later calls
        are array lookups.  Draws are summed into one running table in
        draw order and divided by ``eval_samples`` at the end.  Sampling
        noise is averaged out by the attention pooling, and freezing one
        sample per eval matches how the paper evaluates.  The fill leaves
        the samplers' streams where it found them, so evaluating never
        changes what training samples next.
        """
        self._relation_index(relation)
        if not self._embedding_cache:
            was_training = self.training
            self.eval()
            num_nodes = self.graph.num_nodes
            total = np.zeros((len(self.relations), num_nodes, self.config.base_dim))
            with preserved_streams(self._sampling_generators()):
                for _ in range(self.config.eval_samples):
                    for start in range(0, num_nodes, chunk_size):
                        stop = min(start + chunk_size, num_nodes)
                        draw = self.forward_all(np.arange(start, stop)).data
                        total[:, start:stop] += draw.transpose(1, 0, 2)
            total /= self.config.eval_samples
            self._embedding_cache.update(zip(self.relations, total))
            self.train(was_training)
        return self._embedding_cache[relation][np.asarray(nodes, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Introspection (Fig. 5 case study)
    # ------------------------------------------------------------------
    def metapath_attention_scores(
        self, relation: str, node_type: str, sample_size: int = 64,
        rng: SeedLike = None,
    ) -> Dict[str, float]:
        """Average metapath-level attention mass per flow label.

        Runs a forward pass over a sample of ``node_type`` nodes and reads
        out the attention matrix, reproducing the Fig. 5 readout.
        """
        index = self._relation_index(relation)
        rng = as_rng(rng)
        candidates = self.graph.nodes_of_type(node_type)
        if len(candidates) == 0:
            raise TrainingError(f"graph has no {node_type!r} nodes")
        size = min(sample_size, len(candidates))
        nodes = rng.choice(candidates, size=size, replace=False)
        group = next(g for g in self.flows[node_type] if index in g.relations)
        slot = int(np.flatnonzero(group.relations == index)[0])
        self.local_embeddings(nodes, np.asarray([index]))
        importance = self.metapath_attention.last_flow_importance[0]
        labels = [flows.labels[slot] for flows in group.stacks]
        if self.exploration_flow is not None:
            labels.append(self.exploration_flow.label)
        if not labels:
            labels = ["self"]
        return {
            label: float(score) for label, score in zip(labels, importance)
        }

    def relationship_attention_scores(
        self, sample_size: int = 64, rng: SeedLike = None
    ) -> Dict[str, float]:
        """Average relationship-level attention mass per relationship."""
        rng = as_rng(rng)
        nodes = rng.choice(
            self.graph.num_nodes, size=min(sample_size, self.graph.num_nodes),
            replace=False,
        )
        self.relationship_attention(self.local_embeddings(nodes).transpose(0, 1))
        importance = self.relationship_attention.last_relation_importance
        return {
            relation: float(score)
            for relation, score in zip(self.relations, importance)
        }
