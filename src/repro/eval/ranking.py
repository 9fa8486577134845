"""Top-K recommendation evaluation: PR@K and HR@K (Sect. IV-C).

For every source node with at least one positive test edge under a
relationship, the candidate set is all nodes of the positives' type minus
the node's training neighbors; candidates are ranked by embedding dot
product.  PR@K is precision of the top-K list, HR@K (hit ratio) is the
recall of the node's positives in the top-K, both averaged over source
nodes — which is why the paper's absolute values are small.

Ranking is served by :class:`repro.serving.BatchServingEngine` (each
relation's embedding table fetched once as per-node-type blocks,
mask-based candidate pools); the historical per-source loop survives as
:func:`repro.verify.references._reference_ranked_candidates`, and the
``serving`` differential oracles hold the engine to its order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.datasets.splits import EvalEdges
from repro.eval.link_prediction import RelationEmbedder
from repro.eval.metrics import (
    average_precision_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.utils.rng import as_rng


@dataclass
class RankingReport:
    """Averaged top-K metrics, per relationship and per source node."""

    k: int
    per_relation: Dict[str, Dict[str, float]]
    per_node: Dict[str, Dict[int, Dict[str, float]]] = field(default_factory=dict)

    @property
    def overall(self) -> Dict[str, float]:
        if not self.per_relation:
            return {}
        keys = next(iter(self.per_relation.values())).keys()
        return {
            key: float(np.mean([m[key] for m in self.per_relation.values()]))
            for key in keys
        }

    def __getitem__(self, metric: str) -> float:
        return self.overall[metric]


def evaluate_ranking(
    model: RelationEmbedder,
    train_graph: MultiplexHeteroGraph,
    eval_sets: Mapping[str, EvalEdges],
    k: int = 10,
    keep_per_node: bool = False,
    max_sources: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> RankingReport:
    """Compute PR@K / HR@K for every relationship in ``eval_sets``.

    ``max_sources`` caps the number of evaluated source nodes per
    relationship (uniformly subsampled) to bound cost on large graphs.
    """
    from repro.serving import BatchServingEngine

    engine = BatchServingEngine(model, train_graph)
    per_relation: Dict[str, Dict[str, float]] = {}
    per_node: Dict[str, Dict[int, Dict[str, float]]] = {}

    for relation, edges in eval_sets.items():
        pos_src, pos_dst = edges.positives
        positives_by_src: Dict[int, List[int]] = defaultdict(list)
        for u, v in zip(pos_src.tolist(), pos_dst.tolist()):
            positives_by_src[u].append(v)
        sources = sorted(positives_by_src)
        if max_sources is not None and len(sources) > max_sources:
            chooser = as_rng(rng if rng is not None else 0)
            sources = sorted(chooser.choice(sources, size=max_sources, replace=False).tolist())
        if not sources:
            continue

        # Candidate pools are the positives' node type (positives of one
        # source share a type in all our datasets; mixed types would group).
        by_type: Dict[str, List[int]] = defaultdict(list)
        for u in sources:
            by_type[train_graph.node_type(positives_by_src[u][0])].append(u)
        ranked_by_source: Dict[int, np.ndarray] = {}
        for target_type, group in by_type.items():
            for u, ranked in zip(
                group, engine.rank_all(group, relation, target_type=target_type)
            ):
                ranked_by_source[u] = ranked

        precisions: List[float] = []
        recalls: List[float] = []
        ndcgs: List[float] = []
        rranks: List[float] = []
        aps: List[float] = []
        node_metrics: Dict[int, Dict[str, float]] = {}
        for u in sources:
            ranked = ranked_by_source[u]
            if len(ranked) == 0:
                continue
            target_set = set(positives_by_src[u])
            hits = [int(c) in target_set for c in ranked]
            top_hits = hits[:k]
            prec = precision_at_k(top_hits, k)
            rec = recall_at_k(top_hits, len(target_set), k)
            precisions.append(prec)
            recalls.append(rec)
            ndcgs.append(ndcg_at_k(top_hits, len(target_set), k))
            rranks.append(reciprocal_rank(hits))
            aps.append(average_precision_at_k(top_hits, len(target_set), k))
            if keep_per_node:
                node_metrics[u] = {"pr_at_k": prec, "hr_at_k": rec}

        if precisions:
            per_relation[relation] = {
                "pr_at_k": float(np.mean(precisions)),
                "hr_at_k": float(np.mean(recalls)),
                "ndcg_at_k": float(np.mean(ndcgs)),
                "mrr": float(np.mean(rranks)),
                "map_at_k": float(np.mean(aps)),
            }
            if keep_per_node:
                per_node[relation] = node_metrics

    return RankingReport(k=k, per_relation=per_relation, per_node=per_node)
