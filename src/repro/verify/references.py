"""Scalar reference paths of the serving engine.

The pre-engine implementations of top-K recommendation, cosine similarity
and full ranking, kept verbatim as functions of ``(model, graph, ...)``:
one source at a time, Python-set candidate pools, embeddings gathered
afresh per source and a full stable argsort.  They are the independent
slow truth the ``serving`` differential oracles
(:func:`repro.verify.oracles.serving_oracles`) compare
:class:`repro.serving.BatchServingEngine` against, and the baseline
``benchmarks/bench_serving.py`` measures its speedups from.

``model`` is anything with ``node_embeddings(nodes, relation)``; ``graph``
is the *training* graph, whose edges are what a source already interacted
with and whose node types define candidate pools.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.eval.link_prediction import RelationEmbedder
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.serving.engine import Recommendation
from repro.serving.pools import relation_endpoint_types

__all__ = [
    "_reference_ranked_candidates",
    "_reference_recommend",
    "_reference_recommend_batch",
    "_reference_similar_nodes",
    "candidates",
    "score",
]


def candidates(graph: MultiplexHeteroGraph, source: int, relation: str,
               target_type: Optional[str] = None,
               exclude_known: bool = True) -> np.ndarray:
    """The candidate pool for ``source`` under ``relation``.

    Defaults to every node of ``target_type`` minus the source itself
    and, when ``exclude_known``, its current neighbors.  When
    ``target_type`` is omitted it is inferred from the source's first
    neighbor, falling back to the relationship's schema-level
    endpoint-type map for cold-start nodes; a fully unresolvable source
    yields an empty pool instead of an exception.
    """
    if target_type is None:
        neighbors = graph.neighbors(source, relation)
        if len(neighbors):
            target_type = graph.node_type(int(neighbors[0]))
        else:
            target_type = relation_endpoint_types(graph, relation).get(
                graph.node_type(source)
            )
        if target_type is None:
            return np.empty(0, dtype=np.int64)
    pool = graph.nodes_of_type(target_type)
    banned = {source}
    if exclude_known:
        banned.update(graph.neighbors(source, relation).tolist())
    keep = np.fromiter(
        (int(c) not in banned for c in pool), dtype=bool, count=len(pool)
    )
    return pool[keep]


def score(model: RelationEmbedder, source: int, targets: Sequence[int],
          relation: str) -> np.ndarray:
    """Dot-product scores of ``source`` against each target."""
    targets = np.asarray(targets, dtype=np.int64)
    source_emb = model.node_embeddings(np.asarray([source]), relation)[0]
    target_emb = model.node_embeddings(targets, relation)
    return target_emb @ source_emb


def _reference_recommend(model: RelationEmbedder, graph: MultiplexHeteroGraph,
                         source: int, relation: str, k: int = 10,
                         target_type: Optional[str] = None,
                         exclude_known: bool = True) -> List[Recommendation]:
    """One source at a time: set-built pool, gathered embeddings, full sort."""
    if k <= 0:
        raise EvaluationError(f"k must be positive, got {k}")
    pool = candidates(graph, source, relation, target_type, exclude_known)
    if len(pool) == 0:
        return []
    scores = score(model, source, pool, relation)
    order = np.argsort(-scores, kind="stable")[:k]
    return [
        Recommendation(node=int(pool[i]), score=float(scores[i]))
        for i in order
    ]


def _reference_recommend_batch(model: RelationEmbedder,
                               graph: MultiplexHeteroGraph,
                               sources: Sequence[int], relation: str,
                               k: int = 10,
                               target_type: Optional[str] = None,
                               exclude_known: bool = True
                               ) -> List[List[Recommendation]]:
    """The historical loop: embeddings re-fetched for every source."""
    return [
        _reference_recommend(
            model, graph, int(source), relation, k=k,
            target_type=target_type, exclude_known=exclude_known,
        )
        for source in sources
    ]


def _reference_similar_nodes(model: RelationEmbedder,
                             graph: MultiplexHeteroGraph, node: int,
                             relation: str, k: int = 10
                             ) -> List[Recommendation]:
    """Per-node cosine similarity against a freshly gathered pool."""
    if k <= 0:
        raise EvaluationError(f"k must be positive, got {k}")
    pool = graph.nodes_of_type(graph.node_type(node))
    pool = pool[pool != node]
    if len(pool) == 0:
        return []
    node_emb = model.node_embeddings(np.asarray([node]), relation)[0]
    pool_emb = model.node_embeddings(pool, relation)
    norms = np.linalg.norm(pool_emb, axis=1) * np.linalg.norm(node_emb)
    scores = (pool_emb @ node_emb) / np.maximum(norms, 1e-12)
    order = np.argsort(-scores, kind="stable")[:k]
    return [
        Recommendation(node=int(pool[i]), score=float(scores[i]))
        for i in order
    ]


def _reference_ranked_candidates(
    model: RelationEmbedder,
    train_graph: MultiplexHeteroGraph,
    source: int,
    relation: str,
    target_type: str,
) -> np.ndarray:
    """The pre-engine per-source ranking: set-built pool, re-fetched
    embeddings, full stable argsort.  Kept as the differential-oracle truth
    for the serving engine's ``rank_all``."""
    candidates = train_graph.nodes_of_type(target_type)
    known = set(train_graph.neighbors(source, relation).tolist())
    known.add(source)
    mask = np.fromiter(
        (c not in known for c in candidates), dtype=bool, count=len(candidates)
    )
    pool = candidates[mask]
    if len(pool) == 0:
        return pool
    src_emb = model.node_embeddings(np.asarray([source]), relation)[0]
    pool_emb = model.node_embeddings(pool, relation)
    scores = pool_emb @ src_emb
    return pool[np.argsort(-scores, kind="stable")]
