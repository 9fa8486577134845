"""Scalar reference paths: the independent slow truths of the oracles.

**Serving.**  The pre-engine implementations of top-K recommendation,
cosine similarity and full ranking, as functions of ``(model, graph,
...)``: one source at a time, Python-set candidate pools, embeddings
gathered afresh per source and a full stable argsort.  The ``serving``
differential oracles (:func:`repro.verify.oracles.serving_oracles`) compare
:class:`repro.serving.BatchServingEngine` against them, and
``benchmarks/bench_serving.py`` measures its speedups from them.
``model`` is anything with ``node_embeddings(nodes, relation)``; ``graph``
is the *training* graph, whose edges are what a source already interacted
with and whose node types define candidate pools.

**Sampling.**  The pre-frontier walk loops of :mod:`repro.sampling`, one
walk at a time, and the nested-loop context-pair extraction; the
``sampling`` oracles (:func:`repro.verify.oracles.sampling_oracles`) and
``benchmarks/bench_sampling.py`` diff and time the batched paths against
them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError, SamplingError
from repro.eval.link_prediction import RelationEmbedder
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.sampling.adjacency import step_uniform
from repro.sampling.exploration import RandomizedExploration
from repro.sampling.metapath_walk import MetapathWalker
from repro.sampling.node2vec_walk import Node2VecWalker
from repro.sampling.random_walk import UniformRandomWalker
from repro.serving.engine import Recommendation
from repro.serving.pools import relation_endpoint_types

__all__ = [
    "_node2vec_edge_weights",
    "_reference_context_pairs",
    "_reference_exploration_walk",
    "_reference_metapath_walk",
    "_reference_node2vec_walk",
    "_reference_ranked_candidates",
    "_reference_recommend",
    "_reference_recommend_batch",
    "_reference_similar_nodes",
    "_reference_uniform_walk",
    "_reference_walks",
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


def score(model: RelationEmbedder, graph: MultiplexHeteroGraph, source: int,
          targets: Sequence[int], relation: str) -> np.ndarray:
    """Dot-product scores of ``source`` against each of the same-typed
    ``targets``.

    The targets' whole type is scored, in ascending-id order (the row
    order of the engine's per-type blocks), before their scores are
    picked out.  A dgemv rounds a matrix's last few rows differently from
    the rest, so scoring the targets alone would put planted duplicate
    rows at other kernel positions than the engine does and could split
    their tie by one ulp.  The other references score whole types too.
    """
    targets = np.asarray(targets, dtype=np.int64)
    pool = graph.nodes_of_type(graph.node_type(int(targets[0])))
    source_emb = model.node_embeddings(np.asarray([source]), relation)[0]
    scores = model.node_embeddings(pool, relation) @ source_emb
    return scores[np.searchsorted(pool, targets)]


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
    scores = score(model, graph, source, pool, relation)
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
    keep = pool != node
    if not keep.any():
        return []
    node_emb = model.node_embeddings(np.asarray([node]), relation)[0]
    pool_emb = model.node_embeddings(pool, relation)
    norms = np.linalg.norm(pool_emb, axis=1) * np.linalg.norm(node_emb)
    scores = ((pool_emb @ node_emb) / np.maximum(norms, 1e-12))[keep]
    pool = pool[keep]
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
    src_emb = model.node_embeddings(np.asarray([source]), relation)[0]
    scores = model.node_embeddings(candidates, relation) @ src_emb
    return candidates[mask][np.argsort(-scores[mask], kind="stable")]


# ----------------------------------------------------------------------
# Sampling: the pre-frontier scalar walk loops and pair extraction
# ----------------------------------------------------------------------
# Each walk reference advances one walk at a time through the walker's own
# generator and adjacency, so a walker and its seeded twin can be diffed
# (the uniform, metapath and exploration walks draw exactly as the frontier
# engine; node2vec draws from the same distribution with other calls).


def _reference_walks(walk: Callable[[Any, int, int], List[int]], walker: Any,
                     starts: np.ndarray, num_walks: int,
                     length: int) -> List[List[int]]:
    """``num_walks`` rounds of scalar ``walk(walker, start, length)`` calls
    over a fresh permutation of ``starts`` each."""
    result: List[List[int]] = []
    for _ in range(num_walks):
        shuffled = walker._rng.permutation(starts)
        for start in shuffled:
            result.append(walk(walker, int(start), length))
    return result


def _reference_uniform_walk(walker: UniformRandomWalker, start: int,
                            length: int) -> List[int]:
    """One uniform walk, one ``step_uniform`` call per position."""
    path = [int(start)]
    current = np.asarray([start], dtype=np.int64)
    for _ in range(length - 1):
        current, moved = step_uniform(walker._indptr, walker._indices, current,
                                      walker._rng)
        if not moved[0]:
            break
        path.append(int(current[0]))
    return path


def _reference_metapath_walk(walker: MetapathWalker, start: int,
                             length: int) -> List[int]:
    """One metapath-guided walk, the typed view looked up per position."""
    walker._check_starts(np.asarray([start], dtype=np.int64))
    path = [int(start)]
    current = np.asarray([start], dtype=np.int64)
    for position in range(1, length):
        next_type = walker._type_at(position)
        indptr, indices = walker._adjacency.view(walker.relation, next_type)
        current, moved = step_uniform(indptr, indices, current, walker._rng)
        if not moved[0]:
            break
        path.append(int(current[0]))
    return path


def _node2vec_edge_weights(walker: Node2VecWalker, prev: int,
                           candidates: np.ndarray) -> np.ndarray:
    """Unnormalised p/q weights of ``candidates`` given ``prev``, by a
    membership test against ``prev``'s sorted neighbor list."""
    weights = np.ones(len(candidates))
    weights[candidates == prev] = 1.0 / walker.p
    prev_neighbors = np.sort(walker._neighbors(prev))
    pos = np.searchsorted(prev_neighbors, candidates)
    found = np.zeros(len(candidates), dtype=bool)
    in_range = pos < len(prev_neighbors)
    found[in_range] = prev_neighbors[pos[in_range]] == candidates[in_range]
    far = ~found & (candidates != prev)
    weights[far] = 1.0 / walker.q
    return weights


def _reference_node2vec_walk(walker: Node2VecWalker, start: int,
                             length: int) -> List[int]:
    """One biased walk: ``integers`` for the first step, then a normalised
    ``choice`` over the p/q weights per position."""
    path = [int(start)]
    if length <= 1:
        return path
    first = walker._neighbors(start)
    if len(first) == 0:
        return path
    path.append(int(first[walker._rng.integers(len(first))]))
    while len(path) < length:
        prev, current = path[-2], path[-1]
        candidates = walker._neighbors(current)
        if len(candidates) == 0:
            break
        weights = _node2vec_edge_weights(walker, prev, candidates)
        weights /= weights.sum()
        path.append(int(walker._rng.choice(candidates, p=weights)))
    return path


def _reference_exploration_walk(explorer: RandomizedExploration, start: int,
                                length: int) -> Tuple[List[int], List[str]]:
    """One two-phase exploration walk; returns (nodes, relations used)."""
    path = [int(start)]
    relations_used: List[str] = []
    current = np.asarray([start], dtype=np.int64)
    for _ in range(length - 1):
        current, chosen = explorer.step(current)
        if chosen[0] < 0:
            break
        path.append(int(current[0]))
        relations_used.append(explorer._relations[int(chosen[0])])
    return path, relations_used


def _reference_context_pairs(walks: Iterable[Sequence[int]],
                             window: int) -> np.ndarray:
    """The nested-loop (walk, center, context) extraction over list walks."""
    if window <= 0:
        raise SamplingError(f"window must be positive, got {window}")
    centers: List[int] = []
    contexts: List[int] = []
    for walk in walks:
        length = len(walk)
        for i in range(length):
            lo = max(0, i - window)
            hi = min(length, i + window + 1)
            for k in range(lo, hi):
                if k == i:
                    continue
                centers.append(walk[i])
                contexts.append(walk[k])
    if not centers:
        return np.empty((0, 2), dtype=np.int64)
    return np.stack(
        [np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)],
        axis=1,
    )
