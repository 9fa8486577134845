"""High-level recommendation interface over a trained relation embedder.

Wraps any model satisfying the :class:`~repro.eval.link_prediction.
RelationEmbedder` protocol (HybridGNN or any baseline) into the operation a
recommender system actually serves: "top-K candidates for this node under
this relationship", with training edges filtered out.

The serving hot path is delegated to
:class:`repro.serving.BatchServingEngine` (tables fetched once per relation,
mask-based candidate pools, batched matmul scoring, ``argpartition`` top-K).
The pre-engine scalar implementations are preserved as ``_reference_*``
methods: they are the independent slow truth the ``serving`` differential
oracles (:mod:`repro.verify.oracles`) compare the engine against, and the
baseline the serving benchmarks measure speedups from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.eval.link_prediction import RelationEmbedder
from repro.graph.multiplex import MultiplexHeteroGraph


@dataclass(frozen=True)
class Recommendation:
    """One scored candidate."""

    node: int
    score: float


class Recommender:
    """Top-K recommendation service over a trained model.

    Parameters
    ----------
    model:
        Anything with ``node_embeddings(nodes, relation)``.
    graph:
        The *training* graph: its edges define what the user has already
        interacted with (excluded from recommendations) and its node types
        define candidate pools.
    engine_options:
        Extra keyword arguments forwarded to
        :class:`repro.serving.BatchServingEngine` when the lazy engine is
        first built — e.g. ``index="ivf"``,
        ``index_params={"nprobe": 32}`` to serve through an approximate
        retrieval backend (the ``repro recommend`` CLI's ``--index`` /
        ``--nprobe`` flags arrive here).
    """

    def __init__(self, model: RelationEmbedder, graph: MultiplexHeteroGraph,
                 engine_options: Optional[dict] = None):
        self.model = model
        self.graph = graph
        self.engine_options = dict(engine_options or {})
        self._engine = None

    @property
    def engine(self):
        """The lazily constructed batch serving engine."""
        if self._engine is None:
            from repro.serving import BatchServingEngine

            self._engine = BatchServingEngine(
                self.model, self.graph, **self.engine_options
            )
        return self._engine

    # ------------------------------------------------------------------
    def candidates(self, source: int, relation: str,
                   target_type: Optional[str] = None,
                   exclude_known: bool = True) -> np.ndarray:
        """The candidate pool for ``source`` under ``relation``.

        Defaults to every node of ``target_type`` minus the source itself
        and, when ``exclude_known``, its current neighbors.  When
        ``target_type`` is omitted it is inferred from the source's
        existing neighbors, falling back to the relationship's schema-level
        endpoint-type map for cold-start nodes; a fully unresolvable
        source yields an empty pool instead of an exception.
        """
        if target_type is None:
            target_type = self.engine.pools.target_type_for(source, relation)
            if target_type is None:
                return np.empty(0, dtype=np.int64)
        pool = self.graph.nodes_of_type(target_type)
        banned = {source}
        if exclude_known:
            banned.update(self.graph.neighbors(source, relation).tolist())
        keep = np.fromiter(
            (int(c) not in banned for c in pool), dtype=bool, count=len(pool)
        )
        return pool[keep]

    def score(self, source: int, targets: Sequence[int], relation: str) -> np.ndarray:
        """Dot-product scores of ``source`` against each target."""
        targets = np.asarray(targets, dtype=np.int64)
        source_emb = self.model.node_embeddings(np.asarray([source]), relation)[0]
        target_emb = self.model.node_embeddings(targets, relation)
        return target_emb @ source_emb

    # ------------------------------------------------------------------
    # Serving API (engine-backed)
    # ------------------------------------------------------------------
    def recommend(self, source: int, relation: str, k: int = 10,
                  target_type: Optional[str] = None,
                  exclude_known: bool = True) -> List[Recommendation]:
        """Top-``k`` recommendations for ``source`` under ``relation``."""
        return self.engine.recommend(
            int(source), relation, k=k, target_type=target_type,
            exclude_known=exclude_known,
        )

    def recommend_batch(self, sources: Sequence[int], relation: str, k: int = 10,
                        target_type: Optional[str] = None,
                        exclude_known: bool = True) -> List[List[Recommendation]]:
        """Top-``k`` lists for several sources.

        The relation's embedding table really is fetched once per batch
        (LRU-cached across batches) and the whole batch is scored as one
        matrix multiply — see :class:`repro.serving.BatchServingEngine`.
        """
        return self.engine.recommend_batch(
            sources, relation, k=k, target_type=target_type,
            exclude_known=exclude_known,
        )

    def similar_nodes(self, node: int, relation: str, k: int = 10) -> List[Recommendation]:
        """Top-``k`` same-typed nodes by embedding cosine similarity."""
        return self.engine.similar_nodes(int(node), relation, k=k)

    # ------------------------------------------------------------------
    # Scalar reference paths (pre-engine implementations, kept verbatim as
    # the differential-oracle truth; see repro.verify.oracles)
    # ------------------------------------------------------------------
    def _reference_recommend(self, source: int, relation: str, k: int = 10,
                             target_type: Optional[str] = None,
                             exclude_known: bool = True) -> List[Recommendation]:
        """One source at a time: set-built pool, gathered embeddings, full sort."""
        if k <= 0:
            raise EvaluationError(f"k must be positive, got {k}")
        pool = self.candidates(source, relation, target_type, exclude_known)
        if len(pool) == 0:
            return []
        scores = self.score(source, pool, relation)
        order = np.argsort(-scores, kind="stable")[:k]
        return [
            Recommendation(node=int(pool[i]), score=float(scores[i]))
            for i in order
        ]

    def _reference_recommend_batch(self, sources: Sequence[int], relation: str,
                                   k: int = 10,
                                   target_type: Optional[str] = None,
                                   exclude_known: bool = True
                                   ) -> List[List[Recommendation]]:
        """The historical loop: embeddings re-fetched for every source."""
        return [
            self._reference_recommend(
                int(source), relation, k=k, target_type=target_type,
                exclude_known=exclude_known,
            )
            for source in sources
        ]

    def _reference_similar_nodes(self, node: int, relation: str,
                                 k: int = 10) -> List[Recommendation]:
        """Per-node cosine similarity against a freshly gathered pool."""
        if k <= 0:
            raise EvaluationError(f"k must be positive, got {k}")
        pool = self.graph.nodes_of_type(self.graph.node_type(node))
        pool = pool[pool != node]
        if len(pool) == 0:
            return []
        node_emb = self.model.node_embeddings(np.asarray([node]), relation)[0]
        pool_emb = self.model.node_embeddings(pool, relation)
        norms = np.linalg.norm(pool_emb, axis=1) * np.linalg.norm(node_emb)
        scores = (pool_emb @ node_emb) / np.maximum(norms, 1e-12)
        order = np.argsort(-scores, kind="stable")[:k]
        return [
            Recommendation(node=int(pool[i]), score=float(scores[i]))
            for i in order
        ]
