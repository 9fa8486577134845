"""Vectorised batch serving: the Eq. 13 scoring hot path at request scale.

The training side of this repository was vectorised by the batched frontier
walk engine (``repro.sampling.frontier``); this package does the same for
the *serving* side.  :class:`BatchServingEngine` answers "top-K candidates
for these sources under this relationship" by

- keeping ascending per-node-type candidate pools and per-relation CSR
  exclusion lists (:class:`CandidatePools`),
- fetching each relationship's embedding table **once** and keeping it
  resident as one block per node type, rows in pool order
  (:class:`RelationEmbeddingCache`), so a read scores only its target
  type's rows and gathers nothing,
- routing retrieval through a swappable :class:`VectorIndex` backend —
  ``exact`` (one dgemv per source against the target type's block plus a
  stable top-K extraction, the list order of the scalar reference paths
  kept in :mod:`repro.verify.references` up to last-ulp rounding), or the
  sub-linear ``ivf`` approximate backend (:class:`IVFIndex`), which prunes the candidate
  *set* but still scores surfaced candidates with exact dot products
  (recall-gated by ``repro verify --suite index``).

Request-level latency/throughput is recorded through
:class:`repro.perf.StageProfiler` stages (``serving.embeddings``,
``serving.pool``, ``serving.score``, ``serving.topk``,
``serving.index_build``, ``serving.index_search``) plus the engine's
:class:`ServingStats` counters and per-request latency percentiles.

On top of the engine sits the *online* layer: :class:`DeltaGraphView`
(streaming graph ingestion — append-only edge deltas over the frozen CSR,
merged views bit-identical to a from-scratch rebuild, threshold-driven
compaction that retires the engine's indexes; a cold node appends a zero
row to its type's block) and
:class:`RecommendService` (micro-batched ``recommend`` / ``similar`` /
``feedback`` endpoints behind a bounded admission queue, with
per-endpoint latency percentiles and cold-start node handling).  Seeded
mixed-traffic traces for tests, oracles and benchmarks live in
:mod:`repro.serving.traffic`.
"""

from repro.serving.deltas import DeltaGraphView, EdgeDeltaBuffer
from repro.serving.engine import (
    BatchServingEngine,
    Recommendation,
    RelationEmbeddingCache,
    ServingStats,
)
from repro.serving.service import (
    ColdStartEmbedder,
    EndpointStats,
    RecommendService,
    ServiceConfig,
)
from repro.serving.traffic import TraceOp, generate_trace, replay_trace
from repro.serving.index import (
    ExactIndex,
    INDEX_BACKENDS,
    IVFIndex,
    VectorIndex,
    load_index,
    make_index,
    save_index,
)
from repro.serving.pools import CandidatePools

__all__ = [
    "BatchServingEngine",
    "CandidatePools",
    "ColdStartEmbedder",
    "DeltaGraphView",
    "EdgeDeltaBuffer",
    "EndpointStats",
    "ExactIndex",
    "INDEX_BACKENDS",
    "IVFIndex",
    "RecommendService",
    "Recommendation",
    "RelationEmbeddingCache",
    "ServiceConfig",
    "ServingStats",
    "TraceOp",
    "VectorIndex",
    "generate_trace",
    "load_index",
    "make_index",
    "replay_trace",
    "save_index",
]
