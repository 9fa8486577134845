"""The batch top-K serving engine.

Serving one request under Eq. 13 is a dot product of the source's
relationship-specific embedding against every candidate's; serving a batch
is therefore one matrix multiply against the candidates' embedding rows.
The engine organises the whole hot path around that observation:

- each relation's table is fetched **once** and stays resident as one
  block per node type, rows in pool order (``serving.embeddings``), so a
  read touches only its target type's rows and gathers nothing;
- candidate pools come from :class:`~repro.serving.pools.CandidatePools`
  ascending-id type pools plus a CSR exclusion scatter (``serving.pool``),
  not per-source Python sets;
- retrieval routes through a swappable :class:`~repro.serving.index`
  backend: ``exact`` keeps the blocked ``sources @ block.T`` matmul
  (``serving.score``) with stable top-K extraction (``serving.topk``),
  the scalar reference's order up to last-ulp rounding of the dot
  products; ``ivf`` prunes the candidate set sub-linearly
  (``serving.index_build`` / ``serving.index_search`` stages) while still
  scoring surfaced candidates with exact dot products.

A cold node arriving in a streamed graph appends one zero row to its
type's block (:meth:`BatchServingEngine.refresh_topology`); no table is
refilled.

The approximate backend falls back to the exact path — counted in
``ServingStats.exact_fallbacks`` — when a pool is smaller than
``min_index_size``, and always for :meth:`BatchServingEngine.rank_all`
(a full ordering cannot be pruned).  A cached index that went stale is
rebuilt on its next use.

The scalar pre-engine implementations survive as the ``_reference_*``
functions of :mod:`repro.verify.references` and are compared against the
engine by the ``serving`` differential oracles in
:mod:`repro.verify.oracles`; approximate backends are recall-gated by the
``index`` oracle suite.

Reads (:meth:`BatchServingEngine.topk_batch`, ``similar_topk``,
``rank_all``) may run on several threads at once.  What they write has one
lock each: the counters (:class:`ServingStats`), the embedding cache
(which also serialises every call into the model) and the ANN index
table.  :meth:`BatchServingEngine.refresh_topology` is a write: its caller
keeps reads out while it runs (``RecommendService`` holds its execution
lock exclusive).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.errors import EvaluationError, ReproError
from repro.perf import StageProfiler, Timer
from repro.serving.index import (
    VectorIndex,
    _score_rows,
    _stable_topk,
    _stable_topk_block,
    _stable_topk_ids,
    make_index,
    save_index,
    load_index,
)
from repro.serving.pools import CandidatePools
from repro.utils.concurrency import checked_lock, register_shared_region

__all__ = [
    "BatchServingEngine",
    "Recommendation",
    "RelationEmbeddingCache",
    "ServingStats",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)

# Default per-request latency sample window for percentile estimation; old
# samples roll off so a long-lived engine reports recent behavior, not its
# cold start forever.  The window *size* is configuration, but the sample
# buffer itself is strictly per-:class:`ServingStats` instance — two engines
# (or two services) must never share a latency window, or one's traffic
# pollutes the other's percentiles.
_LATENCY_WINDOW = 65536

# Sources scored per matmul block: bounds the (block, pool) score matrix.
_BLOCK_SIZE = 256


@dataclass(frozen=True)
class Recommendation:
    """One scored candidate."""

    node: int
    score: float


def check_node_ids(nodes: Sequence[int], num_nodes: int,
                   error: Type[ReproError]) -> np.ndarray:
    """``nodes`` as an int64 array, or ``error`` naming the first id
    outside the dense id range ``[0, num_nodes)``."""
    ids = np.asarray(nodes, dtype=np.int64)
    if ids.size:
        bad = (ids < 0) | (ids >= num_nodes)
        if bad.any():
            raise error(
                f"unknown node id {int(ids[bad][0])} (graph has "
                f"{num_nodes} nodes)"
            )
    return ids


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 (milliseconds) of a latency sample window."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(samples, dtype=np.float64) * 1000.0
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass
class ServingStats:
    """Request-level throughput counters and latency percentiles.

    Each instance owns its latency window outright: the ``window`` size is
    an instance field (not a shared module-level buffer), so engines and
    services running side by side in one process keep fully independent
    percentile estimates.  Concurrent reads update the counters through
    :meth:`count` and :meth:`record_latency`, which take ``_lock``.
    """

    requests: int = 0           # engine entry points served
    sources: int = 0            # source nodes served across all requests
    candidates_scored: int = 0  # candidate pool rows ranked
    index_builds: int = 0       # ANN index (re)builds, including rebuilds
    exact_fallbacks: int = 0    # sources served exactly despite an ANN backend
    window: int = _LATENCY_WINDOW
    latencies: Optional[Deque[float]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.window = max(1, int(self.window))
        if self.latencies is None:
            self.latencies = deque(maxlen=self.window)
        self._lock = checked_lock("serving.stats._lock")
        self._region = register_shared_region(
            "serving.stats", guard="serving.stats._lock",
            reason="engine counters and latency window, bumped by "
                   "concurrent reads",
        )

    def count(self, **deltas: int) -> None:
        """Add each ``counter=delta`` to that counter."""
        with self._lock, self._region:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def record_latency(self, seconds: float) -> None:
        with self._lock, self._region:
            self.latencies.append(seconds)

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            counters = {
                "requests": self.requests,
                "sources": self.sources,
                "candidates_scored": self.candidates_scored,
                "index_builds": self.index_builds,
                "exact_fallbacks": self.exact_fallbacks,
            }
            latencies = list(self.latencies)
        return {**counters, "latency_ms": _percentiles(latencies)}


class RelationEmbeddingCache:
    """Resident per-relation embedding tables, one block per node type.

    A relation's table is a dict of C-contiguous ``(len(pool), d)``
    blocks, one per node type, with rows in
    :meth:`CandidatePools.type_pool` order (ascending ids), so a read
    scores a target type's candidates without touching any other row.
    Each block is filled by one ``model.node_embeddings(pool, relation)``
    call, and the blocks stay resident: every wrapped model already keeps
    each relation's full table, so bounding the copies saves nothing.
    Row norms (for cosine similarity) are cached per block.

    Nodes that arrive after a fill are cold: the model was never trained
    on them, so their rows are zero (:class:`~repro.serving.service
    .ColdStartEmbedder`).  :meth:`grow` therefore appends zero rows (norm
    0) instead of refilling, and a warm row never changes once filled.

    Each fill and each growth bumps the relation's **version**; anything
    derived from a table (the engine's ANN indexes) records the version
    it was built against and treats a mismatch as staleness.

    One lock, ``_lock``, guards the tables, the norms and the versions,
    and so serialises every call into the model: a fill may advance and
    then restore the model's sampler streams
    (``HybridGNN.node_embeddings``), which two fills must not interleave.
    """

    def __init__(self, model, pools: CandidatePools):
        self.model = model
        self.pools = pools
        self._lock = checked_lock("serving.cache._lock")
        self._region = register_shared_region(
            "serving.cache", guard="serving.cache._lock",
            reason="tables, norms, versions and hit counters, touched by "
                   "concurrent reads",
        )
        self._tables: Dict[str, Dict[str, np.ndarray]] = {}  # repro-lint: guarded-by=_lock
        self._norms: Dict[str, Dict[str, np.ndarray]] = {}  # repro-lint: guarded-by=_lock
        self._versions: Dict[str, int] = {}  # repro-lint: guarded-by=_lock
        # (relation, node type, "table" | "norms") -> the buffer whose
        # prefix is that block, once the block has grown.
        self._buffers: Dict[Tuple[str, str, str], np.ndarray] = {}  # repro-lint: guarded-by=_lock
        self._version_clock = 0  # repro-lint: guarded-by=_lock
        self.hits = 0  # repro-lint: guarded-by=_lock
        self.misses = 0  # repro-lint: guarded-by=_lock

    def table(self, relation: str) -> Dict[str, np.ndarray]:
        """The per-node-type embedding blocks of ``relation``."""
        with self._lock, self._region:
            return self._table(relation)

    def _table(self, relation: str) -> Dict[str, np.ndarray]:  # repro-lint: holds=_lock
        if relation in self._tables:
            self.hits += 1
            return self._tables[relation]
        self.misses += 1
        # Shape-check each block before caching: a model that produces a
        # malformed table (wrong rank, wrong row count, non-float dtype)
        # fails here with a rendered expected-vs-found spec, not
        # mid-request.
        from repro.check.state import verify_table

        blocks = {}
        for node_type in self.pools.graph.schema.node_types:
            pool = self.pools.type_pool(node_type)
            block = np.ascontiguousarray(
                self.model.node_embeddings(pool, relation)
            )
            verify_table(block, len(pool), relation)
            blocks[node_type] = block
        self._tables[relation] = blocks
        self._bump(relation)
        return blocks

    def _bump(self, relation: str) -> None:  # repro-lint: holds=_lock
        self._version_clock += 1
        self._versions[relation] = self._version_clock

    def norms(self, relation: str) -> Dict[str, np.ndarray]:
        """Per-row L2 norms of each of the relation's blocks (cached)."""
        with self._lock, self._region:
            if relation not in self._norms:
                self._norms[relation] = {
                    node_type: np.linalg.norm(block, axis=1)
                    for node_type, block in self._table(relation).items()
                }
            return self._norms[relation]

    def version(self, relation: str) -> int:
        """Monotonic fill/growth counter for ``relation`` (0 = never filled).

        The version identifies *which* table snapshot is resident: growth
        after a cold node yields a new version even though no warm row
        changed.
        """
        with self._lock:
            return self._versions.get(relation, 0)

    def grow(self) -> None:
        """Append a zero row (norm 0) to each block per node that arrived.

        The pools must already include the new nodes; since ids only grow
        they sit at the end of their type's pool, so the blocks keep pool
        order.  A grown block is a prefix view of a buffer with zeroed
        spare rows (:meth:`_extended`), so most arrivals copy nothing; a
        read still holding the shorter view sees unchanged rows.  A
        refresh that added no node (a compaction) keeps every block as it
        is.
        """
        with self._lock, self._region:
            for relation, blocks in self._tables.items():
                norms = self._norms.get(relation)
                grown = False
                for node_type, block in blocks.items():
                    rows = len(self.pools.type_pool(node_type))
                    if rows <= len(block):
                        continue
                    blocks[node_type] = self._extended(
                        (relation, node_type, "table"), block, rows)
                    if norms is not None:
                        norms[node_type] = self._extended(
                            (relation, node_type, "norms"), norms[node_type], rows)
                    grown = True
                if grown:
                    self._bump(relation)

    def _extended(self, key: Tuple[str, str, str], block: np.ndarray,  # repro-lint: holds=_lock
                  rows: int) -> np.ndarray:
        """``block`` grown to ``rows`` rows with zeros, as a C-contiguous
        prefix view of the buffer kept under ``key``.

        While the block is a view of that buffer and the buffer has room,
        the block grows into its spare rows, which nothing has written, so
        they are still zero.  Otherwise the rows move to a new buffer with
        about an eighth spare (at least 64 rows), so N arrivals reallocate
        O(log N) times.
        """
        buffer = self._buffers.get(key)
        if buffer is None or block.base is not buffer or len(buffer) < rows:
            buffer = np.zeros((rows + max(64, rows // 8),) + block.shape[1:], dtype=block.dtype)
            buffer[:len(block)] = block
            self._buffers[key] = buffer
        return buffer[:rows]

    @property
    def cached_relations(self) -> List[str]:
        with self._lock:
            return list(self._tables)


class BatchServingEngine:
    """Batched top-K recommendation over a model (or an embedding store).

    Parameters
    ----------
    model:
        Anything satisfying the ``RelationEmbedder`` protocol.
    graph:
        The training graph defining candidate pools and known edges.
    profiler:
        Optional shared :class:`StageProfiler`; a private one is created
        when omitted.
    index:
        Retrieval backend: ``"exact"`` (default; bit-identical brute
        force) or ``"ivf"`` (sub-linear, recall-gated by the ``index``
        oracle suite).
    index_params:
        Backend construction parameters (``nprobe``, ``nlist``,
        ``seed``, ...); keys a backend doesn't take are ignored, so one
        flat dict can configure any backend.
    min_index_size:
        Pools smaller than this are always served exactly — index
        overhead only pays off at scale, and tiny pools are where
        cold-start nodes live.
    """

    def __init__(self, model, graph, *,
                 profiler: Optional[StageProfiler] = None,
                 index: str = "exact",
                 index_params: Optional[Dict[str, object]] = None,
                 min_index_size: int = 32):
        self.model = model
        self.graph = graph
        self.pools = CandidatePools(graph)
        self.cache = RelationEmbeddingCache(model, self.pools)
        self.profiler = profiler if profiler is not None else StageProfiler()
        self.stats = ServingStats()
        self.index_backend = index
        self.index_params = dict(index_params or {})
        self.min_index_size = max(0, int(min_index_size))
        # Fail fast on unknown backends (make_index validates the name).
        make_index(index, **self.index_params)
        self._index_lock = checked_lock("serving.engine._index_lock")
        self._index_region = register_shared_region(
            "serving.indexes", guard="serving.engine._index_lock",
            reason="resident ANN indexes, built lazily by concurrent reads",
        )
        # (relation, target_type, metric) -> (index, table_version, pool_len)
        self._indexes: Dict[  # repro-lint: guarded-by=_index_lock
            Tuple[str, str, str], Tuple[VectorIndex, int, int]
        ] = {}

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def refresh_topology(self) -> None:
        """Catch pool/cache state up with a graph that moved.

        A streaming :class:`~repro.serving.deltas.DeltaGraphView` grows —
        cold-start nodes arrive, compaction swaps the base.  The candidate
        pools append each new node to its type's pool and drop their
        endpoint maps; the embedding cache appends one zero row per new
        node to that type's block, so no table is refilled.  Every
        resident ANN index is retired (the invalidation the delta layer's
        compaction contract requires).  This is a write: no read may run
        beside it.
        """
        self.pools.refresh()
        self.cache.grow()
        with self._index_lock, self._index_region:
            self._indexes.clear()

    def _new_index(self, backend: str, block: np.ndarray,
                   norms: Optional[np.ndarray]) -> VectorIndex:
        """An index over a type block; ``norms`` normalises it for cosine."""
        with self.profiler.stage("serving.index_build"):
            if norms is not None:
                block = block / np.maximum(norms, 1e-12)[:, None]
            index = make_index(backend, **self.index_params).build(block)
        self.stats.count(index_builds=1)
        return index

    def _build_index(self, relation: str, target_type: str, metric: str,  # repro-lint: holds=_index_lock
                     block: np.ndarray, version: int,
                     norms: Optional[np.ndarray]) -> VectorIndex:
        """Build and register an index; ``norms`` is required for cosine.

        The caller fetched ``version`` and ``norms`` from the cache before
        taking ``_index_lock``, which is never held while taking the
        cache's lock.
        """
        index = self._new_index(self.index_backend, block, norms)
        with self._index_region:
            self._indexes[(relation, target_type, metric)] = (
                index, version, len(block)
            )
        return index

    def _index_for(self, relation: str, target_type: str, metric: str,
                   block: np.ndarray) -> Optional[VectorIndex]:
        """The live index for a (relation, pool) pair, or ``None`` for exact.

        ``None`` sends the caller down the original brute-force path —
        always for the ``exact`` backend and for pools under
        ``min_index_size``.  A stale entry is rebuilt in place.  Callers
        must have fetched ``block`` from the cache *before* calling (the
        fetch is what assigns the version this index is validated
        against).  Concurrent reads that miss the same index build it
        once: the first builds under ``_index_lock`` and the rest wait
        for it.
        """
        if self.index_backend == "exact":
            return None
        if len(block) < self.min_index_size:
            return None
        version = self.cache.version(relation)
        norms = (self.cache.norms(relation)[target_type]
                 if metric == "cosine" else None)
        key = (relation, target_type, metric)
        with self._index_lock:
            entry = self._indexes.get(key)
            if entry is not None:
                index, built_version, pool_len = entry
                if built_version == version and pool_len == len(block):
                    return index
            # Missing or stale (the table grew, or the pool changed, since
            # it was built): the build replaces the entry.
            return self._build_index(relation, target_type, metric, block,
                                     version, norms)

    # ------------------------------------------------------------------
    # Core batched top-K
    # ------------------------------------------------------------------
    def topk_batch(self, sources: Sequence[int], relation: str, k: int,
                   target_type: Optional[str] = None,
                   exclude_known: bool = True
                   ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-source ``(ids, scores)`` top-K arrays, in input order.

        ``target_type`` is resolved per source when omitted (see
        :meth:`CandidatePools.target_type_for`); unresolvable (fully cold)
        sources yield empty arrays instead of raising.
        """
        if k <= 0:
            raise EvaluationError(f"k must be positive, got {k}")
        sources = check_node_ids(sources, self.graph.num_nodes, EvaluationError)
        self.stats.count(requests=1, sources=len(sources))
        with Timer() as timer:
            results: List[Tuple[np.ndarray, np.ndarray]] = (
                [(_EMPTY_IDS, _EMPTY_SCORES)] * len(sources)
            )
            for ttype, positions in self._group_by_target(
                sources, relation, target_type
            ).items():
                if ttype is None:
                    continue  # cold and unresolvable: empty result, no crash
                group = sources[positions]
                for start in range(0, len(group), _BLOCK_SIZE):
                    block = slice(start, start + _BLOCK_SIZE)
                    for offset, item in enumerate(self._topk_block(
                        group[block], relation, k, ttype, exclude_known
                    )):
                        results[positions[start + offset]] = item
        self.stats.record_latency(timer.elapsed)
        return results

    def _group_by_target(self, sources: np.ndarray, relation: str,
                         target_type: Optional[str]
                         ) -> Dict[Optional[str], np.ndarray]:
        if target_type is not None:
            return {target_type: np.arange(len(sources))}
        # Warm sources resolve in one gather: the type of their first CSR
        # neighbor (same answer as CandidatePools.target_type_for).
        indptr, indices = self.graph.csr(relation)
        starts, ends = indptr[sources], indptr[sources + 1]
        warm = starts < ends
        codes = np.full(len(sources), -1, dtype=np.int64)
        if warm.any():
            codes[warm] = self.graph.node_type_codes[indices[starts[warm]]]
        type_names = self.graph.schema.node_types
        groups: Dict[Optional[str], List[int]] = {
            type_names[code]: np.flatnonzero(codes == code).tolist()
            for code in np.unique(codes[warm]).tolist()
        }
        for position in np.flatnonzero(~warm).tolist():
            ttype = self.pools.target_type_for(int(sources[position]), relation)
            groups.setdefault(ttype, []).append(position)
        return {
            ttype: np.asarray(sorted(positions), dtype=np.int64)
            for ttype, positions in groups.items()
        }

    @staticmethod
    def _exclusion_lists(rows: np.ndarray, cols: np.ndarray,
                         block_len: int) -> List[Optional[np.ndarray]]:
        """Regroup scatter pairs into one exclusion array per block row."""
        if len(rows) == 0:
            return [None] * block_len
        order = np.argsort(rows, kind="stable")
        sorted_rows, sorted_cols = rows[order], cols[order]
        bounds = np.searchsorted(sorted_rows, np.arange(block_len + 1))
        return [
            sorted_cols[bounds[j]:bounds[j + 1]]
            if bounds[j + 1] > bounds[j] else None
            for j in range(block_len)
        ]

    def _topk_block(self, block: np.ndarray, relation: str, k: int,
                    target_type: str, exclude_known: bool
                    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        with self.profiler.stage("serving.pool"):
            pool, rows, cols = self.pools.pool_exclusions(
                block, relation, target_type, exclude_known
            )
        if len(pool) == 0:
            return [(_EMPTY_IDS, _EMPTY_SCORES)] * len(block)
        with self.profiler.stage("serving.embeddings"):
            blocks = self.cache.table(relation)
            queries = self._rows(blocks, block)
        candidates_block = blocks[target_type]
        index = self._index_for(relation, target_type, "ip", candidates_block)
        if index is not None:
            with self.profiler.stage("serving.index_search"):
                found, candidates = index.search(
                    queries, k,
                    exclude=self._exclusion_lists(rows, cols, len(block)),
                )
            self.stats.count(candidates_scored=candidates)
            return [(pool[positions], scores) for positions, scores in found]
        if self.index_backend != "exact":
            self.stats.count(exact_fallbacks=len(block))
        with self.profiler.stage("serving.score"):
            scores = _score_rows(candidates_block, queries)
            # The matrix is engine-owned: scatter -inf over exclusions in
            # place instead of materialising a boolean candidate mask.
            scores[rows, cols] = -np.inf
        self.stats.count(
            candidates_scored=int(np.count_nonzero(scores > -np.inf))
        )
        with self.profiler.stage("serving.topk"):
            return [
                (pool[ids], top_scores)
                for ids, top_scores in _stable_topk_block(scores, None, k)
            ]

    def _rows(self, blocks: Dict[str, np.ndarray],
              nodes: np.ndarray) -> np.ndarray:
        """The embedding rows of ``nodes``, gathered from their types' blocks."""
        codes = self.graph.node_type_codes[nodes]
        names = self.graph.schema.node_types
        if (codes == codes[0]).all():
            name = names[codes[0]]
            return blocks[name][self.pools.pool_positions(name)[nodes]]
        first = blocks[names[codes[0]]]
        rows = np.empty((len(nodes), first.shape[1]), dtype=first.dtype)
        for code in np.unique(codes).tolist():
            hit = codes == code
            name = names[code]
            rows[hit] = blocks[name][self.pools.pool_positions(name)[nodes[hit]]]
        return rows

    # ------------------------------------------------------------------
    # Recommendation API
    # ------------------------------------------------------------------
    def recommend_batch(self, sources: Sequence[int], relation: str,
                        k: int = 10, target_type: Optional[str] = None,
                        exclude_known: bool = True):
        """Top-``k`` :class:`Recommendation` lists for several sources."""
        # .tolist() already yields Python scalars; positional construction
        # keeps this loop (k objects per source) off the hot-path profile.
        return [
            [
                Recommendation(node, score)
                for node, score in zip(ids.tolist(), scores.tolist())
            ]
            for ids, scores in self.topk_batch(
                sources, relation, k, target_type, exclude_known
            )
        ]

    def recommend(self, source: int, relation: str, k: int = 10,
                  target_type: Optional[str] = None,
                  exclude_known: bool = True):
        """Top-``k`` recommendations for one source."""
        return self.recommend_batch(
            [int(source)], relation, k, target_type, exclude_known
        )[0]

    # ------------------------------------------------------------------
    # Similarity
    # ------------------------------------------------------------------
    def similar_topk(self, nodes: Sequence[int], relation: str, k: int
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-node ``(ids, cosine_scores)`` over same-typed candidates.

        With an approximate backend, candidates are retrieved from a
        cosine index (the pool's vectors normalised at build time) and
        their reported scores are then **recomputed with the reference
        cosine formula**, so only the candidate set is approximate.
        """
        if k <= 0:
            raise EvaluationError(f"k must be positive, got {k}")
        nodes = check_node_ids(nodes, self.graph.num_nodes, EvaluationError)
        self.stats.count(requests=1, sources=len(nodes))
        with Timer() as timer:
            with self.profiler.stage("serving.embeddings"):
                blocks = self.cache.table(relation)
                norms = self.cache.norms(relation)
            results: List[Tuple[np.ndarray, np.ndarray]] = []
            for node in nodes.tolist():
                node_type = self.graph.node_type(node)
                with self.profiler.stage("serving.pool"):
                    pool = self.pools.type_pool(node_type)
                    own = self.pools.pool_positions(node_type)[node]
                block = blocks[node_type]
                index = self._index_for(relation, node_type, "cosine", block)
                if index is not None:
                    results.append(self._similar_via_index(
                        index, block, norms[node_type], pool, own, k
                    ))
                    continue
                if self.index_backend != "exact":
                    self.stats.count(exact_fallbacks=1)
                with self.profiler.stage("serving.pool"):
                    valid = np.ones(len(pool), dtype=bool)
                    valid[own] = False
                with self.profiler.stage("serving.score"):
                    # The probe's norm is taken over its 1-D row (not the
                    # cached axis=1 reduction): np.linalg.norm accumulates
                    # the two differently, and the reference uses the
                    # vector form.
                    probe = block[own]
                    scores = (block @ probe) / np.maximum(
                        norms[node_type] * np.linalg.norm(probe), 1e-12
                    )
                self.stats.count(candidates_scored=int(valid.sum()))
                with self.profiler.stage("serving.topk"):
                    ids, top_scores = _stable_topk(scores, valid, k)
                    results.append((pool[ids], top_scores))
        self.stats.record_latency(timer.elapsed)
        return results

    def _similar_via_index(self, index: VectorIndex, block: np.ndarray,
                           norms: np.ndarray, pool: np.ndarray, own: int,
                           k: int) -> Tuple[np.ndarray, np.ndarray]:
        probe = block[own]
        probe_norm = np.linalg.norm(probe)
        query = probe / max(probe_norm, 1e-12)
        exclude = [np.asarray([own], dtype=np.int64)]
        with self.profiler.stage("serving.index_search"):
            found, candidates = index.search(query, k, exclude=exclude)
        self.stats.count(candidates_scored=candidates)
        positions, _ = found[0]
        if len(positions) == 0:
            return _EMPTY_IDS, _EMPTY_SCORES
        with self.profiler.stage("serving.score"):
            # Reference cosine formula over the surfaced candidates only;
            # the normalised index scores decided *which* candidates, not
            # what the caller sees.
            scores = (block[positions] @ probe) / np.maximum(
                norms[positions] * probe_norm, 1e-12
            )
        with self.profiler.stage("serving.topk"):
            ids, top_scores = _stable_topk_ids(scores, positions, k)
        return pool[ids], top_scores

    def similar_batch(self, nodes: Sequence[int], relation: str, k: int = 10):
        """Top-``k`` :class:`Recommendation` lists of similar nodes."""
        return [
            [
                Recommendation(node, score)
                for node, score in zip(ids.tolist(), scores.tolist())
            ]
            for ids, scores in self.similar_topk(nodes, relation, k)
        ]

    def similar_nodes(self, node: int, relation: str, k: int = 10):
        """Top-``k`` same-typed nodes by embedding cosine similarity."""
        return self.similar_batch([int(node)], relation, k)[0]

    # ------------------------------------------------------------------
    # Full ranking (evaluation workload)
    # ------------------------------------------------------------------
    def rank_all(self, sources: Sequence[int], relation: str,
                 target_type: Optional[str] = None,
                 exclude_known: bool = True) -> List[np.ndarray]:
        """Fully ranked candidate pools, one id array per source.

        The ranking evaluator needs every source's complete ordering (MRR
        looks past the top-K), so this path is **always exact** — an ANN
        index prunes candidates, which is incompatible with producing a
        total order — and keeps the full stable argsort over the target
        type's block and mask-based pools.  Scores are the ones
        :meth:`topk_batch` computes (:func:`_score_rows`).
        """
        sources = check_node_ids(sources, self.graph.num_nodes, EvaluationError)
        self.stats.count(requests=1, sources=len(sources))
        if self.index_backend != "exact":
            self.stats.count(exact_fallbacks=len(sources))
        results: List[np.ndarray] = [_EMPTY_IDS] * len(sources)
        with Timer() as timer:
            for ttype, positions in self._group_by_target(
                sources, relation, target_type
            ).items():
                if ttype is None:
                    continue
                group = sources[positions]
                with self.profiler.stage("serving.embeddings"):
                    blocks = self.cache.table(relation)
                    queries = self._rows(blocks, group)
                with self.profiler.stage("serving.pool"):
                    pool, valid = self.pools.valid_pool_matrix(
                        group, relation, ttype, exclude_known
                    )
                if len(pool) == 0:
                    continue
                with self.profiler.stage("serving.score"):
                    scores = _score_rows(blocks[ttype], queries)
                counts = np.count_nonzero(valid, axis=1)
                self.stats.count(candidates_scored=int(counts.sum()))
                with self.profiler.stage("serving.topk"):
                    keys = np.where(valid, -scores, np.inf)
                    orders = np.argsort(keys, axis=1, kind="stable")
                    for j, count in enumerate(counts.tolist()):
                        results[positions[j]] = pool[orders[j, :count]]
        self.stats.record_latency(timer.elapsed)
        return results

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def export_index(self, path: Union[str, Path], relation: str,
                     target_type: str, metric: str = "ip") -> Path:
        """Persist the (relation, target_type) index next to a checkpoint.

        Builds the index first if it isn't resident (also for the
        ``exact`` backend, where the brute-force oracle is what gets
        persisted).  The written file carries enough metadata for
        :meth:`import_index` — and ``repro check-model`` — to validate it
        against a live engine before use.
        """
        with self.profiler.stage("serving.embeddings"):
            block = self.cache.table(relation)[target_type]
        version = self.cache.version(relation)
        norms = (self.cache.norms(relation)[target_type]
                 if metric == "cosine" else None)
        key = (relation, target_type, metric)
        with self._index_lock:
            entry = self._indexes.get(key)
            if (entry is not None and entry[1] == version
                    and entry[2] == len(block)):
                index = entry[0]
            elif self.index_backend == "exact":
                index = self._new_index("exact", block, norms)
            else:
                index = self._build_index(relation, target_type, metric,
                                          block, version, norms)
        return save_index(index, path, extra_meta={
            "relation": relation,
            "target_type": target_type,
            "metric": metric,
            "pool_size": int(len(block)),
            "table_dim": int(block.shape[1]),
        })

    def import_index(self, path: Union[str, Path]) -> VectorIndex:
        """Load a persisted index and attach it to the live engine.

        The file's metadata is validated against the current table and
        pool (``repro.check.state.verify_index``, C007): a stale or
        shape-mismatched index raises instead of silently serving wrong
        candidates.  The loaded index is pinned to the relation's current
        cache version.
        """
        index, meta = load_index(path)
        relation = meta.get("relation")
        target_type = meta.get("target_type")
        metric = meta.get("metric", "ip")
        with self.profiler.stage("serving.embeddings"):
            block = self.cache.table(relation)[target_type]
        pool = self.pools.type_pool(target_type)
        from repro.check.state import verify_index

        verify_index(meta, index, block, pool, source=str(path))
        version = self.cache.version(relation)
        with self._index_lock, self._index_region:
            self._indexes[(relation, target_type, metric)] = (
                index, version, len(pool)
            )
        return index

    # ------------------------------------------------------------------
    def index_report(self) -> Dict[str, object]:
        """Backend configuration plus every resident index entry."""
        with self._index_lock:
            entries = list(self._indexes.items())
        return {
            "backend": self.index_backend,
            "params": dict(self.index_params),
            "min_index_size": self.min_index_size,
            "entries": [
                {
                    "relation": relation,
                    "target_type": target_type,
                    "metric": metric,
                    "size": index.size,
                    "table_version": version,
                }
                for (relation, target_type, metric), (index, version, _)
                in entries
            ],
        }

    def latency_report(self) -> Dict[str, object]:
        """Counters plus per-stage wall time for dashboards/logs."""
        return {
            **self.stats.to_dict(),
            "index": self.index_report(),
            "stages": self.profiler.report(),
        }
