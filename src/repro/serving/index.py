"""Swappable vector-index layer: sub-linear top-K candidate retrieval.

``BatchServingEngine`` originally scored **every** candidate in the pool
(``sources @ pool.T``) — linear in pool size, which is exactly what
BENCH_serving.json showed dominating serving time (``serving.topk`` ~69%,
``serving.score`` ~28%).  This module makes the retrieval stage a swappable
:class:`VectorIndex` behind a uniform ``search`` API, mirroring the
production pattern of a vector database behind a recommender service:

- :class:`ExactIndex` — the brute-force oracle.  One dgemv per query over
  the whole pool plus the stable top-K extractor, bit-identical to the
  engine's exact path (and in order to the scalar ``_reference_*`` paths).
- :class:`IVFIndex` — inverted-file index.  K-means partitions the pool
  into ~sqrt(N) clusters (trained on a deterministic sample); a query
  scores the ``nprobe`` clusters whose centroids have the highest inner
  product and ranks only their members.  Cluster members are stored
  contiguously so probing is slice concatenation, not fancy gathers.

Both return **exact dot-product scores** for the candidates they
surface — approximation lives only in *which* candidates are scored, so
``recall@K`` against :class:`ExactIndex` fully characterises the error
(measured by ``repro verify --suite index`` and the benchmark sweep in
``benchmarks/bench_serving.py``).

Determinism contract: ``build`` and ``search`` are pure functions of
(vectors, parameters, seed).  Ties are broken toward the lowest pool
position everywhere, matching ``np.argsort(-scores, kind="stable")``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.utils.rng import as_rng

__all__ = [
    "VectorIndex",
    "ExactIndex",
    "IVFIndex",
    "INDEX_BACKENDS",
    "make_index",
    "save_index",
    "load_index",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)

_INDEX_META_KEY = "__meta__"
_INDEX_FORMAT = "repro-index"


# ======================================================================
# Stable top-K extraction (shared by the engine and every backend)
# ======================================================================
def _stable_topk(scores: np.ndarray, valid: np.ndarray,
                 k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` valid indices, ordered exactly like the scalar reference.

    Reproduces ``pool[np.argsort(-scores[pool], kind="stable")[:k]]`` for
    ``pool = np.flatnonzero(valid)`` without sorting the whole pool:
    ``argpartition`` isolates the top block, boundary ties are resolved
    toward the lowest node ids (what a stable sort does), and only the
    k candidates are ordered.
    """
    num_valid = int(np.count_nonzero(valid))
    if num_valid == 0:
        return _EMPTY_IDS, _EMPTY_SCORES
    take = min(k, num_valid)
    if take == num_valid:
        chosen = np.flatnonzero(valid)
    else:
        masked = np.where(valid, scores, -np.inf)
        cutoff = len(masked) - take
        kth_value = masked[np.argpartition(masked, cutoff)[cutoff:]].min()
        above = np.flatnonzero(masked > kth_value)
        ties = np.flatnonzero(valid & (scores == kth_value))
        chosen = np.concatenate([above, ties[: take - len(above)]])
    # Descending score; ascending node id among exact ties (stable order).
    order = np.lexsort((chosen, -scores[chosen]))
    top = chosen[order[:take]]
    return top, scores[top]


def _score_rows(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(len(queries), len(block)) dot products: one dgemv per query.

    One dgemv per query, not one matmul per batch, keeps a query's scores
    independent of what it was batched with: BLAS picks its matmul kernel
    by shape, and kernels round the last bit differently.  The scores match the reference's gathered dot products
    to a few ulps, not bit for bit, since a dgemv also rounds a matrix's
    last few rows differently from the rest.
    """
    if len(queries) == 1:
        return (block @ queries[0])[None, :]
    scores = np.empty((len(queries), len(block)),
                      dtype=np.result_type(block, queries))
    for j, query in enumerate(queries):
        scores[j] = block @ query
    return scores


def _stable_topk_block(scores: np.ndarray, valid: Optional[np.ndarray],
                       k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Row-wise :func:`_stable_topk` of a (block, width) score matrix.

    ``valid=None`` means the caller already scattered ``-inf`` over the
    excluded columns of ``scores`` (the hot path does this in place on the
    matmul output, skipping a boolean matrix entirely).

    Every row class is handled vectorised — no per-row Python fallback:

    - rows whose k-th largest value is unique across the boundary select
      their top-K *set* with one row-wise ``partition`` plus a ``>=`` mask;
    - rows whose cutoff value ties across the boundary resolve the tie
      toward the lowest column ids with a running count over the tied
      columns (what the stable reference sort does), after which they join
      the first class;
    - rows with fewer than ``k`` rankable entries (tiny pools, heavy
      exclusion) are ordered with one batched stable lexsort.
    """
    block, width = scores.shape
    out: List[Tuple[np.ndarray, np.ndarray]] = [None] * block
    if block == 0:
        return out
    masked = scores if valid is None else np.where(valid, scores, -np.inf)
    if k < width:
        cut = width - k
        kth = np.partition(masked, cut, axis=1)[:, cut:cut + 1]
        finite = kth[:, 0] > -np.inf
        select = masked >= kth
        counts = np.count_nonzero(select, axis=1)
        tie_rows = np.flatnonzero(finite & (counts != k))
        if len(tie_rows):
            # Boundary ties: keep everything strictly above the cutoff and
            # the first (k - #above) tied columns in ascending-id order.
            above = masked[tie_rows] > kth[tie_rows]
            ties = select[tie_rows] & ~above
            budget = k - np.count_nonzero(above, axis=1)
            keep = np.cumsum(ties, axis=1) <= budget[:, None]
            select[tie_rows] = above | (ties & keep)
        full_rows = np.flatnonzero(finite)
        small_rows = np.flatnonzero(~finite)
    else:
        full_rows = np.empty(0, dtype=np.int64)
        small_rows = np.arange(block)
    if len(full_rows):
        # Exactly k selected per row: np.nonzero yields ascending columns,
        # so a final stable argsort by descending score reproduces the
        # reference order (score desc, id asc among exact ties).
        cols = np.nonzero(select[full_rows])[1].reshape(len(full_rows), k)
        chosen = np.take_along_axis(masked[full_rows], cols, axis=1)
        order = np.argsort(-chosen, axis=1, kind="stable")
        top = np.take_along_axis(cols, order, axis=1)
        top_scores = np.take_along_axis(chosen, order, axis=1)
        for j, row in enumerate(full_rows.tolist()):
            out[row] = (top[j], top_scores[j])
    if len(small_rows):
        # Fewer than k rankable entries: one batched stable lexsort orders
        # each row (score desc, id asc), with rankable entries — including
        # genuinely -inf-scored but valid ones — ahead of excluded ones.
        sub = masked[small_rows]
        invalid = ~(sub > -np.inf) if valid is None else ~valid[small_rows]
        keys = np.where(invalid, np.inf, -sub)
        order = np.lexsort((invalid, keys), axis=-1)
        takes = np.minimum(k, np.count_nonzero(~invalid, axis=1))
        originals = scores[small_rows]
        for j, row in enumerate(small_rows.tolist()):
            top = order[j, : takes[j]]
            out[row] = (top, originals[j, top])
    return out


def _stable_topk_ids(scores: np.ndarray, positions: np.ndarray,
                     k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stable top-``k`` over an *unordered* candidate list.

    Same ordering contract as :func:`_stable_topk` (descending score,
    ascending pool position among exact ties, lowest positions win
    boundary ties) but for candidates that arrive in arbitrary order —
    e.g. concatenated IVF cluster slices.
    """
    count = len(scores)
    if count == 0:
        return _EMPTY_IDS, _EMPTY_SCORES
    take = min(k, count)
    if take == count:
        chosen = np.arange(count)
    else:
        cutoff = count - take
        kth_value = scores[np.argpartition(scores, cutoff)[cutoff:]].min()
        above = np.flatnonzero(scores > kth_value)
        tied = np.flatnonzero(scores == kth_value)
        # Lowest pool positions win the boundary tie, wherever they sit in
        # the candidate list.
        tied = tied[np.argsort(positions[tied], kind="stable")]
        chosen = np.concatenate([above, tied[: take - len(above)]])
    order = np.lexsort((positions[chosen], -scores[chosen]))
    top = chosen[order]
    return positions[top], scores[top]


# ======================================================================
# The index abstraction
# ======================================================================
class VectorIndex:
    """Top-K maximum-inner-product retrieval over a fixed vector pool.

    ``build(vectors)`` ingests the pool (row ``i`` is pool position ``i``);
    ``search(queries, k, exclude=...)`` returns ``(results, candidates)``:
    one ``(positions, scores)`` pair per query, where positions index into
    the built pool and scores are exact dot products, and how many
    candidates this call actually scored (the sub-linearity measure).
    The count is returned, not stored, so concurrent searches of one
    index each read their own.  Subclasses must be deterministic
    functions of (vectors, params, seed).
    """

    backend = "abstract"
    _PARAMS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.dim = 0
        self.size = 0

    # -- lifecycle ------------------------------------------------------
    def build(self, vectors: np.ndarray) -> "VectorIndex":
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int,
               exclude: Optional[Sequence[Optional[np.ndarray]]] = None
               ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], int]:
        raise NotImplementedError

    # -- persistence ----------------------------------------------------
    def params(self) -> Dict[str, object]:
        """The constructor parameters (JSON-serialisable)."""
        return {name: getattr(self, name) for name in self._PARAMS}

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays needed to reconstruct the built index."""
        raise NotImplementedError

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def meta(self) -> Dict[str, object]:
        """Descriptive header used for persistence and C007 validation."""
        return {
            "format": _INDEX_FORMAT,
            "version": 1,
            "backend": self.backend,
            "dim": int(self.dim),
            "size": int(self.size),
            "params": self.params(),
        }

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _as_queries(queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        return queries

    @staticmethod
    def _drop_excluded(positions: np.ndarray, scores: np.ndarray,
                       excluded: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        if excluded is None or len(excluded) == 0 or len(positions) == 0:
            return positions, scores
        keep = ~np.isin(positions, excluded, assume_unique=False)
        return positions[keep], scores[keep]

    def _require_built(self) -> None:
        if self.size == 0 and self.dim == 0:
            raise ReproError(
                f"{type(self).__name__}.search called before build()"
            )


class ExactIndex(VectorIndex):
    """Brute-force oracle: score the whole pool, extract stable top-K.

    Bit-identical to the engine's brute-force hot path (same per-query
    dgemv, same ``-inf`` exclusion scatter, same extractor), which makes
    it the ground truth every approximate backend's recall is measured
    against.
    """

    backend = "exact"
    _PARAMS = ("block_size",)

    def __init__(self, block_size: int = 64):
        super().__init__()
        self.block_size = max(1, int(block_size))
        self._vectors = np.empty((0, 0), dtype=np.float64)

    def build(self, vectors: np.ndarray) -> "ExactIndex":
        self._vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        self.size, self.dim = self._vectors.shape
        return self

    def search(self, queries, k, exclude=None):
        self._require_built()
        queries = self._as_queries(queries)
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        candidates = 0
        for start in range(0, len(queries), self.block_size):
            chunk = queries[start:start + self.block_size]
            # The engine hot path's scoring, so this backend stays
            # bit-identical to it.
            scores = _score_rows(self._vectors, chunk)
            if exclude is not None:
                for j in range(len(chunk)):
                    excluded = exclude[start + j]
                    if excluded is not None and len(excluded):
                        scores[j, excluded] = -np.inf
            candidates += int(np.count_nonzero(scores > -np.inf))
            results.extend(_stable_topk_block(scores, None, k))
        return results, candidates

    def state_arrays(self):
        return {"vectors": self._vectors}

    def load_state_arrays(self, arrays):
        self.build(arrays["vectors"])


class IVFIndex(VectorIndex):
    """Inverted-file index: k-means cluster pruning, pure numpy.

    ``nlist`` defaults to ~sqrt(N).  Training runs Lloyd iterations on a
    deterministic sample of the pool (``train_size`` rows), then a single
    blocked pass assigns every vector to its nearest centroid.  Vectors
    are stored re-ordered by cluster so probing a cluster is one
    contiguous slice — per-query work is ``O(nlist + N * nprobe / nlist)``
    instead of ``O(N)``.
    """

    backend = "ivf"
    _PARAMS = ("nlist", "nprobe", "train_size", "iters", "seed")

    def __init__(self, nlist: Optional[int] = None, nprobe: int = 16,
                 train_size: int = 65536, iters: int = 8, seed: int = 0):
        super().__init__()
        self.nlist = nlist
        self.nprobe = max(1, int(nprobe))
        self.train_size = max(1, int(train_size))
        self.iters = max(1, int(iters))
        self.seed = int(seed)
        self._centroids = np.empty((0, 0), dtype=np.float64)
        self._positions = _EMPTY_IDS      # pool positions in cluster order
        self._offsets = np.zeros(1, dtype=np.int64)
        self._vectors = np.empty((0, 0), dtype=np.float64)  # cluster order

    # -- construction ---------------------------------------------------
    @staticmethod
    def _assign(vectors: np.ndarray, centroids: np.ndarray,
                block: int = 16384) -> np.ndarray:
        """Nearest centroid per vector (squared L2), blocked for memory."""
        half_norms = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
        assignment = np.empty(len(vectors), dtype=np.int64)
        for start in range(0, len(vectors), block):
            chunk = vectors[start:start + block]
            # argmin ||x - c||^2 == argmax (x.c - |c|^2/2); |x|^2 is
            # constant per row and drops out.
            affinity = chunk @ centroids.T - half_norms
            assignment[start:start + block] = np.argmax(affinity, axis=1)
        return assignment

    def build(self, vectors: np.ndarray) -> "IVFIndex":
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        size, dim = vectors.shape
        nlist = self.nlist
        if nlist is None:
            nlist = int(round(np.sqrt(size)))
        nlist = int(min(max(1, nlist), size)) if size else 1
        rng = as_rng(self.seed)
        if size == 0:
            self._centroids = np.empty((0, dim), dtype=np.float64)
            self._positions = _EMPTY_IDS
            self._offsets = np.zeros(1, dtype=np.int64)
            self._vectors = vectors
            self.size, self.dim = size, dim
            return self
        # Train on a deterministic sample; tiny pools train on everything.
        if size > self.train_size:
            sample = vectors[rng.choice(size, size=self.train_size,
                                        replace=False)]
        else:
            sample = vectors
        centroids = sample[rng.choice(len(sample), size=nlist, replace=False)]
        sums = np.zeros((nlist, dim))  # reused across k-means iterations
        for _ in range(self.iters):
            assignment = self._assign(sample, centroids)
            sums.fill(0.0)
            np.add.at(sums, assignment, sample)
            counts = np.bincount(assignment, minlength=nlist)
            occupied = counts > 0
            centroids = centroids.copy()
            centroids[occupied] = (
                sums[occupied] / counts[occupied][:, None]
            )
            if (~occupied).any():
                # Re-seed empty clusters on deterministic sample rows so
                # every centroid stays meaningful.
                refill = rng.choice(len(sample), size=int((~occupied).sum()))
                centroids[~occupied] = sample[refill]
        assignment = self._assign(vectors, centroids)
        # Stable sort keeps positions ascending inside each cluster, which
        # is what the lowest-id tie-break downstream relies on.
        order = np.argsort(assignment, kind="stable")
        counts = np.bincount(assignment, minlength=nlist)
        self._centroids = centroids
        self._positions = order.astype(np.int64)
        offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._offsets = offsets
        self._vectors = np.ascontiguousarray(vectors[order])
        self.size, self.dim = size, dim
        return self

    # -- search ---------------------------------------------------------
    def search(self, queries, k, exclude=None):
        self._require_built()
        queries = self._as_queries(queries)
        nlist = len(self._centroids)
        nprobe = min(self.nprobe, nlist)
        affinity = queries @ self._centroids.T
        if nprobe < nlist:
            probes = np.argpartition(-affinity, nprobe - 1, axis=1)[:, :nprobe]
        else:
            probes = np.broadcast_to(np.arange(nlist), affinity.shape).copy()
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        candidates = 0
        for j in range(len(queries)):
            # Contiguous cluster slices: scoring is a few dgemv calls over
            # resident memory, never a row gather of the full pool.
            clusters = np.sort(probes[j])
            starts = self._offsets[clusters]
            ends = self._offsets[clusters + 1]
            spans = [(s, e) for s, e in zip(starts.tolist(), ends.tolist())
                     if e > s]
            if not spans:
                results.append((_EMPTY_IDS, _EMPTY_SCORES))
                continue
            scores = np.concatenate(
                [self._vectors[s:e] @ queries[j] for s, e in spans]
            )
            positions = np.concatenate(
                [self._positions[s:e] for s, e in spans]
            )
            excluded = None if exclude is None else exclude[j]
            positions, scores = self._drop_excluded(positions, scores, excluded)
            candidates += len(positions)
            results.append(_stable_topk_ids(scores, positions, k))
        return results, candidates

    def state_arrays(self):
        return {
            "centroids": self._centroids,
            "positions": self._positions,
            "offsets": self._offsets,
            "vectors": self._vectors,
        }

    def load_state_arrays(self, arrays):
        self._centroids = np.asarray(arrays["centroids"], dtype=np.float64)
        self._positions = np.asarray(arrays["positions"], dtype=np.int64)
        self._offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        self._vectors = np.asarray(arrays["vectors"], dtype=np.float64)
        self.size, self.dim = self._vectors.shape


# ======================================================================
# Registry + persistence
# ======================================================================
INDEX_BACKENDS: Dict[str, type] = {
    ExactIndex.backend: ExactIndex,
    IVFIndex.backend: IVFIndex,
}


def make_index(backend: str, **params) -> VectorIndex:
    """Construct a backend by name, ignoring parameters it doesn't take.

    The engine forwards one flat parameter dict (``nprobe``, ``seed``,
    ...) regardless of backend, so unknown keys are dropped rather than
    raised — an unknown *backend* is still an error.
    """
    try:
        cls = INDEX_BACKENDS[backend]
    except KeyError:
        raise ReproError(
            f"unknown index backend {backend!r}; "
            f"available: {sorted(INDEX_BACKENDS)}"
        ) from None
    accepted = {
        key: value for key, value in params.items() if key in cls._PARAMS
    }
    return cls(**accepted)


def save_index(index: VectorIndex, path: Union[str, Path],
               extra_meta: Optional[Dict[str, object]] = None) -> Path:
    """Persist a built index next to its embeddings (.npz, no pickle).

    Returns the path actually written (``.npz`` appended when missing).
    """
    from repro.core.persistence import DIGEST_KEY, write_archive

    meta = index.meta()
    if extra_meta:
        meta.update(extra_meta)
    arrays = index.state_arrays()
    for reserved in (_INDEX_META_KEY, DIGEST_KEY):
        if reserved in arrays:
            raise ReproError(
                f"index state may not use the reserved key {reserved!r}"
            )
    return write_archive(
        path, {**arrays, _INDEX_META_KEY: np.asarray(json.dumps(meta))}
    )


def load_index(path: Union[str, Path]) -> Tuple[VectorIndex, Dict[str, object]]:
    """Load an index written by :func:`save_index`.

    Returns ``(index, meta)``; callers that attach the index to a live
    engine should validate ``meta`` against the current table/pool first
    (see :func:`repro.check.state.verify_index`).
    """
    from repro.core.persistence import read_archive

    arrays = read_archive(path, "vector index")
    if _INDEX_META_KEY not in arrays:
        raise ReproError(f"{path} is not a repro vector index")
    meta = json.loads(str(arrays.pop(_INDEX_META_KEY)))
    if meta.get("format") != _INDEX_FORMAT:
        raise ReproError(f"{path} is not a repro vector index")
    index = make_index(meta["backend"], **meta.get("params", {}))
    index.load_state_arrays(arrays)
    return index, meta
