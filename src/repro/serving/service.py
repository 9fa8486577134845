"""The online request layer: micro-batched endpoints over a live graph.

:class:`~repro.serving.engine.BatchServingEngine` is a *library*: callers
hand it whole batches and a frozen graph.  :class:`RecommendService` is the
*service* wrapped around it — the in-process equivalent of the
router/service split a production recommender backend deploys:

- three endpoints: :meth:`~RecommendService.recommend` (top-K under a
  relationship), :meth:`~RecommendService.similar` (same-typed cosine
  neighbors) and :meth:`~RecommendService.feedback` (a new interaction,
  streamed into the graph through
  :class:`~repro.serving.deltas.DeltaGraphView`);
- **work-conserving request micro-batching** behind a **bounded
  admission queue**: concurrent single-item requests coalesce into one
  engine call per (endpoint, relation, k, ...) group.  An open group is
  flushed when it reaches ``max_batch``, when its leader's
  ``flush_interval`` deadline passes, or as soon as no feedback batch is
  in flight.  Reads run side by side, one engine call per available core
  at most, so a request waits to coalesce only behind a write or behind
  a full set of running reads.  A failing
  item fails alone: feedback writes are applied one by one, and a read
  batch that raises is re-run item by item, so every waiter gets its own
  result or its own error.  When ``max_queue`` requests are already
  pending, admission fails with the typed
  :class:`~repro.errors.QueueFullError` — backpressure is an outcome
  callers count, not a crash;
- **cold-start ingestion**: a feedback naming a never-seen endpoint
  registers the node first, its type resolved by the schema-level
  endpoint-type inference (:func:`~repro.serving.pools
  .relation_endpoint_types`) unless given explicitly, and the node is
  servable immediately — its embedding rows are zero-padded by
  :class:`ColdStartEmbedder` until the model learns it;
- **per-endpoint latency percentiles**: every request records its
  queue-wait-plus-execution latency into that endpoint's own
  :class:`EndpointStats` window, and batch flushes / compactions /
  topology refreshes run under ``service.*``
  :class:`~repro.perf.StageProfiler` stages, so mixed live traffic shows
  up per stage exactly like training and batch serving do.

Consistency model: one service-wide readers-writer execution lock.  Read
batches hold it shared and run side by side; a feedback batch holds it
exclusive for all of its writes, the cold-node topology refreshes they
trigger and any compaction that follows.  So a read observes either the
graph before a write batch or after it, never a torn intermediate (the
``tests/serving/test_service_threads.py`` suite drives this from a thread
pool).  A write batch waits for the reads in flight to drain, and reads
that arrive while it waits queue behind it, so a stream of reads cannot
starve a write.  Between compactions, reads see merged (CSR + delta)
views that are bit-identical to a from-scratch rebuild.  A cold node's
arrival appends a zero row to its type's embedding block, and every
topology refresh (cold node or compaction) retires the resident ANN
indexes; no embedding table is refilled.

Lock discipline (machine-checked; see DESIGN.md "Lock-discipline
contract"): admission/batching state is guarded by ``_cond``, the graph
view by the exclusive side of ``_exec_lock`` — the ``guarded-by``
annotations below drive lint rule R009, which counts ``with
self._exec_lock.shared():`` as not holding the guard.  The state that
concurrent reads do write (engine counters, the embedding cache, lazy
candidate pools, ANN index builds, stage timings, the view's merged-CSR
splice) has one guard each, taken after
``_exec_lock`` (DESIGN.md lists them and the one order they nest in).
All locks are :mod:`repro.utils.concurrency` checked primitives feeding the
opt-in runtime lock-order sanitizer.  ``_cond`` and ``_exec_lock`` are
deliberately never nested: ``_drive`` pops due batches, bumps the
in-flight write and batch counters under ``_cond`` and releases it
before ``_execute`` takes ``_exec_lock``, and ``_execute`` never takes
``_cond``, so the acquisition-order graph has no edge between them and
no cycle by construction.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueueFullError, ServiceError
from repro.perf import StageProfiler
from repro.serving.deltas import DeltaGraphView
from repro.serving.engine import BatchServingEngine, _percentiles, check_node_ids
from repro.serving.pools import relation_endpoint_types
from repro.utils.concurrency import (
    checked_condition,
    checked_rwlock,
    register_shared_region,
)

__all__ = [
    "ColdStartEmbedder",
    "EndpointStats",
    "RecommendService",
    "ServiceConfig",
]

ENDPOINTS = ("recommend", "similar", "feedback")

# Per-endpoint latency sample window (requests). Smaller than the engine's:
# the service reports *user-perceived* latency, where recent behavior under
# the current traffic mix is what matters.
_ENDPOINT_WINDOW = 16384


def _read_slots() -> int:
    """How many read engine calls may run at once.

    Engine reads release the interpreter lock for most of their time, so
    one read per available core runs in parallel; more only fight over
    that lock (uncapped, four and eight closed-loop clients on a 2-core
    host served about half and a fifth of the serialised rate).  At least two, so one
    slow read, such as a table fill after a topology refresh, never holds
    up every other read.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return max(2, cores)


@dataclass
class ServiceConfig:
    """Tunables of the request layer.

    ``flush_interval`` bounds how long an open batch may wait for
    co-batchers while a feedback batch runs; a batch opened while no
    write is in flight flushes at once whatever its value.  A read batch
    also waits for a free read slot (one per available core, at least
    two) however long that takes, coalescing meanwhile.
    ``flush_interval=0`` turns coalescing off: every request flushes
    immediately after admission, even behind a running write or with
    every read slot taken — the synchronous mode used by
    single-threaded drivers (oracles, trace replays).
    ``compaction_threshold`` is forwarded to the delta view (0 disables
    automatic folds).
    """

    max_batch: int = 32
    flush_interval: float = 0.002
    max_queue: int = 256
    compaction_threshold: int = 512
    default_k: int = 10

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.flush_interval < 0:
            raise ServiceError(
                f"flush_interval must be >= 0, got {self.flush_interval}"
            )


class ColdStartEmbedder:
    """A ``RelationEmbedder`` view that zero-pads rows for never-trained nodes.

    The underlying model (or :class:`~repro.core.persistence
    .EmbeddingStore`) knows ``base_num_nodes`` rows; streamed-in nodes get
    zero rows, which score every candidate identically, so their top-K
    falls back to the stable ascending-id order until real training data
    arrives.
    """

    def __init__(self, model, base_num_nodes: int):
        self.model = model
        self.base_num_nodes = int(base_num_nodes)

    def node_embeddings(self, nodes: np.ndarray, relation: str) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        warm = nodes < self.base_num_nodes
        if warm.all():
            return np.asarray(self.model.node_embeddings(nodes, relation))
        known = np.asarray(self.model.node_embeddings(
            nodes[warm] if warm.any() else np.arange(1), relation
        ))
        out = np.zeros((len(nodes), known.shape[-1]), dtype=known.dtype)
        if warm.any():
            out[warm] = known
        return out


@dataclass
class EndpointStats:
    """Per-endpoint counters plus an instance-scoped latency window."""

    requests: int = 0   # admitted requests (rejections not included)
    batches: int = 0    # engine flushes executed for this endpoint
    rejected: int = 0   # admissions refused with QueueFullError
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_ENDPOINT_WINDOW), repr=False
    )

    def record_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "rejected": self.rejected,
            "mean_batch_size": (
                self.requests / self.batches if self.batches else 0.0
            ),
            "latency_ms": _percentiles(self.latencies),
        }


class _Pending:
    """One admitted request waiting for its batch to flush."""

    __slots__ = ("payload", "result", "error", "done")

    def __init__(self, payload):
        self.payload = payload
        self.result = None
        self.error: Optional[BaseException] = None
        self.done = False


class _Batch:
    """One open micro-batch: its items, leader, and flush deadline."""

    __slots__ = ("items", "leader", "deadline")

    def __init__(self, leader: _Pending, deadline: float):
        self.items: List[_Pending] = [leader]
        self.leader = leader
        self.deadline = deadline


class RecommendService:
    """In-process recommend / similar / feedback service with streaming
    ingestion.

    Parameters
    ----------
    model:
        Anything with ``node_embeddings(nodes, relation)`` covering the
        *base* graph's nodes; cold-start rows are padded by
        :class:`ColdStartEmbedder`.
    graph:
        The frozen base graph, or an existing
        :class:`~repro.serving.deltas.DeltaGraphView` to adopt.
    config:
        Request-layer tunables (:class:`ServiceConfig`).
    profiler:
        Optional shared :class:`StageProfiler`; service stages are
        recorded as ``service.*``, engine stages as ``serving.*``.
    """

    def __init__(self, model, graph, *, config: Optional[ServiceConfig] = None,
                 profiler: Optional[StageProfiler] = None):
        self.config = config or ServiceConfig()
        if isinstance(graph, DeltaGraphView):
            self.view = graph  # repro-lint: guarded-by=_exec_lock
            self.view.compaction_threshold = self.config.compaction_threshold
        else:
            self.view = DeltaGraphView(
                graph, compaction_threshold=self.config.compaction_threshold
            )
        self.embedder = ColdStartEmbedder(model, self.view.base.num_nodes)
        self.profiler = profiler if profiler is not None else StageProfiler()
        self.engine = BatchServingEngine(
            self.embedder, self.view, profiler=self.profiler
        )
        self.endpoint_stats: Dict[str, EndpointStats] = {  # repro-lint: guarded-by=_cond
            name: EndpointStats() for name in ENDPOINTS
        }
        self.view.add_compaction_listener(self._on_compaction)
        self._cond = checked_condition("service._cond")
        self._batches: Dict[tuple, _Batch] = {}  # repro-lint: guarded-by=_cond
        self._ripe: Dict[tuple, List[List[_Pending]]] = {}  # repro-lint: guarded-by=_cond
        self._pending_total = 0  # repro-lint: guarded-by=_cond
        self._queue_high_water = 0  # repro-lint: guarded-by=_cond
        # Flushes popped by _drive and not yet marked done.  While no write
        # runs or waits, an open batch is due at once; reads also need one
        # of _read_slots.
        self._writes_inflight = 0  # repro-lint: guarded-by=_cond
        self._reads_inflight = 0  # repro-lint: guarded-by=_cond
        self._read_slots = _read_slots()
        self._exec_lock = checked_rwlock("service._exec_lock")
        # Write-tracker region for the counters above: writes are
        # bracketed so the runtime sanitizer can flag any future path
        # that mutates stats without holding _cond.
        self._stats_region = register_shared_region(
            "service.stats", guard="service._cond",
            reason="admission counters + latency windows; single guard "
                   "is _cond (DESIGN.md lock-discipline contract)",
        )

    # ------------------------------------------------------------------
    # Public endpoints
    # ------------------------------------------------------------------
    def recommend(self, source: int, relation: str, k: Optional[int] = None,
                  target_type: Optional[str] = None,
                  exclude_known: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(ids, scores)`` for one source under ``relation``."""
        k = self._check_read(relation, [source], k)
        key = ("recommend", relation, k, target_type, exclude_known)
        return self._submit(key, int(source))

    def recommend_many(self, sources: Sequence[int], relation: str,
                       k: Optional[int] = None,
                       target_type: Optional[str] = None,
                       exclude_known: bool = True
                       ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batch variant: the whole list is admitted as one micro-batch."""
        k = self._check_read(relation, sources, k)
        key = ("recommend", relation, k, target_type, exclude_known)
        return self._submit_many(key, [int(s) for s in sources])

    def similar(self, node: int, relation: str,
                k: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` same-typed ``(ids, cosine_scores)`` for one node."""
        k = self._check_read(relation, [node], k)
        key = ("similar", relation, k)
        return self._submit(key, int(node))

    def similar_many(self, nodes: Sequence[int], relation: str,
                     k: Optional[int] = None
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        k = self._check_read(relation, nodes, k)
        key = ("similar", relation, k)
        return self._submit_many(key, [int(n) for n in nodes])

    def feedback(self, source: int, target: int, relation: str,
                 source_type: Optional[str] = None,
                 target_type: Optional[str] = None) -> Dict[str, object]:
        """Stream one interaction into the live graph.

        Either endpoint may name a **fresh node id** — exactly
        ``num_nodes`` at application time (ids are dense) — which is
        registered first with its type resolved from ``source_type`` /
        ``target_type`` or, when omitted, from the relationship's
        schema-level endpoint-type map.  Returns a dict with ``accepted``
        (``False`` for duplicate edges), ``new_nodes`` and ``compacted``.
        """
        self.view.schema.relationship_index(relation)
        key = ("feedback", relation)
        return self._submit(
            key, (int(source), int(target), source_type, target_type)
        )

    def feedback_many(self, edges: Sequence[Tuple[int, int]], relation: str
                      ) -> List[Dict[str, object]]:
        self.view.schema.relationship_index(relation)
        key = ("feedback", relation)
        return self._submit_many(
            key, [(int(u), int(v), None, None) for u, v in edges]
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_read(self, relation: str, nodes: Sequence[int],
                    k: Optional[int]) -> int:
        """Admission-time validation of a read request.

        This runs *outside* any lock, so the bounds check is against
        whatever graph epoch is current at admission.  That is enough:
        node ids are dense and ``num_nodes`` only grows, so an id valid at
        admission stays valid when the read executes.  The engine checks
        the ids again against the epoch it reads (``check_node_ids``).
        """
        self.view.schema.relationship_index(relation)
        k = self.config.default_k if k is None else int(k)
        if k <= 0:
            raise ServiceError(f"k must be positive, got {k}")
        check_node_ids(nodes, self.view.num_nodes, ServiceError)
        return k

    # ------------------------------------------------------------------
    # Admission queue + micro-batching
    # ------------------------------------------------------------------
    def _admit(self, key: tuple, payloads: list) -> List[_Pending]:  # repro-lint: holds=_cond
        """Enqueue payloads under the admission bound (caller holds _cond)."""
        endpoint = key[0]
        stats = self.endpoint_stats[endpoint]
        if self._pending_total + len(payloads) > self.config.max_queue:
            with self._stats_region:
                stats.rejected += len(payloads)
            raise QueueFullError(
                f"admission queue full ({self._pending_total} pending, "
                f"bound {self.config.max_queue}); rejected {len(payloads)} "
                f"{endpoint} request(s)"
            )
        requests = [_Pending(payload) for payload in payloads]
        batch = self._batches.get(key)
        for request in requests:
            if batch is None:
                batch = _Batch(
                    request, time.perf_counter() + self.config.flush_interval
                )
                self._batches[key] = batch
            else:
                batch.items.append(request)
            if len(batch.items) >= self.config.max_batch:
                # Full: move it aside so the next request opens a fresh
                # batch; ripe batches flush on the next _drive iteration.
                self._ripe.setdefault(key, []).append(batch.items)
                del self._batches[key]
                batch = None
        with self._stats_region:
            self._pending_total += len(requests)
            self._queue_high_water = max(
                self._queue_high_water, self._pending_total
            )
            stats.requests += len(requests)
        return requests

    def _take_due_batches(self, key: tuple, now: float) -> List[List[_Pending]]:  # repro-lint: holds=_cond
        """Pop the batches of ``key`` that are due.

        A batch is due when it is full, when its deadline has passed, or
        when no feedback batch is in flight (work conservation); a read
        batch also needs a free read slot.  Reads run side by side, at
        most ``_read_slots`` engine calls at once, so a read waits for a
        write in flight or for a slot, and coalesces meanwhile.  With
        ``flush_interval=0`` (no coalescing) reads take no slot.
        """
        due = self._ripe.pop(key, [])
        room = len(due) + 1
        if key[0] != "feedback" and self.config.flush_interval:
            room = max(0, self._read_slots - self._reads_inflight)
            if len(due) > room:
                self._ripe[key] = due[room:]
                del due[room:]
        batch = self._batches.get(key)
        if batch is not None and len(due) < room and (
            now >= batch.deadline or not self._writes_inflight
        ):
            del self._batches[key]
            due.append(batch.items)
        return due

    def _submit(self, key: tuple, payload):
        return self._submit_many(key, [payload])[0]

    def _submit_many(self, key: tuple, payloads: list) -> list:
        start = time.perf_counter()
        with self._cond:
            requests = self._admit(key, payloads)
        self._drive(key, requests)
        stats = self.endpoint_stats[key[0]]
        elapsed = time.perf_counter() - start
        with self._cond:
            with self._stats_region:
                for _ in requests:
                    stats.record_latency(elapsed)
        first_error = next((r.error for r in requests if r.error), None)
        if first_error is not None:
            raise first_error
        return [r.result for r in requests]

    def _drive(self, key: tuple, requests: List[_Pending]) -> None:
        """Block until every request is flushed, leading when it's our turn.

        Any requester that finds a due batch of its key (see
        :meth:`_take_due_batches`) executes it: at once when no write is
        in flight (and, for a read, a read slot is free), or when it
        fills a batch to ``max_batch``.  Otherwise the requester that
        opened the open batch (the *leader*) sleeps until its deadline,
        and followers just wait; both wake on the ``notify_all`` that
        ends every flush, so the open batch runs as soon as the write
        ends or a slot frees.  Execution happens outside the admission
        lock, under the service-wide readers-writer execution lock.
        """
        own = set(map(id, requests))
        while True:
            with self._cond:
                pending = [r for r in requests if not r.done]
                if not pending:
                    return
                now = time.perf_counter()
                to_flush = self._take_due_batches(key, now)
                if not to_flush:
                    batch = self._batches.get(key)
                    if (batch is not None and id(batch.leader) in own
                            and batch.deadline > now):
                        # We lead this batch: sleep until its deadline.
                        self._cond.wait(batch.deadline - now)
                    else:
                        # Follower, or waiting for a read slot: wake on
                        # any flush completion.
                        self._cond.wait(0.05)
                    continue
                writes = len(to_flush) if key[0] == "feedback" else 0
                self._writes_inflight += writes
                self._reads_inflight += len(to_flush) - writes
                with self._stats_region:
                    self.endpoint_stats[key[0]].batches += len(to_flush)
            try:
                for items in to_flush:
                    self._execute(key, items)
            finally:
                with self._cond:
                    self._writes_inflight -= writes
                    self._reads_inflight -= len(to_flush) - writes
                    self._pending_total -= sum(map(len, to_flush))
                    for items in to_flush:
                        for item in items:
                            item.done = True
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # Batch execution (one engine call per flush; per item on failure)
    # ------------------------------------------------------------------
    def _execute(self, key: tuple, items: List[_Pending]) -> None:
        endpoint = key[0]
        try:
            if endpoint == "feedback":
                with self._exec_lock.exclusive():
                    with self.profiler.stage("service.feedback"):
                        self._execute_feedback(key[1], items)
            else:
                with self._exec_lock.shared():
                    with self.profiler.stage(f"service.{endpoint}"):
                        self._execute_reads(key, items)
        except BaseException as error:  # surfaced on every waiter
            for item in items:
                if item.error is None:
                    item.error = error

    def _read(self, key: tuple, payloads: list) -> list:  # repro-lint: holds=_exec_lock:shared
        """One engine call for a read batch's payloads."""
        if key[0] == "recommend":
            _, relation, k, target_type, exclude_known = key
            return self.engine.topk_batch(
                payloads, relation, k, target_type, exclude_known
            )
        _, relation, k = key
        return self.engine.similar_topk(payloads, relation, k)

    def _execute_reads(self, key: tuple, items: List[_Pending]) -> None:  # repro-lint: holds=_exec_lock:shared
        try:
            results = self._read(key, [item.payload for item in items])
        except Exception:
            if len(items) == 1:
                raise
            # One bad item must not fail its neighbours: re-run each alone
            # so every waiter gets its own result or its own error.
            for item in items:
                try:
                    item.result = self._read(key, [item.payload])[0]
                except Exception as error:
                    item.error = error
            return
        for item, result in zip(items, results):
            item.result = result

    def _execute_feedback(self, relation: str, items: List[_Pending]) -> None:  # repro-lint: holds=_exec_lock
        # Each write stands alone: a failing one (a self-loop, a non-dense
        # id) reports its own error and the writes after it still apply.
        for item in items:
            try:
                item.result = self._apply_feedback(relation, *item.payload)
            except Exception as error:
                item.error = error
        if self.view.should_compact():
            try:
                with self.profiler.stage("service.compaction"):
                    self.view.compact()
            except Exception as cause:
                # _execute hands this to every waiter without an error of
                # its own.  The writes stay applied (a resend is dropped as
                # a duplicate) and the delta stays pending, so the next
                # write batch compacts it.
                raise ServiceError(
                    f"the {relation!r} feedback was applied, but the "
                    f"compaction after it failed: {cause!r}"
                ) from cause
            for item in items:
                if item.result is not None:
                    item.result["compacted"] = True
                    item.result["version"] = self.view.version

    # ------------------------------------------------------------------
    # Feedback application + cold-start registration
    # ------------------------------------------------------------------
    def _resolve_cold_type(self, relation: str, warm_node: Optional[int],
                           declared: Optional[str]) -> str:
        if declared is not None:
            self.view.schema.node_type_index(declared)  # validates
            return declared
        if warm_node is None:
            raise ServiceError(
                f"feedback under {relation!r} introduces two unseen nodes; "
                "pass source_type/target_type explicitly"
            )
        warm_type = self.view.node_type(warm_node)
        inferred = self.engine.pools.endpoint_map(relation).get(warm_type)
        if inferred is None:
            # The pools' cached map can predate this relation's first edges.
            inferred = relation_endpoint_types(self.view, relation).get(warm_type)
        if inferred is None:
            raise ServiceError(
                f"cannot infer the node type of a cold node under "
                f"{relation!r} (no edges touching type {warm_type!r}); "
                "pass source_type/target_type explicitly"
            )
        return inferred

    def _apply_feedback(self, relation: str, source: int, target: int,  # repro-lint: holds=_exec_lock
                        source_type: Optional[str],
                        target_type: Optional[str]) -> Dict[str, object]:
        if source == target:
            raise ServiceError(
                f"feedback cannot connect node {source} to itself"
            )
        new_nodes: List[int] = []
        for node, declared, other in (
            (source, source_type, target), (target, target_type, source)
        ):
            num_nodes = self.view.num_nodes
            if node > num_nodes:
                raise ServiceError(
                    f"feedback node id {node} is not dense: next fresh id "
                    f"is {num_nodes}"
                )
            if node == num_nodes:
                warm = other if other < num_nodes else None
                node_type = self._resolve_cold_type(relation, warm, declared)
                new_nodes.append(self.view.add_node(node_type))
        accepted = self.view.add_edge(source, target, relation)
        if new_nodes:
            # Append the newborn node to its type's pool and embedding
            # block before the next read, so it is poolable immediately.
            with self.profiler.stage("service.refresh"):
                self.engine.refresh_topology()
        return {
            "accepted": accepted,
            "new_nodes": new_nodes,
            # Overwritten by _execute_feedback when this write batch tips
            # the view over its compaction threshold.
            "compacted": False,
            "version": self.view.version,
        }

    def _on_compaction(self, view: DeltaGraphView) -> None:
        """Compaction contract: pools and indexes re-sync to the new base.

        The node count is unchanged, so every embedding block is kept.
        """
        with self.profiler.stage("service.refresh"):
            self.engine.refresh_topology()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._pending_total

    def stats_report(self) -> Dict[str, object]:
        """Endpoints, queue, ingestion, engine and stage timings in one dict.

        Counter reads take ``_cond`` — the counters' declared guard — so
        a report snapshot can never observe a torn multi-field update
        (e.g. ``requests`` bumped but ``batches`` not yet) from a
        concurrent admission or flush.
        """
        with self._cond:
            endpoints = {
                name: stats.to_dict()
                for name, stats in self.endpoint_stats.items()
            }
            queue = {
                "max_queue": self.config.max_queue,
                "high_water": self._queue_high_water,
                "depth": self._pending_total,
            }
        return {
            "endpoints": endpoints,
            "queue": queue,
            "ingestion": self.view.stats(),
            "engine": self.engine.latency_report(),
        }
