"""Differential oracles for the runtime lock-discipline sanitizer.

``repro verify --suite concurrency`` runs four gates, all bit-exact
(tolerance 1e-6, observed diff must be 0.0):

- **lock_order_selftest** — a deliberately planted A→B / B→A inversion
  must raise :class:`~repro.errors.LockOrderError`, and a non-reentrant
  self-acquire must raise too.  The miswired-canary idiom: a sanitizer
  that cannot catch a planted bug proves nothing by passing elsewhere.
- **write_tracker_selftest** — a planted unguarded concurrent write and
  a planted guard-not-held write must each be flagged.
- **service_storm_zero_findings** — the mixed read/write/compaction
  thread storm from the serving suite, run with the sanitizer enabled:
  zero findings, zero lock-order errors, queue drained, and at least two
  read engine calls in flight at once (two reads on different keys meet
  inside the engine first), so the shared side of the execution lock
  and the state that concurrent reads write are covered.
- **sanitizer_bitidentity_service** — a seeded synchronous endpoint
  sequence replayed with the sanitizer off vs on must produce
  bit-identical ids and scores (the wrappers delegate to the same
  ``threading`` primitives; enabling them must not perturb numerics).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List

import numpy as np

from repro.core.persistence import EmbeddingStore
from repro.errors import LockOrderError, QueueFullError
from repro.graph import GraphBuilder, GraphSchema
from repro.serving import RecommendService, ServiceConfig
from repro.utils.concurrency import (
    checked_lock,
    concurrency_findings,
    lock_sanitizer,
    register_shared_region,
    reset_concurrency_state,
)
from repro.utils.rng import as_rng
from repro.verify.oracles import OracleResult, _result

__all__ = ["concurrency_oracles"]


def _tiny_service(seed: int, **overrides) -> RecommendService:
    schema = GraphSchema(["user", "item"], ["view", "buy"])
    builder = GraphBuilder(schema)
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    graph = builder.build()
    rng = as_rng(seed)
    store = EmbeddingStore({
        rel: rng.standard_normal((graph.num_nodes, 8))
        for rel in graph.schema.relationships
    })
    defaults = dict(flush_interval=0.0, compaction_threshold=4, max_queue=64)
    defaults.update(overrides)
    return RecommendService(store, graph, config=ServiceConfig(**defaults))


def _lock_order_selftest() -> OracleResult:
    """Planted inversion and self-deadlock must both raise."""
    reset_concurrency_state()
    lock_a = checked_lock("selftest.A")
    lock_b = checked_lock("selftest.B")
    caught_inversion = False
    caught_self = False
    try:
        with lock_sanitizer():
            with lock_a:
                with lock_b:
                    pass
            try:
                with lock_b:
                    with lock_a:
                        pass
            except LockOrderError:
                caught_inversion = True
            try:
                with lock_a:
                    with lock_a:
                        pass
            except LockOrderError:
                caught_self = True
    finally:
        reset_concurrency_state()
    diff = 0.0 if (caught_inversion and caught_self) else float("inf")
    return _result(
        "lock_order_selftest", "concurrency", diff,
        detail="planted A->B/B->A inversion and non-reentrant "
               "self-acquire both raised LockOrderError",
    )


def _write_tracker_selftest() -> OracleResult:
    """Planted unguarded-concurrent and guard-not-held writes flagged."""
    reset_concurrency_state()
    racy = register_shared_region("selftest.racy")
    guarded = register_shared_region(
        "selftest.guarded", guard="selftest.guard-lock"
    )
    barrier = threading.Barrier(2, timeout=10.0)

    def overlap(region):
        def writer():
            with region:
                barrier.wait()
                barrier.wait()
        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    try:
        with lock_sanitizer():
            overlap(racy)
            with guarded:
                pass
            kinds = {(f.kind, f.region) for f in concurrency_findings()}
    finally:
        reset_concurrency_state()
    expected = {
        ("concurrent-write", "selftest.racy"),
        ("unguarded-write", "selftest.guarded"),
    }
    ok = expected <= kinds
    return _result(
        "write_tracker_selftest", "concurrency",
        0.0 if ok else float("inf"),
        detail=f"flagged {sorted(kinds)}",
    )


class _ReadOverlap:
    """Counts read engine calls in flight; the first two wait to meet.

    The first two calls wait (bounded) at a barrier inside the engine, so
    two reads hold the execution lock's shared side at the same time
    whenever the service lets them.  ``peak`` is the most calls ever in
    flight at once.
    """

    def __init__(self, engine, timeout: float = 10.0):
        self._lock = threading.Lock()
        self._barrier = threading.Barrier(2, timeout=timeout)
        self._started = 0
        self._inflight = 0
        self.peak = 0
        for name in ("topk_batch", "similar_topk"):
            setattr(engine, name, self._wrap(getattr(engine, name)))

    def _wrap(self, call):
        def counted(*args, **kwargs):
            with self._lock:
                self._started += 1
                meet = self._started <= 2
                self._inflight += 1
                self.peak = max(self.peak, self._inflight)
            try:
                if meet:
                    try:
                        self._barrier.wait()
                    except threading.BrokenBarrierError:
                        pass  # never met: peak stays 1 and the oracle fails
                return call(*args, **kwargs)
            finally:
                with self._lock:
                    self._inflight -= 1
        return counted


def _service_storm(seed: int) -> OracleResult:
    """The mixed thread storm, sanitized: zero findings, zero errors,
    overlapping reads."""
    reset_concurrency_state()
    service = _tiny_service(
        seed, flush_interval=0.001, max_batch=8, max_queue=10_000,
        compaction_threshold=6,
    )
    overlap = _ReadOverlap(service.engine)
    errors: List[BaseException] = []

    def worker(i: int) -> None:
        try:
            roll = i % 5
            if roll < 2:
                ids, scores = service.recommend(i % 3, "view", k=3)
                assert len(ids) == len(scores)
            elif roll < 3:
                service.similar(3 + i % 4, "view", k=3)
            else:
                service.feedback(i % 3, 3 + (i * 7) % 4, "view")
        except QueueFullError:
            pass
        except BaseException as error:
            errors.append(error)

    def first_reads() -> None:
        # Two reads on different keys, no write: they must meet.
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(service.recommend, 0, "view", 3),
                           pool.submit(service.similar, 3, "view", 3)]
                for future in futures:
                    future.result()
        except Exception as error:
            errors.append(error)

    try:
        with lock_sanitizer():
            first_reads()
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(worker, range(120)))
            findings = concurrency_findings()
    finally:
        reset_concurrency_state()
    depth = service.queue_depth
    serial = int(overlap.peak < 2)
    diff = float(len(findings) + len(errors) + depth + serial)
    detail = (
        f"2 overlapping reads then 120 mixed requests, 8 threads: "
        f"{len(findings)} finding(s), {len(errors)} error(s), queue depth "
        f"{depth}, at most {overlap.peak} read engine call(s) in flight"
    )
    if findings:
        detail += f"; first: {findings[0].to_dict()}"
    if errors:
        detail += f"; first error: {errors[0]!r}"
    return _result("service_storm_zero_findings", "concurrency", diff,
                   detail=detail)


def _replay_endpoints(service: RecommendService) -> List[np.ndarray]:
    """A deterministic synchronous endpoint sequence; returns all outputs."""
    out: List[np.ndarray] = []
    for i in range(6):
        service.feedback(i % 3, 3 + (i * 5) % 4, "buy")
    for node in range(3):
        ids, scores = service.recommend(node, "view", k=4)
        out.extend([ids, scores])
    for node in (3, 4, 5):
        ids, scores = service.similar(node, "view", k=3)
        out.extend([ids, scores])
    batch = service.recommend_many([0, 1, 2], "buy", k=3)
    for ids, scores in batch:
        out.extend([ids, scores])
    return out


def _service_bitidentity(seed: int) -> OracleResult:
    plain = _replay_endpoints(_tiny_service(seed))
    reset_concurrency_state()
    try:
        with lock_sanitizer():
            sanitized = _replay_endpoints(_tiny_service(seed))
            findings = concurrency_findings()
    finally:
        reset_concurrency_state()
    diff = 0.0
    if len(plain) != len(sanitized):
        diff = float("inf")
    else:
        for a, b in zip(plain, sanitized):
            if a.shape != b.shape or a.dtype != b.dtype:
                diff = float("inf")
                break
            if a.size:
                diff = max(diff, float(np.max(np.abs(
                    np.asarray(a, dtype=np.float64)
                    - np.asarray(b, dtype=np.float64)
                ))))
    diff = max(diff, float(len(findings)))
    return _result(
        "sanitizer_bitidentity_service", "concurrency", diff,
        detail=f"{len(plain)} output arrays (feedback/recommend/similar/"
               f"batch) off vs on; {len(findings)} finding(s)",
    )


def concurrency_oracles(seed: int = 0) -> List[OracleResult]:
    """The ``repro verify --suite concurrency`` gate set."""
    return [
        _lock_order_selftest(),
        _write_tracker_selftest(),
        _service_storm(seed),
        _service_bitidentity(seed),
    ]
