"""Concurrency smoke: the service under a thread pool, compactions live.

The service guarantees epoch consistency: one readers-writer execution
lock lets reads run side by side and holds every feedback batch (with its
topology refreshes and compaction) apart from them, so a concurrent read
must observe the graph as it stood between two write batches — never a
torn intermediate.  The torn-read test makes that falsifiable: every
concurrent read's result must be bit-identical to one of the precomputed
per-write-prefix snapshots.  The gated tests pin the scheduling contract:
reads overlap each other, requests coalesce only behind a write, and a
read that arrives while a write waits runs after it.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.check.state import delta_findings
from repro.core.persistence import EmbeddingStore
from repro.errors import QueueFullError, ServiceError
from repro.graph import GraphBuilder, GraphSchema
from repro.serving import BatchServingEngine, RecommendService, ServiceConfig
from repro.serving.service import ColdStartEmbedder
from repro.utils.concurrency import (
    concurrency_findings,
    lock_sanitizer,
    reset_concurrency_state,
)


def build_base():
    schema = GraphSchema(["user", "item"], ["view", "buy"])
    builder = GraphBuilder(schema)
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


def build_store(graph, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingStore({
        rel: rng.standard_normal((graph.num_nodes, 8))
        for rel in graph.schema.relationships
    })


def make_service(**overrides) -> RecommendService:
    graph = build_base()
    store = build_store(graph)
    defaults = dict(flush_interval=0.0, compaction_threshold=4, max_queue=64)
    defaults.update(overrides)
    return RecommendService(store, graph, config=ServiceConfig(**defaults))


def snapshot_read(graph_or_view, store, node, relation, k, base_nodes):
    """The reference result for one epoch: a fresh cache-free engine."""
    engine = BatchServingEngine(
        ColdStartEmbedder(store, base_nodes), graph_or_view
    )
    ids, scores = engine.topk_batch([node], relation, k)[0]
    return ids.tolist(), scores.tolist()


def test_no_torn_reads_during_compaction():
    """Concurrent reads during a compacting write stream land on epochs.

    A writer streams 12 unique edges (compaction threshold 3 → four
    compactions) while readers hammer one query.  Every observed result
    must equal one of the 13 per-prefix snapshots — a torn read (half-old
    half-new CSR, stale pool against a fresh table, ...) matches none.
    """
    graph = build_base()
    store = build_store(graph)
    writes = [
        (0, 5, "view"), (0, 6, "view"), (1, 4, "view"), (1, 6, "view"),
        (2, 3, "view"), (2, 5, "view"), (0, 4, "buy"), (0, 5, "buy"),
        (1, 3, "buy"), (1, 6, "buy"), (2, 4, "buy"), (2, 6, "buy"),
    ]
    query, relation, k = 0, "view", 4

    # Precompute the 13 legal snapshots (before any write, after each).
    from repro.serving.deltas import DeltaGraphView

    shadow = DeltaGraphView(graph, compaction_threshold=0)
    snapshots = [snapshot_read(shadow, store, query, relation, k,
                               graph.num_nodes)]
    for u, v, rel in writes:
        shadow.add_edge(u, v, rel)
        snapshots.append(snapshot_read(shadow, store, query, relation, k,
                                       graph.num_nodes))

    service = RecommendService(store, graph, config=ServiceConfig(
        flush_interval=0.0005, max_batch=8, max_queue=10_000,
        compaction_threshold=3,
    ))

    def writer():
        for u, v, rel in writes:
            service.feedback(u, v, rel)
        return "done"

    def reader(_):
        ids, scores = service.recommend(query, relation, k=k)
        return ids.tolist(), scores.tolist()

    with ThreadPoolExecutor(max_workers=6) as pool:
        write_future = pool.submit(writer)
        results = list(pool.map(reader, range(60)))
        assert write_future.result() == "done"

    assert service.view.compactions == 4
    for observed in results:
        assert observed in snapshots, (
            f"torn read: {observed} matches no write-prefix snapshot"
        )
    # The full write stream must be visible to a read issued after the storm.
    final = service.recommend(query, relation, k=k)
    assert (final[0].tolist(), final[1].tolist()) == snapshots[-1]


def test_stable_topk_under_concurrent_identical_reads():
    """With no writer, every concurrent read of one query is identical."""
    service = make_service(flush_interval=0.001, max_batch=16,
                           max_queue=10_000)
    expected = service.recommend(0, "view", k=4)

    def reader(_):
        ids, scores = service.recommend(0, "view", k=4)
        return ids.tolist(), scores.tolist()

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(reader, range(100)))
    assert set(map(tuple, (tuple(ids) for ids, _ in results))) == {
        tuple(expected[0].tolist())
    }
    for ids, scores in results:
        assert ids == expected[0].tolist()
        assert scores == expected[1].tolist()
    # Micro-batching actually coalesced some of those requests.
    stats = service.endpoint_stats["recommend"]
    assert stats.batches <= stats.requests


def test_mixed_storm_leaves_consistent_state():
    """Reads, writes and cold-start ingestion from many threads at once."""
    service = make_service(flush_interval=0.001, max_batch=8,
                           max_queue=10_000, compaction_threshold=6)
    errors = []

    def worker(i):
        # Deterministic per-index op choice: generators are not thread-safe.
        try:
            roll = i % 5
            if roll < 2:
                ids, scores = service.recommend(i % 3, "view", k=3)
                assert len(ids) == len(scores)
                assert all(0 <= n < service.view.num_nodes for n in ids)
            elif roll < 3:
                service.similar(3 + i % 4, "view", k=3)
            else:
                service.feedback(i % 3, 3 + (i * 7) % 4, "view")
        except QueueFullError:
            pass
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(worker, range(120)))

    assert errors == []
    assert service.queue_depth == 0
    # The view's merged CSRs still match a from-scratch rebuild (C008).
    assert delta_findings(service.view) == []
    report = service.stats_report()
    admitted = sum(
        stats["requests"] for stats in report["endpoints"].values()
    )
    assert admitted > 0


def test_sanitized_storm_compaction_vs_batch_reads():
    """Compacting writes against batch reads under the runtime sanitizer.

    Writers stream "buy" feedback (threshold 3 → repeated compactions)
    while readers issue ``recommend_many`` batches on the untouched
    "view" relation.  With the lock-discipline sanitizer on, the run must
    produce zero lock-order errors and zero write-tracker findings, and
    the "view" top-K must stay bit-identical throughout (the write
    stream never touches it).

    ``max_batch=3`` makes every read batch exactly one reader's
    ``[0, 1, 2]``, the composition of the reference read: a batch
    coalesced from several readers scores its rows in a larger GEMM,
    which may round the last bit differently (DESIGN.md "Streaming
    ingestion").
    """
    service = make_service(flush_interval=0.001, max_batch=3,
                           max_queue=10_000, compaction_threshold=3)
    expected = [
        (ids.tolist(), scores.tolist())
        for ids, scores in service.recommend_many([0, 1, 2], "view", k=3)
    ]
    writes = [
        (0, 4, "buy"), (0, 5, "buy"), (0, 6, "buy"), (1, 3, "buy"),
        (1, 5, "buy"), (1, 6, "buy"), (2, 3, "buy"), (2, 4, "buy"),
        (2, 6, "buy"),
    ]
    errors = []

    def writer():
        for u, v, rel in writes:
            service.feedback(u, v, rel)
        return "done"

    def reader(_):
        try:
            batch = service.recommend_many([0, 1, 2], "view", k=3)
            return [(ids.tolist(), scores.tolist()) for ids, scores in batch]
        except QueueFullError:  # pragma: no cover - queue is oversized
            return None
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
            return None

    reset_concurrency_state()
    try:
        with lock_sanitizer():
            with ThreadPoolExecutor(max_workers=8) as pool:
                write_future = pool.submit(writer)
                results = list(pool.map(reader, range(50)))
                assert write_future.result() == "done"
            findings = concurrency_findings()
    finally:
        reset_concurrency_state()

    assert errors == []
    assert findings == [], [f.to_dict() for f in findings]
    assert service.view.compactions == 3
    assert service.queue_depth == 0
    stats = service.endpoint_stats["recommend"]
    assert stats.batches == stats.requests // 3
    for observed in results:
        assert observed == expected
    # Rerunning the batch after the storm, sanitizer off, still matches.
    after = [
        (ids.tolist(), scores.tolist())
        for ids, scores in service.recommend_many([0, 1, 2], "view", k=3)
    ]
    assert after == expected


def test_concurrent_engine_reads_lose_no_counter_updates():
    """Read-side counters and stage totals survive racing threads."""
    graph = build_base()
    engine = BatchServingEngine(build_store(graph), graph)
    threads, calls = 8, 150
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def reader(worker):
            for i in range(calls):
                engine.topk_batch([(worker + i) % 3], "view", 2)
                engine.similar_topk([3 + (worker + i) % 4], "view", 2)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(reader, w) for w in range(threads)]:
                future.result(60.0)
    finally:
        sys.setswitchinterval(previous)
    total = threads * calls
    assert engine.stats.requests == 2 * total
    assert engine.stats.sources == 2 * total
    assert len(engine.stats.latencies) == 2 * total
    stages = engine.profiler.report()
    assert stages["serving.topk"]["calls"] == 2 * total
    assert stages["serving.embeddings"]["calls"] == 2 * total


# ----------------------------------------------------------------------
# Concurrent reads, work-conserving flushes and per-item failure
# ----------------------------------------------------------------------
def gate_topk(service):
    """Hold the first ``engine.topk_batch`` call until ``release`` is set.

    Returns ``(entered, release)``: ``entered`` is set once the first call
    runs, so the test knows a read engine call is in flight.
    """
    entered, release = threading.Event(), threading.Event()
    real = service.engine.topk_batch

    def gated(sources, *args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert release.wait(10.0)
        return real(sources, *args, **kwargs)

    service.engine.topk_batch = gated
    return entered, release


def gate_feedback(service):
    """Hold the first edge write until ``release`` is set.

    Returns ``(entered, release)`` like :func:`gate_topk`; while the
    write is held, its feedback batch holds the execution lock exclusive.
    """
    entered, release = threading.Event(), threading.Event()
    real = service.view.add_edge

    def gated(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert release.wait(10.0)
        return real(*args, **kwargs)

    service.view.add_edge = gated
    return entered, release


def wait_until(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.001)


def test_lone_request_does_not_wait_out_the_flush_interval():
    """With the executor idle, a request's batch flushes at once."""
    service = make_service(flush_interval=5.0)
    start = time.perf_counter()
    ids, scores = service.recommend(0, "view", k=3)
    assert time.perf_counter() - start < 1.0
    assert len(ids) == len(scores) > 0


def test_a_read_completes_while_another_read_is_held():
    """Reads run side by side: a held read does not hold up the next."""
    service = make_service(flush_interval=5.0)
    entered, release = gate_topk(service)
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(service.recommend, 0, "view", 3)
        assert entered.wait(10.0)
        ids, scores = pool.submit(service.recommend, 1, "view", 2).result(5.0)
        assert not first.done()
        release.set()
        first.result(10.0)
    want_ids, want_scores = service.engine.topk_batch([1], "view", 2)[0]
    assert ids.tolist() == want_ids.tolist()
    assert scores.tolist() == want_scores.tolist()
    assert service.endpoint_stats["recommend"].batches == 2


def test_read_admitted_during_a_held_write_sees_the_write():
    """A read waits for the write batch in flight, then reads its graph."""
    service = make_service(flush_interval=5.0)
    entered, release = gate_feedback(service)
    with ThreadPoolExecutor(max_workers=2) as pool:
        write = pool.submit(service.feedback, 0, 5, "view")
        assert entered.wait(10.0)
        read = pool.submit(service.recommend, 0, "view", 4)
        wait_until(lambda: service.queue_depth == 2)
        time.sleep(0.05)
        assert not read.done()
        release.set()
        assert write.result(10.0)["accepted"] is True
        ids, _ = read.result(10.0)
    # Node 5 became a known neighbour of 0, so the read excludes it.
    assert 5 not in ids.tolist()
    assert ids.tolist() == service.engine.topk_batch([0], "view", 4)[0][0].tolist()


def test_read_arriving_while_a_write_waits_runs_after_it():
    """A write waiting for a read to drain is not overtaken by new reads."""
    service = make_service(flush_interval=5.0)
    entered, release = gate_topk(service)
    feedback = service.endpoint_stats["feedback"]
    with ThreadPoolExecutor(max_workers=3) as pool:
        held = pool.submit(service.recommend, 0, "view", 3)
        assert entered.wait(10.0)
        write = pool.submit(service.feedback, 1, 6, "view")
        # The write's batch is popped and waits for the held read.
        wait_until(lambda: feedback.batches == 1)
        late = pool.submit(service.recommend, 1, "view", 4)
        wait_until(lambda: service.queue_depth == 3)
        time.sleep(0.05)
        assert not write.done() and not late.done()
        release.set()
        held.result(10.0)
        assert write.result(10.0)["accepted"] is True
        ids, _ = late.result(10.0)
    # The late read ran after the write: 6 is now 1's known neighbour.
    assert 6 not in ids.tolist()


def test_requests_behind_a_running_call_coalesce_into_one_batch():
    """Requests admitted during a write batch run together right after it."""
    service = make_service(flush_interval=5.0)
    entered, release = gate_feedback(service)
    sources = [1, 2, 0, 1]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(sources) + 1) as pool:
        first = pool.submit(service.feedback, 1, 6, "view")
        assert entered.wait(10.0)
        futures = [
            pool.submit(service.recommend, source, "view", 3)
            for source in sources
        ]
        wait_until(lambda: service.queue_depth == len(sources) + 1)
        release.set()
        results = [future.result(10.0) for future in futures]
        first.result(10.0)
    assert time.perf_counter() - start < 2.5
    assert service.endpoint_stats["recommend"].batches == 1
    assert service.queue_depth == 0
    for source, (ids, scores) in zip(sources, results):
        want_ids, want_scores = service.engine.topk_batch([source], "view", 3)[0]
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_allclose(scores, want_scores, rtol=1e-12)


def test_reads_beyond_the_read_slots_coalesce():
    """With every read slot taken, new reads wait and run as one batch."""
    service = make_service(flush_interval=5.0)
    service._read_slots = 2
    entered = threading.Semaphore(0)
    release = threading.Event()
    real = service.engine.topk_batch
    calls = []

    def gated(sources, *args, **kwargs):
        calls.append(list(sources))
        if len(calls) <= 2:
            entered.release()
            assert release.wait(10.0)
        return real(sources, *args, **kwargs)

    service.engine.topk_batch = gated
    stats = service.endpoint_stats["recommend"]
    with ThreadPoolExecutor(max_workers=5) as pool:
        held = [pool.submit(service.recommend, source, "view", 3)
                for source in (0, 1)]
        for _ in held:
            assert entered.acquire(timeout=10.0)
        waiting = [pool.submit(service.recommend, source, "view", 4)
                   for source in (2, 0, 1)]
        wait_until(lambda: service.queue_depth == 5)
        time.sleep(0.05)
        assert stats.batches == 2 and not any(f.done() for f in waiting)
        release.set()
        for future in held + waiting:
            future.result(10.0)
    assert stats.batches == 3
    assert sorted(calls[2]) == [0, 1, 2]


def test_zero_flush_interval_never_coalesces_separate_requests():
    """``flush_interval=0`` flushes each request alone, even behind a call."""
    service = make_service(flush_interval=0.0)
    entered, release = gate_topk(service)
    stats = service.endpoint_stats["recommend"]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(service.recommend, 0, "view", 3)]
        assert entered.wait(10.0)
        for source in (1, 2, 0):
            expected = stats.batches + 1
            futures.append(pool.submit(service.recommend, source, "view", 3))
            # Its own batch was popped before the next request is admitted.
            wait_until(lambda: stats.batches == expected)
        release.set()
        for future in futures:
            future.result(10.0)
    assert stats.batches == stats.requests == 4


def test_failing_read_in_a_coalesced_batch_fails_alone():
    """The batch is re-run per item: neighbours still get their results."""
    service = make_service(flush_interval=5.0)
    entered, release = gate_feedback(service)
    real = service.engine.topk_batch

    def poisoned(sources, *args, **kwargs):
        # Stands in for any per-item failure.
        if 1 in list(sources):
            raise ServiceError(f"poisoned source in {list(sources)}")
        return real(sources, *args, **kwargs)

    service.engine.topk_batch = poisoned
    sources = [0, 1, 2]
    with ThreadPoolExecutor(max_workers=len(sources) + 1) as pool:
        first = pool.submit(service.feedback, 1, 6, "view")
        assert entered.wait(10.0)
        futures = {
            source: pool.submit(service.recommend, source, "view", 3)
            for source in sources
        }
        wait_until(lambda: service.queue_depth == len(sources) + 1)
        release.set()
        first.result(10.0)
        with pytest.raises(ServiceError, match="poisoned"):
            futures[1].result(10.0)
        for source in (0, 2):
            ids, scores = futures[source].result(10.0)
            want_ids, want_scores = real([source], "view", 3)[0]
            assert ids.tolist() == want_ids.tolist()
            assert scores.tolist() == want_scores.tolist()
    assert service.endpoint_stats["recommend"].batches == 1


def test_failing_feedback_in_a_coalesced_batch_fails_alone():
    """A self-loop reports its own error; the writes after it still apply."""
    service = make_service(flush_interval=5.0, compaction_threshold=0)
    entered, release = gate_feedback(service)
    edges = [(0, 5), (3, 3), (2, 3)]
    with ThreadPoolExecutor(max_workers=len(edges) + 1) as pool:
        first = pool.submit(service.feedback, 1, 6, "view")
        assert entered.wait(10.0)
        futures = []
        for u, v in edges:
            # One at a time, so the batch keeps this order.
            futures.append(pool.submit(service.feedback, u, v, "view"))
            wait_until(lambda: service.queue_depth == len(futures) + 1)
        release.set()
        first.result(10.0)
        with pytest.raises(ServiceError, match="itself"):
            futures[1].result(10.0)
        for future in (futures[0], futures[2]):
            assert future.result(10.0)["accepted"] is True
    assert service.endpoint_stats["feedback"].batches == 2
    assert service.view.has_edge(0, 5, "view")
    assert service.view.has_edge(2, 3, "view")
    assert not service.view.has_edge(3, 3, "view")
