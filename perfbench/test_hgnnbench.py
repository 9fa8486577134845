"""Tests of the benchmark harness itself, on synthetic spans and samples.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hgnnbench import record, report, stats, tracing  # noqa: E402
from hgnnbench.tracing import Span  # noqa: E402


# -- percentile rule -----------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (5000, 99.0),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 1) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_failures_miss_every_latency_limit():
    log = stats.OpLog()
    for seconds in (0.001, 0.002, 0.003):
        log.record(seconds, work=10)
    log.record_failure()
    assert stats.percentile(log.latencies, 50) == 0.002
    assert stats.percentile(log.latencies, 99) == math.inf


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, median, q3 = 9.5, 10.0, 10.5
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / median)


# -- closed-loop accounting -------------------------------------------------
def test_oplog_counts_attempts_failures_and_completed_work():
    log = stats.OpLog()
    log.record(0.5, work=256, kind="step")
    log.record(0.5, work=128, kind="step")
    log.record_failure(kind="step")
    log.elapsed = 2.0
    assert (log.attempted, log.failed) == (3, 1)
    assert log.throughput == pytest.approx(384 / 2.0)
    assert log.finite_mean() == pytest.approx(0.5)
    assert log.kinds == {"step": 3}


def test_oplog_merge_of_concurrent_clients():
    reads, writes = stats.OpLog(), stats.OpLog()
    reads.record(0.001, kind="recommend")
    writes.record(0.002, kind="feedback")
    writes.record_failure(kind="feedback")
    reads.merge(writes)
    reads.elapsed = 1.0
    assert (reads.attempted, reads.failed) == (3, 1)
    assert reads.throughput == 2.0
    assert reads.kinds == {"recommend": 1, "feedback": 2}


def test_windowed_throughput_is_the_median_slice():
    log = stats.OpLog()
    # 100 ops/s for four seconds, then a one-second stall with 10 ops.
    for i in range(400):
        log.record(0.01, at=100.0 + (i + 0.5) / 100)
    for i in range(10):
        log.record(0.1, at=104.0 + (i + 0.5) / 10)
    log.elapsed = 5.0
    assert log.throughput == pytest.approx(410 / 5.0)
    log.slice_windows(100.0, 1.0)
    assert [work for work, _ in log.windows] == [100, 100, 100, 100, 10]
    assert log.throughput == pytest.approx(100.0)


def test_throughput_needs_elapsed_time():
    with pytest.raises(ValueError):
        stats.OpLog().throughput


# -- self time ------------------------------------------------------------
def span(name, start, end, parent=None, op=None, info=None, thread=1):
    item = Span(name, start, parent, op, thread, info)
    item.end = end
    return item


def test_self_time_subtracts_direct_children_only():
    root = span("op.step", 0.0, 10.0, op=0)
    first = span("a", 1.0, 4.0, root, op=0)
    second = span("b", 5.0, 9.0, root, op=0)
    nested = span("c", 6.0, 7.0, second, op=0)
    own = tracing.self_times([root, first, second, nested])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(first)] == pytest.approx(3.0)
    assert own[id(second)] == pytest.approx(3.0)
    assert own[id(nested)] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_layer_totals_filter_by_operation():
    step = span("op.step", 0.0, 4.0, op=0)
    inside = span("nn.backward", 1.0, 3.0, step, op=0)
    outside = span("nn.backward", 5.0, 6.0, op=None)
    totals = tracing.layer_totals([step, inside, outside], ops={0})
    assert totals["nn.backward"] == (1, pytest.approx(2.0))
    assert tracing.layer_totals([step, inside, outside])["nn.backward"][0] == 2


def test_request_wait_uses_the_engine_call_that_served_it():
    # Reader's request is flushed by the writer's thread in one engine call.
    leader = span("op.request", 0.0, 4.0, op=0,
                  info=("recommend", "buy", (7,)), thread=1)
    call = span("serving.topk", 1.0, 3.0, leader, op=0,
                info=("buy", (7, 9)), thread=1)
    follower = span("op.request", 0.5, 3.5, op=1,
                    info=("recommend", "buy", (9,)), thread=2)
    write = span("op.request", 5.0, 8.0, op=2,
                 info=("feedback", "buy", (1, 2)), thread=1)
    edge = span("serving.deltas.add_edge", 6.0, 7.0, write, op=2, thread=1)
    waits = tracing.request_waits([leader, call, follower, write, edge])
    assert waits == pytest.approx([2.0, 1.0, 2.0])


def test_tracer_records_nesting_and_operation_ids():
    tracer = tracing.Tracer()
    with tracer.op("step"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    with tracer.span("loose"):
        pass
    spans = {s.name: s for s in tracer.spans()}
    assert spans["inner"].parent is spans["outer"]
    assert spans["outer"].parent is spans["op.step"]
    assert spans["inner"].op == spans["op.step"].op == 0
    assert spans["loose"].op is None
    assert tracer.ops == {0: "step"}


def test_install_wraps_and_uninstall_restores_public_callables():
    from repro.nn.optim import Adam, Optimizer
    from repro.serving.deltas import DeltaGraphView

    csr = DeltaGraphView.csr
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert DeltaGraphView.csr is not csr
        assert "zero_grad" in Adam.__dict__
    finally:
        tracer.uninstall()
    assert DeltaGraphView.csr is csr
    assert "zero_grad" not in Adam.__dict__
    assert Adam.zero_grad is Optimizer.zero_grad


def test_coverage_flags_a_missing_layer():
    untraced = stats.OpLog(latencies=[0.010] * 20)
    covered = {"trace.overhead_ms": 0.5, "trace.unattributed_ms": 0.3}
    assert report.coverage(covered, untraced)[0]
    missing = {"trace.overhead_ms": 0.5, "trace.unattributed_ms": 4.0}
    assert not report.coverage(missing, untraced)[0]


# -- fingerprints ------------------------------------------------------------
def test_fingerprint_sees_values_dtype_shape_and_order():
    base = record.Fingerprint().add_array(np.arange(6)).hexdigest()
    assert base == record.Fingerprint().add_array(np.arange(6)).hexdigest()
    changed = np.arange(6)
    changed[3] = 99
    assert record.Fingerprint().add_array(changed).hexdigest() != base
    assert record.Fingerprint().add_array(np.arange(6, dtype=np.int32)).hexdigest() != base
    assert record.Fingerprint().add_array(np.arange(6).reshape(2, 3)).hexdigest() != base
    ab = record.Fingerprint().add_text("a").add_text("b").hexdigest()
    assert ab != record.Fingerprint().add_text("b").add_text("a").hexdigest()
    assert ab != record.Fingerprint().add_text("ab").hexdigest()


def test_graph_and_input_fingerprints():
    edges = {"buy": (np.array([0, 1]), np.array([2, 3]))}
    graph = SimpleNamespace(
        node_type_codes=np.array([0, 0, 1, 1]),
        schema=SimpleNamespace(relationships=["buy"]),
        edges=lambda relation: edges[relation],
    )
    digest = record.graph_fingerprint(graph)
    edges["buy"] = (np.array([0, 1]), np.array([3, 2]))
    assert record.graph_fingerprint(graph) != digest
    batches = [("buy", np.array([[0, 2]]))]
    assert record.batches_fingerprint(batches) != record.batches_fingerprint(
        [("view", np.array([[0, 2]]))])
    op = SimpleNamespace(op="feedback", relation="buy", nodes=(0, 4), k=10)
    assert record.trace_fingerprint([op]) != record.trace_fingerprint([])


# -- workload checks -----------------------------------------------------------
def test_expected_ingestion_replays_the_writer_trace():
    from hgnnbench.workloads import expected_ingestion

    base = {(0, 2)}
    graph = SimpleNamespace(
        num_nodes=4, has_edge=lambda u, v, r: (min(u, v), max(u, v)) in base)
    feedback = [
        (SimpleNamespace(relation="buy", nodes=(0, 3)), True),
        (SimpleNamespace(relation="buy", nodes=(0, 2)), False),   # base edge
        (SimpleNamespace(relation="buy", nodes=(1, 4)), True),    # cold node 4
        (SimpleNamespace(relation="buy", nodes=(3, 0)), False),   # delta duplicate
        (SimpleNamespace(relation="buy", nodes=(1, 5)), None),    # rejected
    ]
    found = expected_ingestion(graph, feedback, threshold=2)
    assert found["counters"] == {"edges_ingested": 2, "nodes_ingested": 1,
                                 "duplicates_dropped": 2, "compactions": 1}
    assert found["admitted"] == 4
    assert found["mismatched"] == 0


def test_benchmark_json_matches_the_harness():
    from hgnnbench.workloads import WORKLOADS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == report.PER_LAYER
    stored = json.loads((HERE / "fingerprints.json").read_text())
    assert sorted(stored) == sorted(WORKLOADS)
    import run

    assert run.NAMES == tuple(WORKLOADS)
