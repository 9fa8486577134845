"""Metric definitions and the per-layer figures computed from a trace."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from hgnnbench.stats import OpLog, percentile
from hgnnbench.tracing import ENGINE_LAYERS, Tracer, layer_totals, request_waits

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Self milliseconds per measured operation (step or request), by layer.
PER_OP_MS: Dict[str, Tuple[str, ...]] = {
    "sampling.negatives_ms": ("sampling.negatives",),
    "sampling.neighbors_ms": ("sampling.neighbors",),
    "core.flows_ms": ("core.flows",),
    "core.aggregate_ms": ("core.aggregate",),
    "core.metapath_attention_ms": ("core.metapath_attention",),
    "core.relationship_attention_ms": ("core.relationship_attention",),
    "core.forward_ms": ("core.forward",),
    "core.loss_ms": ("core.loss",),
    "nn.backward_ms": ("nn.backward",),
    "nn.optimizer_ms": ("nn.optimizer",),
    "serving.topk_ms": ("serving.topk",),
    "serving.similar_ms": ("serving.similar",),
    "serving.refresh_ms": ("serving.refresh",),
    "serving.deltas.csr_ms": ("serving.deltas.csr",),
    "serving.deltas.add_edge_ms": ("serving.deltas.add_edge",),
    "serving.deltas.compact_ms": ("serving.deltas.compact",),
}

#: Seconds per call (inclusive of nested layers), over the traced set-up
#: and phase: stages whose whole duration is what a user waits for.
PER_CALL_S: Dict[str, str] = {
    "datasets.generate_s": "datasets.generate",
    "datasets.split_s": "datasets.split",
    "sampling.walks_s": "sampling.walks",
    "sampling.pairs_s": "sampling.pairs",
    "core.batching_s": "core.batching",
    "eval.validation_s": "eval.validation",
    "serving.cache_fill_s": "serving.cache_fill",
}

#: Calls counted over the traced phase.
CALL_COUNTS: Dict[str, str] = {
    "serving.refresh_calls": "serving.refresh",
    "serving.deltas.csr_calls": "serving.deltas.csr",
    "serving.deltas.compactions": "serving.deltas.compact",
}

#: name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{name: ("ms", "lower") for name in PER_OP_MS},
    **{name: ("s", "lower") for name in PER_CALL_S},
    **{name: ("count", "lower") for name in CALL_COUNTS},
    "serving.service.wait_ms": ("ms", "lower"),
    "serving.service.batch_size_mean": ("count", "higher"),
    "serving.sources_per_call": ("count", "higher"),
    "serving.cache_miss_ratio": ("ratio", "lower"),
    "eval.embed_nodes_per_s": ("1/s", "higher"),
    "nn.backward_alloc_peak_mb": ("MB", "lower"),
    "nn.adam_useful_rows_ratio": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
}


def end_to_end(setup_times: Sequence[float], log: OpLog, rss_mb: float
               ) -> Dict[str, float]:
    return {
        "setup_s": percentile(setup_times, 50),
        "throughput_per_s": log.throughput,
        "latency_p50_ms": percentile(log.latencies, 50) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer: Tracer, op_kind: str, untraced: OpLog, traced: OpLog,
                  service=None) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics plus the per-operation breakdown ``(layer, ms)``.

    The breakdown lists every layer's self milliseconds per operation,
    then the request wait and the unattributed remainder; together they
    sum to the traced mean operation time.
    """
    spans = tracer.spans()
    ops = {op for op, kind in tracer.ops.items() if kind == op_kind}
    per_op = layer_totals(spans, ops)
    count = max(1, len(ops))
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    def ms_per_op(layers: Sequence[str]) -> float:
        return sum(per_op.get(layer, (0, 0.0))[1] for layer in layers) / count * 1e3

    for name, layers in PER_OP_MS.items():
        metrics[name] = ms_per_op(layers)
    for name, layer in PER_CALL_S.items():
        durations = [s.duration for s in spans if s.name == layer]
        metrics[name] = sum(durations) / len(durations) if durations else 0.0
    for name, layer in CALL_COUNTS.items():
        metrics[name] = float(per_op.get(layer, (0, 0.0))[0])

    root = "op." + op_kind
    root_ms = ms_per_op((root,))
    wait_ms = 0.0
    if op_kind == "request":
        waits = request_waits([s for s in spans if s.op in ops])
        wait_ms = sum(waits) / len(waits) * 1e3 if waits else 0.0
        engine = [s for s in spans if s.name in ENGINE_LAYERS and s.op in ops]
        if engine:
            metrics["serving.sources_per_call"] = (
                sum(len(s.info[1]) for s in engine) / len(engine)
            )
    metrics["serving.service.wait_ms"] = wait_ms
    if service is not None:
        cache = service.engine.cache
        metrics["serving.cache_miss_ratio"] = cache.misses / max(1, cache.hits + cache.misses)
        endpoints = service.stats_report()["endpoints"].values()
        batches = sum(e["batches"] for e in endpoints)
        metrics["serving.service.batch_size_mean"] = (
            sum(e["requests"] for e in endpoints) / batches if batches else 0.0
        )
    fills = [s for s in spans if s.name == "eval.embed"]
    fill_seconds = sum(s.duration for s in fills)
    if fill_seconds > 0:
        metrics["eval.embed_nodes_per_s"] = sum(s.info for s in fills) / fill_seconds

    traced_ms = traced.finite_mean() * 1e3
    untraced_ms = untraced.finite_mean() * 1e3
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.unattributed_ms"] = root_ms - wait_ms

    breakdown = [(layer, ms_per_op((layer,))) for layer in sorted(
        {name for name in per_op if name != root})]
    if op_kind == "request":
        breakdown.append(("serving.service.wait", wait_ms))
    breakdown.append(("(unattributed)", root_ms - wait_ms))
    breakdown.sort(key=lambda item: -item[1])
    return metrics, breakdown


def coverage(metrics: Dict[str, float], untraced: OpLog, tolerance: float = 0.1
             ) -> Tuple[bool, float, float]:
    """Do the layers add up to the untraced operation time?

    The attributed time (traced mean minus the unattributed remainder)
    must match the untraced mean within the measured tracing overhead
    plus ``tolerance`` of the untraced mean for run-to-run noise.  A
    missing layer leaves its time unattributed and fails this.
    """
    untraced_ms = untraced.finite_mean() * 1e3
    overhead = metrics["trace.overhead_ms"]
    attributed = untraced_ms + overhead - metrics["trace.unattributed_ms"]
    slack = abs(overhead) + tolerance * untraced_ms
    return abs(attributed - untraced_ms) <= slack, attributed, untraced_ms


def format_value(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    return f"{value:.6g}"


def table(rows: Sequence[Tuple[str, float, str]], note: Optional[str] = None) -> str:
    width = max(len(name) for name, _, _ in rows)
    lines = [f"  {name:<{width}}  {format_value(value):>12} {unit}"
             for name, value, unit in rows]
    if note:
        lines.append(f"  ({note})")
    return "\n".join(lines)
