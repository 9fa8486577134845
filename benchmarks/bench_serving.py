"""Micro-benchmarks: the batch serving engine vs the scalar references.

Each case times the ``_reference_*`` (pre-engine, one-source-at-a-time)
recommendation paths of :mod:`repro.verify.references` against
:class:`repro.serving.BatchServingEngine`
on the same workload and reports the speedup.  A second section
(``index_sweep``) scales a synthetic candidate pool to 10^6 vectors and
measures the IVF backend of :mod:`repro.serving.index` against the exact
brute-force oracle — search latency, recall@10, and candidates scored per
query.  The sweep uses i.i.d. Gaussian vectors, the *structureless worst
case* for approximate retrieval: real (trained) embedding tables cluster,
so sweep recall is a floor, not an estimate.  Run standalone (writes
``BENCH_serving.json``):

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--out PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import EmbeddingStore
from repro.datasets import load_dataset
from repro.experiments.profiles import get_profile
from repro.perf import Timer
from repro.serving import BatchServingEngine
from repro.verify.references import (
    _reference_ranked_candidates,
    _reference_recommend_batch,
    _reference_similar_nodes,
)


def _time(fn: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


def _case(name: str, reference: Callable[[], object],
          batched: Callable[[], object], repeats: int = 5) -> Dict[str, float]:
    reference_s = _time(reference, repeats)
    batched_s = _time(batched, repeats)
    return {
        "name": name,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup": reference_s / batched_s if batched_s > 0 else float("inf"),
    }


def _random_store(graph, dim: int = 32, seed: int = 0) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    return EmbeddingStore({
        relation: rng.standard_normal((graph.num_nodes, dim))
        for relation in graph.schema.relationships
    })


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def bench_recommend_batch(engine, sources, relation,
                          k: int) -> Dict[str, float]:
    """The acceptance-criterion case: batched top-K vs the scalar loop."""
    store, graph = engine.model, engine.graph
    return _case(
        "recommend_batch",
        lambda: _reference_recommend_batch(store, graph, sources, relation, k=k),
        lambda: engine.recommend_batch(sources, relation, k=k),
    )


def bench_similar_nodes(engine, nodes, relation, k: int) -> Dict[str, float]:
    store, graph = engine.model, engine.graph
    return _case(
        "similar_nodes",
        lambda: [
            _reference_similar_nodes(store, graph, int(n), relation, k=k)
            for n in nodes
        ],
        lambda: engine.similar_batch(nodes, relation, k=k),
    )


def bench_rank_sources(engine, sources, relation,
                       target_type: str) -> Dict[str, float]:
    """The ranking evaluator's per-source workload (full orderings)."""
    store, graph = engine.model, engine.graph
    return _case(
        "rank_sources",
        lambda: [
            _reference_ranked_candidates(store, graph, int(s), relation, target_type)
            for s in sources
        ],
        lambda: engine.rank_all(sources, relation, target_type=target_type),
    )


# ----------------------------------------------------------------------
# Index pool-scaling sweep
# ----------------------------------------------------------------------
def bench_index_sweep(smoke: bool, dim: int = 32, k: int = 10,
                      num_queries: int = 64, seed: int = 0,
                      sizes: Optional[List[int]] = None) -> Dict[str, object]:
    """Latency + recall@k of IVF vs exact search over growing pools."""
    from repro.serving.index import ExactIndex, IVFIndex

    if sizes is None:
        sizes = [4096, 32768] if smoke else [10_000, 100_000, 1_000_000]
    rng = np.random.default_rng(seed)
    pools = []
    for pool_size in sizes:
        vectors = rng.standard_normal((pool_size, dim))
        queries = rng.standard_normal((num_queries, dim))
        repeats = 3 if pool_size >= 500_000 else 5
        exact = ExactIndex(block_size=16).build(vectors)
        exact_s = _time(lambda: exact.search(queries, k), repeats)
        exact_ids = [set(ids.tolist()) for ids, _ in exact.search(queries, k)[0]]
        # nprobe grows with nlist (~sqrt(N)) to hold the probed fraction
        # near 10% (finer tuning trades recall against latency linearly).
        params = {"nprobe": max(16, int(round(np.sqrt(pool_size))) // 8)}
        index = IVFIndex(seed=seed, **params)
        with Timer() as build_timer:
            index.build(vectors)
        search_s = _time(lambda: index.search(queries, k), repeats)
        found, candidates = index.search(queries, k)
        recall = float(np.mean([
            len(exact_ids[j] & set(ids.tolist())) / k
            for j, (ids, _) in enumerate(found)
        ]))
        pools.append({
            "pool_size": pool_size,
            "exact": {
                "search_s": exact_s,
                "scored_per_query": pool_size,
            },
            "backends": {"ivf": {
                "params": params,
                "build_s": build_timer.elapsed,
                "search_s": search_s,
                "speedup_vs_exact": exact_s / search_s if search_s > 0 else float("inf"),
                "recall_at_k": recall,
                "scored_per_query": candidates // num_queries,
            }},
        })
    return {
        "dim": dim,
        "k": k,
        "num_queries": num_queries,
        "distribution": "iid standard normal (structureless ANN worst case)",
        "pools": pools,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_all(profile=None, smoke: bool = False) -> Dict[str, object]:
    """Run every case; ``smoke`` shrinks the workload for CI."""
    profile = profile or get_profile("smoke" if smoke else "")
    # Serving stresses pool size, so the graph is scaled up relative to the
    # training profiles (the reference path's cost is what's being measured;
    # tiny training-sized graphs leave nothing for the batch engine to
    # amortise).
    scale = profile.scale * (32.0 if smoke else 64.0)
    num_sources = 384 if smoke else 512
    k = 10
    dataset = load_dataset("taobao", scale=scale, seed=7)
    graph = dataset.graph
    relation = graph.schema.relationships[0]
    store = _random_store(graph)
    engine = BatchServingEngine(store, graph)

    degrees = graph.degrees(relation)
    sources = np.flatnonzero(degrees > 0)[:num_sources]
    target_type = graph.node_type(int(graph.neighbors(int(sources[0]), relation)[0]))
    probe_nodes = graph.nodes_of_type(target_type)[: max(16, num_sources // 4)]

    cases: List[Dict[str, float]] = [
        bench_recommend_batch(engine, sources, relation, k),
        bench_similar_nodes(engine, probe_nodes, relation, k),
        bench_rank_sources(
            engine, sources[: num_sources // 2], relation, target_type
        ),
    ]
    return {
        "profile": profile.name,
        "smoke": smoke,
        "graph": repr(graph),
        "cpu_count": os.cpu_count(),
        "settings": {
            "scale": scale, "num_sources": int(len(sources)), "k": k,
            "relation": relation,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "serving_stats": engine.latency_report(),
        "cases": {case["name"]: case for case in cases},
        "index_sweep": bench_index_sweep(smoke),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI workload (also selected by default "
                             "when $REPRO_PROFILE is unset)")
    parser.add_argument("--profile", default="",
                        help="profile name (default: $REPRO_PROFILE / smoke)")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
        help="output JSON path (default: <repo>/BENCH_serving.json)",
    )
    args = parser.parse_args(argv)

    results = run_all(get_profile(args.profile), smoke=args.smoke)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    print(f"profile: {results['profile']}  ({results['graph']})")
    for name, case in results["cases"].items():
        print(
            f"  {name:<16} {case['reference_s'] * 1e3:8.2f}ms -> "
            f"{case['batched_s'] * 1e3:7.2f}ms   {case['speedup']:6.1f}x"
        )
    sweep = results["index_sweep"]
    print(f"index sweep (dim={sweep['dim']}, k={sweep['k']}, "
          f"{sweep['num_queries']} queries):")
    for pool in sweep["pools"]:
        exact = pool["exact"]
        print(f"  pool {pool['pool_size']:>9,}  "
              f"exact {exact['search_s'] * 1e3:8.2f}ms")
    for pool in sweep["pools"]:
        for backend, entry in pool["backends"].items():
            print(
                f"  pool {pool['pool_size']:>9,}  {backend:<5} "
                f"{entry['search_s'] * 1e3:8.2f}ms  "
                f"{entry['speedup_vs_exact']:6.1f}x  "
                f"recall@{sweep['k']} {entry['recall_at_k']:.3f}  "
                f"scored/q {entry['scored_per_query']:,}  "
                f"(build {entry['build_s']:.1f}s)"
            )
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_recommend_batch_speedup():
    """Acceptance criterion: >= 10x on the batched recommendation path."""
    results = run_all(smoke=True)
    case = results["cases"]["recommend_batch"]
    print(f"\nrecommend_batch: {case['speedup']:.1f}x "
          f"({case['reference_s'] * 1e3:.1f}ms -> {case['batched_s'] * 1e3:.1f}ms)")
    assert case["speedup"] >= 10.0


def test_all_serving_cases_faster():
    results = run_all(smoke=True)
    for name, case in results["cases"].items():
        print(f"\n{name}: {case['speedup']:.1f}x")
        assert case["speedup"] > 1.0, case


if __name__ == "__main__":
    raise SystemExit(main())
