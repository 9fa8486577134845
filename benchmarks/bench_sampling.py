"""Micro-benchmarks: batched frontier sampling vs the scalar references.

Each case times the pre-frontier, one-walk-at-a-time ``_reference_*``
implementation (:mod:`repro.verify.references`) against the batched
frontier engine on the same workload and reports the speedup.  Run standalone via ``benchmarks/run_bench.py`` (writes
``BENCH_sampling.json``) or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_sampling.py -q
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.datasets import load_dataset
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.perf import Timer
from repro.sampling import (
    AliasTable,
    MetapathWalker,
    Node2VecWalker,
    UniformRandomWalker,
    context_pairs,
    relationship_walk_matrix,
)
from repro.verify.references import (
    _reference_context_pairs,
    _reference_metapath_walk,
    _reference_node2vec_walk,
    _reference_uniform_walk,
    _reference_walks,
)


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


def _case(name: str, reference: Callable[[], object],
          batched: Callable[[], object], repeats: int = 3) -> Dict[str, float]:
    reference_s = _time(reference, repeats)
    batched_s = _time(batched, repeats)
    return {
        "name": name,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "speedup": reference_s / batched_s if batched_s > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _reference_uniform_walks(graph, num_walks: int, length: int) -> List[List[int]]:
    return _reference_walks(_reference_uniform_walk, UniformRandomWalker(graph, rng=0),
                            np.arange(graph.num_nodes), num_walks, length)


def bench_uniform_walks(graph, num_walks: int, length: int) -> Dict[str, float]:
    return _case(
        "uniform_walks",
        lambda: _reference_uniform_walks(graph, num_walks, length),
        lambda: UniformRandomWalker(graph, rng=0).walks_matrix(num_walks, length),
    )


def bench_metapath_walks(dataset, num_walks: int, length: int) -> Dict[str, float]:
    graph = dataset.graph
    relation = graph.schema.relationships[0]
    scheme = dataset.schemes_for(relation)[0]
    return _case(
        "metapath_walks",
        lambda: _reference_walks(_reference_metapath_walk, MetapathWalker(graph, scheme, rng=0),
                                 graph.nodes_of_type(scheme.start_type), num_walks, length),
        lambda: MetapathWalker(graph, scheme, rng=0).walks_matrix(num_walks, length),
    )


def bench_node2vec_walks(graph, num_walks: int, length: int) -> Dict[str, float]:
    return _case(
        "node2vec_walks",
        lambda: _reference_walks(_reference_node2vec_walk,
                                 Node2VecWalker(graph, p=2.0, q=0.5, rng=0),
                                 np.arange(graph.num_nodes), num_walks, length),
        lambda: Node2VecWalker(graph, p=2.0, q=0.5, rng=0).walks_matrix(num_walks, length),
        repeats=2,
    )


def bench_context_pairs(graph, num_walks: int, length: int,
                        window: int) -> Dict[str, float]:
    walker = UniformRandomWalker(graph, rng=0)
    matrix, lengths = walker.walks_matrix(num_walks, length)
    walk_lists = [row[:n] for row, n in zip(matrix.tolist(), lengths.tolist())]
    return _case(
        "context_pairs",
        lambda: _reference_context_pairs(walk_lists, window),
        lambda: context_pairs((matrix, lengths), window),
    )


def bench_walks_plus_pairs(graph, num_walks: int, length: int,
                           window: int) -> Dict[str, float]:
    """The acceptance-criterion case: full walk + pair generation pipeline."""

    def reference():
        return _reference_context_pairs(
            _reference_uniform_walks(graph, num_walks, length), window
        )

    def batched():
        matrix, lengths = UniformRandomWalker(graph, rng=0).walks_matrix(
            num_walks, length
        )
        return context_pairs((matrix, lengths), window)

    return _case("walks_plus_pairs", reference, batched)


def bench_generate_pairs(dataset, num_walks: int, length: int,
                         window: int) -> Dict[str, float]:
    """The trainer's per-epoch sampling workload: all relationships' schemes."""
    graph = dataset.graph
    schemes = dataset.all_schemes()

    def reference():
        for relation in graph.schema.relationships:
            adjacency = None
            walks: List[List[int]] = []
            for scheme in schemes.get(relation, []):
                walker = MetapathWalker(graph, scheme, rng=0, adjacency=adjacency)
                adjacency = walker._adjacency
                walks.extend(_reference_walks(
                    _reference_metapath_walk, walker,
                    graph.nodes_of_type(scheme.start_type), num_walks, length,
                ))
            walks = [walk for walk in walks if len(walk) > 1]
            _reference_context_pairs(walks, window)

    def batched():
        for relation in graph.schema.relationships:
            matrix, lengths = relationship_walk_matrix(
                graph, schemes.get(relation, []), num_walks, length, rng=0
            )
            keep = lengths > 1
            context_pairs((matrix[keep], lengths[keep]), window)

    return _case("generate_pairs", reference, batched)


def bench_alias_build(n: int = 50_000) -> Dict[str, float]:
    weights = np.random.default_rng(0).random(n) ** 2

    def reference():
        # The pre-vectorisation construction: Python list-comprehension
        # partition plus numpy scalar indexing in the pairing loop.
        probs = weights * (n / weights.sum())
        prob = np.zeros(n)
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if probs[i] < 1.0]
        large = [i for i in range(n) if probs[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = probs[s]
            alias[s] = l
            probs[l] = probs[l] - (1.0 - probs[s])
            if probs[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in large + small:
            prob[i] = 1.0
        return prob, alias

    return _case("alias_build", reference, lambda: AliasTable(weights))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_all(profile: ExperimentProfile = None) -> Dict[str, object]:
    """Run every case under ``profile`` (default: $REPRO_PROFILE / smoke)."""
    profile = profile or get_profile()
    trainer = profile.trainer
    dataset = load_dataset("taobao", scale=profile.scale, seed=7)
    graph = dataset.graph
    num_walks, length, window = (
        trainer.num_walks, trainer.walk_length, trainer.window
    )
    cases: List[Dict[str, float]] = [
        bench_uniform_walks(graph, num_walks, length),
        bench_metapath_walks(dataset, num_walks, length),
        bench_node2vec_walks(graph, num_walks, length),
        bench_context_pairs(graph, num_walks, length, window),
        bench_walks_plus_pairs(graph, num_walks, length, window),
        bench_generate_pairs(dataset, num_walks, length, window),
        bench_alias_build(),
    ]
    return {
        "profile": profile.name,
        "graph": repr(graph),
        "settings": {
            "num_walks": num_walks, "walk_length": length, "window": window,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cases": {case["name"]: case for case in cases},
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_walks_plus_pairs_speedup(profile):
    """Acceptance criterion: >= 10x on the walk + context-pair pipeline."""
    dataset = load_dataset("taobao", scale=profile.scale, seed=7)
    result = bench_walks_plus_pairs(
        dataset.graph, profile.trainer.num_walks,
        profile.trainer.walk_length, profile.trainer.window,
    )
    print(f"\nwalks_plus_pairs: {result['speedup']:.1f}x "
          f"({result['reference_s'] * 1e3:.1f}ms -> {result['batched_s'] * 1e3:.1f}ms)")
    assert result["speedup"] >= 10.0


def test_batched_walkers_faster(profile):
    dataset = load_dataset("taobao", scale=profile.scale, seed=7)
    trainer = profile.trainer
    for result in (
        bench_uniform_walks(dataset.graph, trainer.num_walks, trainer.walk_length),
        bench_metapath_walks(dataset, trainer.num_walks, trainer.walk_length),
        bench_node2vec_walks(dataset.graph, trainer.num_walks, trainer.walk_length),
    ):
        print(f"\n{result['name']}: {result['speedup']:.1f}x")
        assert result["speedup"] > 1.0, result


def test_alias_build_faster():
    result = bench_alias_build()
    print(f"\nalias_build: {result['speedup']:.1f}x")
    assert result["speedup"] > 1.0, result
