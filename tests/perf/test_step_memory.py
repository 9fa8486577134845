"""Per-step memory of HybridGNN training does not grow with |V|.

One seeded batch is run through ``loss.backward()`` and ``Adam.step()``
on the ``taobao-xl`` alike at 3e4 and 1e5 nodes.  Row-sparse embedding
gradients and row-wise Adam touch O(batch) rows, so the tracemalloc peaks
of the two steps must stay within 1.25x of each other; a single |V|-row
scratch buffer at 1e5 nodes would break the bound.  The pair starts at
3e4 because the flows sample each hop over unique nodes: on a 3e3-node
graph a batch's sampled neighbourhoods still collide, so its step is
smaller for that reason, not because of |V|.  The bound is on bytes, not
time, so it is deterministic.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import HybridGNN, HybridGNNConfig
from repro.core.loss import skip_gram_loss
from repro.datasets import load_dataset, split_edges
from repro.nn.optim import Adam
from repro.sampling.negative import UnigramNegativeSampler

BATCH = 256


def step_peak_bytes(scale: float) -> int:
    """tracemalloc peak of backward + Adam step for one seeded batch."""
    dataset = load_dataset("taobao-xl", scale=scale, seed=0)
    graph = split_edges(dataset.graph, rng=0).train_graph
    model = HybridGNN(graph, dataset.all_schemes(), HybridGNNConfig(), rng=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    relation = graph.schema.relationships[0]
    src, dst = graph.edges(relation)
    pick = np.random.default_rng(0).choice(len(src), size=BATCH, replace=False)
    centers, contexts = src[pick], dst[pick]
    negatives = UnigramNegativeSampler(graph, rng=0).sample_like(
        contexts, model.num_negatives
    )
    loss = skip_gram_loss(model(centers, relation), model.context, contexts, negatives)
    optimizer.zero_grad()
    tracemalloc.start()
    try:
        loss.backward()
        optimizer.step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_peak_memory_flat_from_3e4_to_1e5_nodes():
    small, large = step_peak_bytes(0.03), step_peak_bytes(0.1)
    assert min(small, large) > 0
    ratio = max(small, large) / min(small, large)
    assert ratio <= 1.25, (
        f"per-step peak grew with |V|: {small / 2**20:.2f} MiB at 3e4 nodes, "
        f"{large / 2**20:.2f} MiB at 1e5 nodes ({ratio:.2f}x)"
    )
