"""Shared fixtures: small deterministic graphs, datasets and splits."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core import HybridGNNConfig, TrainerConfig
from repro.datasets import load_dataset, split_edges
from repro.graph import GraphBuilder, GraphSchema

# ``HYPOTHESIS_PROFILE=nightly`` (the nightly CI job) runs ten times the
# default profile's examples; tier-1 keeps the default.  Tests that pin
# ``max_examples`` scale it by ``settings.default.max_examples / 100``.
settings.register_profile("nightly", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_schema():
    """Two node types, two relationships (a minimal G3 network)."""
    return GraphSchema(["user", "item"], ["view", "buy"])


@pytest.fixture
def small_graph(small_schema):
    """A tiny hand-built multiplex graph.

    Users 0-2, items 3-6.  ``view`` is denser than ``buy`` and they overlap
    on (0, 3) — multiplexity.
    """
    builder = GraphBuilder(small_schema)
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


@pytest.fixture(scope="session")
def taobao_dataset():
    """A small Taobao-alike shared across tests (session-scoped: read-only)."""
    return load_dataset("taobao", scale=0.25, seed=7)


@pytest.fixture(scope="session")
def taobao_split(taobao_dataset):
    return split_edges(taobao_dataset.graph, rng=8)


@pytest.fixture
def tiny_hybrid_config():
    return HybridGNNConfig(
        base_dim=8, edge_dim=4, metapath_fanouts=(3, 2, 2, 2, 2, 2),
        exploration_fanout=3, exploration_depth=1,
    )


@pytest.fixture
def tiny_trainer_config():
    return TrainerConfig(
        epochs=2, batch_size=128, num_walks=1, walk_length=6, window=2,
        patience=2,
    )
