"""Auditor self-test: a deliberately mis-wired HybridGNN must be flagged.

:class:`MiswiredHybridGNN` seeds three graph-level defects that the
HybridGNN paper's ablations show would silently erase model capacity if
shipped:

* the stacked relationship-local embeddings (the metapath-level stage's
  ``(|R|, B, edge_dim)`` output) are ``detach()``-ed before relationship-
  level fusion.  The flows and the metapath-level attention hold one
  stacked parameter per unit for all relationships, so cutting that
  stack leaves every flow stack and the stacked attention without a
  gradient (C005 unreachable parameters + C006 dead subgraph) — exactly
  the "attention head that never trains" failure mode;
* a ``batch_gain`` parameter of shape ``(1, edge_dim)`` is multiplied
  into the relationship embeddings, stretching a size-1 axis across the
  symbolic batch dim (C003 suspicious broadcast);
* an ``orphan_bias`` parameter is registered but never used (C005).

``run_self_test`` audits both the stock and the mis-wired model on the
same tiny two-relationship graph: the stock model must come out clean in
strict mode, the mis-wired one must report all three defect classes with
the offending parameter names.  Exposed via
``python -m repro check-model --self-test`` and the tier-1 test suite.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.check.report import CheckReport
from repro.check.runner import NODE_TABLES, node_symbol, pick_batch_size
from repro.check.trace import trace
from repro.check.audit import audit_graph
from repro.utils.rng import SeedLike, as_rng, spawn_rng

__all__ = [
    "MiswiredHybridGNN",
    "build_miswired_report",
    "build_stock_report",
    "run_self_test",
]


def _tiny_graph():
    """Users 0-2, items 3-7, two overlapping relationships.

    Eight nodes: seven is the flows' stacked combine width (2 * edge_dim
    + 1), which :func:`~repro.check.runner.node_symbol` refuses as N.
    """
    from repro.graph.builder import GraphBuilder
    from repro.graph.schema import GraphSchema

    builder = GraphBuilder(GraphSchema(["user", "item"], ["view", "buy"]))
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 5)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6), (2, 7)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5), (0, 6), (1, 7)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


def _tiny_config():
    from repro.core.config import HybridGNNConfig

    return HybridGNNConfig(
        base_dim=4,
        edge_dim=3,
        metapath_fanouts=(2, 2),
        exploration_fanout=2,
        exploration_depth=1,
        eval_samples=1,
        num_negatives=2,
    )


def _tiny_schemes(graph):
    from repro.graph.schema import intra_relationship_schemes

    return intra_relationship_schemes(
        ("U-I-U",), graph.schema.relationships, {"U": "user", "I": "item"}
    )


def _make_miswired_class():
    # Deferred so importing repro.check does not pull in the model stack.
    from repro.core.model import HybridGNN
    from repro.nn.module import Parameter

    class MiswiredHybridGNN(HybridGNN):
        """HybridGNN with three seeded graph-level defects (see module doc)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.batch_gain = Parameter(np.ones((1, self.config.edge_dim)))
            self.orphan_bias = Parameter(np.zeros(self.config.edge_dim))

        def local_embeddings(self, nodes, wanted=None):
            # Defect: the flows' and metapath attention's gradient path is
            # severed for every relationship at once.
            local = super().local_embeddings(nodes, wanted).detach()
            # Defect: (|R|, B, d) * (1, d) stretches a size-1 axis across
            # the batch.
            return local * self.batch_gain

    return MiswiredHybridGNN


def _audit(model_cls, model_label: str, seed: SeedLike,
           graph=None) -> CheckReport:
    from repro.core.loss import skip_gram_loss

    rng = as_rng(seed)
    graph = _tiny_graph() if graph is None else graph
    config = _tiny_config()
    model = model_cls(graph, _tiny_schemes(graph), config, rng=spawn_rng(rng))
    batch_size = pick_batch_size(
        {config.base_dim, config.edge_dim, config.num_negatives, 2, 3, 4},
        graph.num_nodes,
        (2, 4),
    )
    nodes = rng.integers(0, graph.num_nodes, size=batch_size).astype(np.int64)
    contexts = rng.integers(0, graph.num_nodes, size=batch_size)
    negatives = rng.integers(
        0, graph.num_nodes, size=(batch_size, config.num_negatives)
    )

    with trace() as tracer:
        loss = None
        for relation in model.relations:
            embeddings = model(nodes, relation)
            rel_loss = skip_gram_loss(embeddings, model.context, contexts, negatives)
            loss = rel_loss if loss is None else loss + rel_loss
    named_params = list(model.named_parameters())
    symbols = {
        batch_size: "B",
        **node_symbol(graph.num_nodes, named_params, NODE_TABLES["HybridGNN"]),
    }
    root = tracer.index_of(loss)
    tracer.annotate_parameters(named_params)
    return audit_graph(
        tracer,
        root,
        symbols=symbols,
        exemptions=model.audit_exemptions(),
        model=model_label,
        dataset="tiny",
    )


def build_stock_report(seed: SeedLike = 0) -> CheckReport:
    """Audit the stock HybridGNN on the tiny graph (must be strict-clean)."""
    from repro.core.model import HybridGNN

    return _audit(HybridGNN, "HybridGNN", seed)


def build_miswired_report(seed: SeedLike = 0) -> CheckReport:
    """Audit the seeded mis-wired variant (must be flagged)."""
    return _audit(_make_miswired_class(), "MiswiredHybridGNN", seed)


def run_self_test(seed: SeedLike = 0) -> Tuple[bool, List[str], Dict[str, CheckReport]]:
    """Check that the auditor separates the stock and mis-wired models.

    Returns ``(ok, messages, reports)`` where ``messages`` describes every
    expectation that failed (empty when ``ok``).
    """
    stock = build_stock_report(seed)
    miswired = build_miswired_report(seed)
    messages: List[str] = []

    if not stock.passed(strict=True):
        for finding in stock.sorted_findings():
            if finding.severity in ("error", "warning"):
                messages.append(
                    f"stock model not clean: {finding.code} {finding.message}"
                )

    unreachable = {
        f.param
        for f in miswired.findings
        if f.code == "C005" and f.severity == "warning"
    }
    if "orphan_bias" not in unreachable:
        messages.append("mis-wired model: orphan_bias not reported unreachable (C005)")
    relation_params = {
        name for name in unreachable
        if name.startswith(("flows.", "metapath_attention."))
    }
    if not relation_params:
        messages.append(
            "mis-wired model: detached relationship's flow/attention parameters "
            "not reported unreachable (C005)"
        )
    if not any(f.code == "C003" for f in miswired.findings):
        messages.append("mis-wired model: batch_gain broadcast not reported (C003)")
    if not any(f.code == "C006" for f in miswired.findings):
        messages.append("mis-wired model: detached subgraph not reported dead (C006)")
    if any(f.severity == "error" for f in miswired.findings):
        messages.append(
            "mis-wired model: unexpected propagation errors (C001/C002) — the "
            "defects are wiring-level, shapes should still check"
        )

    reports = {"stock": stock, "miswired": miswired}
    return (not messages, messages, reports)
