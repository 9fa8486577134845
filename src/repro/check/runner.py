"""Check-program builders: trace one training step per model and audit it.

For each supported model the runner constructs the module(s) exactly as
the training path does, records **one** forward + loss on a synthetic
batch, then audits the trace with the batch size symbolised as ``B`` and
the node-table extent as ``N``.  The traced program mirrors the real
objective — for HybridGNN the skip-gram loss is summed over *every*
relationship so the per-relationship output transforms and the shared
context table all participate, as they do across trainer steps.

The concrete batch size is chosen from a prime candidate list so it
collides with no architectural constant (dims, fanouts, negative counts,
relation counts, node counts); this makes value-based re-symbolisation
sound.  The batch always contains nodes of every type so every metapath
flow is exercised.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.check.audit import audit_graph
from repro.check.report import CheckReport
from repro.check.trace import Tracer, trace
from repro.errors import CheckError
from repro.utils.rng import SeedLike, as_rng, spawn_rng

__all__ = ["CHECKABLE_MODELS", "NODE_TABLES", "check_model", "node_symbol",
           "pick_batch_size"]

#: Models ``repro check-model`` can trace (HybridGNN + the GNN baselines).
CHECKABLE_MODELS: Tuple[str, ...] = ("HybridGNN", "GCN", "GraphSage", "R-GCN")

#: Per checkable model, the parameters whose axis 0 is indexed by node id:
#: the only parameter extents the ``N`` symbol may tag.
NODE_TABLES: Dict[str, Tuple[str, ...]] = {
    "HybridGNN": ("base.weight", "features.weight", "context.weight"),
    "GCN": ("x",),
    "R-GCN": ("x",),
    "GraphSage": ("features.weight",),
}

_BATCH_CANDIDATES: Tuple[int, ...] = (
    13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127,
)


def pick_batch_size(
    avoid: Iterable[int], num_nodes: int, fanout_products: Iterable[int] = ()
) -> int:
    """A batch size colliding with no model/graph constant.

    ``avoid`` lists concrete extents that appear in the trace for other
    reasons; ``fanout_products`` lists multipliers ``k`` such that a dim
    of extent ``B * k`` occurs (those must not alias ``num_nodes``).
    """
    avoid_set: Set[int] = {int(v) for v in avoid}
    avoid_set.add(int(num_nodes))
    products = sorted({int(k) for k in fanout_products} | {1})
    for candidate in _BATCH_CANDIDATES:
        if candidate in avoid_set:
            continue
        if any(candidate * k == num_nodes for k in products):
            continue
        return candidate
    raise CheckError(
        f"no usable batch size among {_BATCH_CANDIDATES} for num_nodes={num_nodes}"
    )


def node_symbol(
    num_nodes: int,
    named_params: Iterable[Tuple[str, object]],
    node_tables: Iterable[str],
) -> Dict[int, str]:
    """``{num_nodes: "N"}`` once no architectural extent equals it.

    Dims are symbolised by value, so ``N`` is sound only when
    ``num_nodes`` is the extent of node-table rows alone.  Any other
    parameter extent equal to it (a hidden width, a stacked weight's
    bias row, ...) would render as ``N`` too; that raises a
    :class:`CheckError` naming the colliding parameters, as
    :func:`pick_batch_size` refuses a batch size that aliases one.
    """
    tables = set(node_tables)
    collisions = [
        f"{name} {tuple(np.shape(param.data))} axis {axis}"
        for name, param in named_params
        for axis, extent in enumerate(np.shape(param.data))
        if extent == num_nodes and not (axis == 0 and name in tables)
    ]
    if collisions:
        raise CheckError(
            f"num_nodes={num_nodes} equals an architectural extent, so the "
            f"node symbol N would also tag: {'; '.join(collisions)}; check "
            "a graph whose node count matches no parameter dim"
        )
    return {int(num_nodes): "N"}


def _mixed_type_batch(graph, batch_size: int, rng) -> np.ndarray:
    """A batch containing nodes of every type (so every flow runs)."""
    per_type: List[np.ndarray] = []
    for node_type in graph.schema.node_types:
        nodes = graph.nodes_of_type(node_type)
        if len(nodes):
            per_type.append(nodes)
    if not per_type:
        raise CheckError("graph has no nodes")
    picks: List[int] = []
    for nodes in per_type:
        picks.append(int(rng.choice(nodes)))
    remaining = batch_size - len(picks)
    if remaining < 0:
        raise CheckError(
            f"batch size {batch_size} smaller than number of node types {len(picks)}"
        )
    pool = np.concatenate(per_type)
    picks.extend(int(v) for v in rng.choice(pool, size=remaining, replace=True))
    batch = np.asarray(picks, dtype=np.int64)
    rng.shuffle(batch)
    return batch


def _cumulative_products(fanouts: Sequence[int]) -> List[int]:
    out: List[int] = []
    acc = 1
    for fanout in fanouts:
        acc *= int(fanout)
        out.append(acc)
    return out


def _finish(
    tracer: Tracer,
    loss,
    named_params: Sequence[Tuple[str, object]],
    batch_size: int,
    num_nodes: int,
    exemptions: Dict[str, str],
    model: str,
    dataset: str,
) -> CheckReport:
    symbols = {
        batch_size: "B",
        **node_symbol(num_nodes, named_params, NODE_TABLES[model]),
    }
    root = tracer.index_of(loss)
    tracer.annotate_parameters(named_params)
    return audit_graph(
        tracer,
        root,
        symbols=symbols,
        exemptions=exemptions,
        model=model,
        dataset=dataset,
    )


# ---------------------------------------------------------------------------
# Per-model programs
# ---------------------------------------------------------------------------


def _check_hybridgnn(dataset, config, seed: SeedLike) -> CheckReport:
    from repro.core.loss import skip_gram_loss
    from repro.core.model import HybridGNN

    rng = as_rng(seed)
    graph = dataset.graph
    model = HybridGNN(graph, dataset.all_schemes(), config, rng=spawn_rng(rng))
    avoid = set(
        [config.base_dim, config.edge_dim, config.num_negatives,
         len(model.relations), len(graph.schema.node_types)]
        + list(config.metapath_fanouts)
        + [config.exploration_fanout, config.exploration_depth]
    )
    products = _cumulative_products(config.metapath_fanouts) + _cumulative_products(
        [config.exploration_fanout] * config.exploration_depth
    )
    batch_size = pick_batch_size(avoid, graph.num_nodes, products)
    nodes = _mixed_type_batch(graph, batch_size, rng)
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
    return _finish(
        tracer,
        loss,
        list(model.named_parameters()),
        batch_size,
        graph.num_nodes,
        dict(model.audit_exemptions()),
        "HybridGNN",
        dataset.name,
    )


def _check_gcn(dataset, dim: int, seed: SeedLike) -> CheckReport:
    from repro.baselines.gcn import _GCNEncoder, normalized_adjacency
    from repro.core.loss import softplus

    rng = as_rng(seed)
    graph = dataset.graph
    src, dst = graph.merged_homogeneous_view()
    if len(src) == 0:
        raise CheckError("GCN check needs at least one edge")
    adjacency = normalized_adjacency(src, dst, graph.num_nodes)
    encoder = _GCNEncoder(graph.num_nodes, dim, dim, spawn_rng(rng))
    batch_size = pick_batch_size({dim}, graph.num_nodes)
    idx = rng.choice(len(src), size=min(batch_size, len(src)), replace=False)
    pos_u, pos_v = src[idx], dst[idx]
    neg_v = rng.integers(0, graph.num_nodes, size=len(idx))

    with trace() as tracer:
        embeddings = encoder(adjacency)
        pos_logit = (embeddings[pos_u] * embeddings[pos_v]).sum(axis=-1)
        neg_logit = (embeddings[pos_u] * embeddings[neg_v]).sum(axis=-1)
        loss = softplus(-pos_logit).mean() + softplus(neg_logit).mean()
    return _finish(
        tracer,
        loss,
        list(encoder.named_parameters()),
        len(idx),
        graph.num_nodes,
        {},
        "GCN",
        dataset.name,
    )


def _check_rgcn(dataset, dim: int, seed: SeedLike) -> CheckReport:
    from repro.baselines.rgcn import _RGCNEncoder, row_normalized_adjacency
    from repro.core.loss import softplus
    from repro.nn.module import Parameter

    rng = as_rng(seed)
    graph = dataset.graph
    relations = list(graph.schema.relationships)
    adjacencies = {}
    edge_lists = {}
    for rel in relations:
        src, dst = graph.edges(rel)
        adjacencies[rel] = row_normalized_adjacency(src, dst, graph.num_nodes)
        edge_lists[rel] = (src, dst)
    encoder = _RGCNEncoder(graph.num_nodes, relations, dim, spawn_rng(rng))
    # The DistMult diagonals live outside the encoder in ``RGCN.fit`` too.
    rel_diag = {rel: Parameter(np.zeros(dim)) for rel in relations}
    active = [rel for rel in relations if len(edge_lists[rel][0]) > 0]
    if not active:
        raise CheckError("R-GCN check needs at least one edge")
    batch_size = pick_batch_size({dim, len(relations)}, graph.num_nodes)

    with trace() as tracer:
        embeddings = encoder(adjacencies)
        loss = None
        for rel in active:
            src, dst = edge_lists[rel]
            take = min(batch_size, len(src))
            idx = rng.choice(len(src), size=take, replace=False)
            pos_u, pos_v = src[idx], dst[idx]
            neg_v = rng.integers(0, graph.num_nodes, size=take)
            scale = softplus(rel_diag[rel])
            pos_logit = (embeddings[pos_u] * embeddings[pos_v] * scale).sum(axis=-1)
            neg_logit = (embeddings[pos_u] * embeddings[neg_v] * scale).sum(axis=-1)
            rel_loss = softplus(-pos_logit).mean() + softplus(neg_logit).mean()
            loss = rel_loss if loss is None else loss + rel_loss
    named = list(encoder.named_parameters())
    named.extend((f"rel_diag.{rel}", param) for rel, param in rel_diag.items())
    inactive = sorted(set(relations) - set(active))
    exemptions = {
        f"rel_diag.{rel}": "relationship has no edges in this graph" for rel in inactive
    }
    for rel in inactive:
        exemptions[f"w_rel_1.{rel}*"] = "relationship has no edges in this graph"
        exemptions[f"w_rel_2.{rel}*"] = "relationship has no edges in this graph"
    return _finish(
        tracer,
        loss,
        named,
        batch_size,
        graph.num_nodes,
        exemptions,
        "R-GCN",
        dataset.name,
    )


def _check_graphsage(dataset, dim: int, seed: SeedLike) -> CheckReport:
    from repro.baselines.graphsage import _SageEncoder
    from repro.core.loss import softplus
    from repro.sampling.random_walk import _merged_csr

    rng = as_rng(seed)
    graph = dataset.graph
    src, dst = graph.merged_homogeneous_view()
    if len(src) == 0:
        raise CheckError("GraphSage check needs at least one edge")
    indptr, indices = _merged_csr(graph)
    fanouts = [5, 3]
    encoder = _SageEncoder(
        graph.num_nodes, dim, fanouts, indptr, indices, spawn_rng(rng)
    )
    batch_size = pick_batch_size(
        set(fanouts) | {dim}, graph.num_nodes, _cumulative_products(fanouts)
    )
    idx = rng.choice(len(src), size=min(batch_size, len(src)), replace=False)
    pos_u, pos_v = src[idx], dst[idx]
    neg_v = rng.integers(0, graph.num_nodes, size=len(idx))

    with trace() as tracer:
        emb_u = encoder(pos_u)
        emb_v = encoder(pos_v)
        emb_n = encoder(neg_v)
        pos_logit = (emb_u * emb_v).sum(axis=-1)
        neg_logit = (emb_u * emb_n).sum(axis=-1)
        loss = softplus(-pos_logit).mean() + softplus(neg_logit).mean()
    return _finish(
        tracer,
        loss,
        list(encoder.named_parameters()),
        len(idx),
        graph.num_nodes,
        {},
        "GraphSage",
        dataset.name,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_model(
    model: str = "HybridGNN",
    dataset: str = "taobao",
    scale: float = 0.25,
    seed: SeedLike = 0,
    profile: str = "smoke",
    config=None,
) -> CheckReport:
    """Trace one training step of ``model`` on ``dataset`` and audit it.

    ``config`` (a :class:`~repro.core.config.HybridGNNConfig`) overrides
    the profile's hyper-parameters for HybridGNN; baselines take their
    width from the profile's ``base_dim``.
    """
    from repro.datasets.zoo import load_dataset
    from repro.experiments.profiles import get_profile

    if model not in CHECKABLE_MODELS:
        raise CheckError(
            f"unknown checkable model {model!r}; available: {list(CHECKABLE_MODELS)}"
        )
    resolved_profile = get_profile(profile) if isinstance(profile, str) else profile
    ds = load_dataset(dataset, scale=scale, seed=seed)
    if model == "HybridGNN":
        hybrid_config = config if config is not None else resolved_profile.hybrid
        return _check_hybridgnn(ds, hybrid_config, seed)
    dim = resolved_profile.hybrid.base_dim
    if model == "GCN":
        return _check_gcn(ds, dim, seed)
    if model == "R-GCN":
        return _check_rgcn(ds, dim, seed)
    return _check_graphsage(ds, dim, seed)
