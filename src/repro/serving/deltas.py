"""Streaming graph ingestion: append-only edge deltas over a frozen CSR.

:class:`~repro.graph.multiplex.MultiplexHeteroGraph` is immutable by
design — every sampler and the serving engine rely on its CSR arrays never
moving.  A live recommender, however, receives new interactions (and brand
new users/items) continuously and must serve them *immediately*, not after
the next offline rebuild.  :class:`DeltaGraphView` reconciles the two:

- a frozen **base** graph plus per-relation **append-only delta buffers**
  (:class:`EdgeDeltaBuffer`) of edges accepted since the last compaction,
  and a list of node-type codes for nodes born after the base was built;
- merged **(CSR + delta) views** served through the same accessor surface
  the engine and :class:`~repro.serving.pools.CandidatePools` already use
  (``csr`` / ``neighbors`` / ``degrees`` / ``node_type_codes`` / ...), so
  a view drops into :class:`~repro.serving.engine.BatchServingEngine`
  unchanged;
- **compaction**: past a pending-edge threshold (or on demand) the deltas
  are folded into a freshly constructed base graph and the buffers reset.

Bit-identity contract (enforced by ``repro verify --suite service`` and
the C008 drift check in :mod:`repro.check.state`): the merged CSR returned
between compactions, and the base CSR after a compaction, are **bit
identical** to building a :class:`MultiplexHeteroGraph` from scratch over
the full edge list.  A rebuild runs ``_build_csr``: a stable argsort over
``[base_src, delta_src, base_dst, delta_dst]``.  So node ``u``'s
neighbor run lists every edge where ``u`` is ``src`` in arrival order,
then every edge where ``u`` is ``dst`` in arrival order.  The merged view
keeps each relation's ``(indptr, indices)`` and **splices** newly accepted
edges into it instead of re-sorting:

- edge ``(u, v)`` puts ``v`` at the end of ``u``'s as-source run, at old
  offset ``indptr[u] + src_count[u]`` (``src_count``: per-node count of
  base + delta appearances as ``src``), and ``u`` at the very end of
  ``v``'s run, at old offset ``indptr[v + 1]``;
- entries landing on the same old offset are ordered by (offset, owning
  node, arrival), a node's new as-source entries before its new reverse
  entries — the order the stable sort gives them;
- a node added by :meth:`DeltaGraphView.add_node` is a zero-degree row
  appended to ``indptr``.

Writes only append to a relation's delta buffer; the splice runs lazily
on that relation's next read, one vectorised pass of O(|E_r| + |V| +
k log k) for the k edges accepted since its previous read, with no
argsort over E_r.  Arrays already returned are never written in place.

Version clocks: ``version`` bumps on every accepted mutation (edge or
node), ``compactions`` counts folds.  Compaction listeners let the owning
service refresh the engine's topology
(:meth:`~repro.serving.engine.BatchServingEngine.refresh_topology`:
candidate pools, endpoint maps, resident
:class:`~repro.serving.index.VectorIndex` entries) exactly once per fold.

Reads may run on several threads at once, but a mutation (``add_node``,
``add_edge``, ``compact``) must not run beside any other call: the
request layer (:class:`repro.serving.service.RecommendService`) runs
writes under the exclusive side of its execution lock and reads under the
shared side.  The one thing reads write, the lazily spliced merged CSR,
has its own lock, ``_csr_lock``; the merged node-type codes are rebuilt
eagerly by the writes that change them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import GraphError, SchemaError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.utils.concurrency import checked_lock, register_shared_region

__all__ = [
    "EdgeDeltaBuffer",
    "DeltaGraphView",
]

_EMPTY_EDGES = np.empty(0, dtype=np.int64)


class EdgeDeltaBuffer:
    """Append-only buffer of one relation's edges accepted since compaction.

    Stores each accepted undirected edge once, in arrival order (the order
    a from-scratch rebuild would see them in), plus a normalised-pair set
    for O(1) duplicate rejection against *other pending deltas* — base
    duplicates are rejected by the owning view via ``has_edge``.
    """

    def __init__(self, relation: str):
        self.relation = relation
        self._src: List[int] = []
        self._dst: List[int] = []
        self._pairs: set = set()

    def __len__(self) -> int:
        return len(self._src)

    def contains(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._pairs

    def append(self, u: int, v: int) -> None:
        """Record the edge; the caller has already validated it."""
        self._src.append(u)
        self._dst.append(v)
        self._pairs.add((min(u, v), max(u, v)))

    def arrays(self, start: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) in arrival order, from the ``start``-th edge on."""
        if start >= len(self._src):
            return _EMPTY_EDGES, _EMPTY_EDGES
        return (
            np.asarray(self._src[start:], dtype=np.int64),
            np.asarray(self._dst[start:], dtype=np.int64),
        )

    def clear(self) -> None:
        self._src.clear()
        self._dst.clear()
        self._pairs.clear()


class _MergedCSR(NamedTuple):
    """One relation's served merged CSR plus what extending it needs."""

    indptr: np.ndarray
    indices: np.ndarray
    src_count: np.ndarray   # per node: base + spliced delta edges as ``src``
    spliced: int            # delta edges already folded into the arrays


class DeltaGraphView:
    """A mutable serving view: frozen base graph + pending deltas.

    Parameters
    ----------
    base:
        The frozen training graph (or the previous compaction's output).
    compaction_threshold:
        Pending-edge count (summed over relations) at which
        :meth:`maybe_compact` folds the deltas into a new base.  ``0``
        disables automatic compaction (explicit :meth:`compact` only).
    """

    def __init__(self, base: MultiplexHeteroGraph, *,
                 compaction_threshold: int = 1024):
        self.base = base
        self.compaction_threshold = max(0, int(compaction_threshold))
        self._deltas: Dict[str, EdgeDeltaBuffer] = {
            relation: EdgeDeltaBuffer(relation)
            for relation in base.schema.relationships
        }
        self._new_type_codes: List[int] = []
        self._csr_lock = checked_lock("deltas._csr_lock")
        self._csr_region = register_shared_region(
            "deltas.merged_csr", guard="deltas._csr_lock",
            reason="per-relation merged CSR, spliced lazily by concurrent "
                   "reads",
        )
        self._merged_csr: Dict[str, _MergedCSR] = {}  # repro-lint: guarded-by=_csr_lock
        self._type_codes = self._merge_type_codes()
        self.version = 0        # bumps on every accepted mutation
        self.compactions = 0    # completed folds
        self.edges_ingested = 0
        self.nodes_ingested = 0
        self.duplicates_dropped = 0
        self._compaction_listeners: List[Callable[["DeltaGraphView"], None]] = []

    # ------------------------------------------------------------------
    # Schema / node surface (mirrors MultiplexHeteroGraph)
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self.base.schema

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes + len(self._new_type_codes)

    @property
    def num_edges(self) -> int:
        return self.base.num_edges + self.pending_edges

    def num_edges_in(self, relation: str) -> int:
        return self.base.num_edges_in(relation) + len(self._delta(relation))

    @property
    def pending_edges(self) -> int:
        """Edges accepted since the last compaction."""
        return sum(len(buffer) for buffer in self._deltas.values())

    @property
    def pending_nodes(self) -> int:
        """Nodes born since the last compaction."""
        return len(self._new_type_codes)

    @property
    def node_type_codes(self) -> np.ndarray:
        """int array: node id -> node-type index (read-only, merged)."""
        return self._type_codes

    def _merge_type_codes(self) -> np.ndarray:
        """Base codes plus the codes of nodes added since the last fold."""
        merged = np.concatenate([
            self.base.node_type_codes,
            np.asarray(self._new_type_codes, dtype=np.int64),
        ]) if self._new_type_codes else np.asarray(self.base.node_type_codes)
        merged.flags.writeable = False
        return merged

    def node_type(self, node: int) -> str:
        node = int(node)
        if node < self.base.num_nodes:
            return self.base.node_type(node)
        return self.schema.node_types[self.node_type_codes[node]]

    def nodes_of_type(self, node_type: str) -> np.ndarray:
        code = self.schema.node_type_index(node_type)
        return np.flatnonzero(self.node_type_codes == code)

    # ------------------------------------------------------------------
    # Adjacency surface (merged base + delta, rebuild-order identical)
    # ------------------------------------------------------------------
    def _delta(self, relation: str) -> EdgeDeltaBuffer:
        try:
            return self._deltas[relation]
        except KeyError:
            raise SchemaError(f"unknown relationship {relation!r}") from None

    def edges(self, relation: str) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) as a rebuild would store them: base first, then delta."""
        base_src, base_dst = self.base.edges(relation)
        delta_src, delta_dst = self._delta(relation).arrays()
        if not len(delta_src):
            return base_src, base_dst
        return (
            np.concatenate([base_src, delta_src]),
            np.concatenate([base_dst, delta_dst]),
        )

    def csr(self, relation: str) -> Tuple[np.ndarray, np.ndarray]:
        """Merged (indptr, indices) — bit-identical to a from-scratch build.

        Equal to what ``_build_csr`` over :meth:`edges` would return, so
        the neighbor order matches a cold restart exactly.  The arrays are
        cached per relation and extended by :meth:`_splice` when this
        relation has accepted edges (or the view has new nodes) since they
        were made; a write to another relation leaves them as they are.  A
        relation with no pending deltas serves the base arrays as-is (when
        no nodes were added — indptr length is ``num_nodes + 1``).
        """
        delta = self._delta(relation)
        if not len(delta) and not self._new_type_codes:
            return self.base.csr(relation)
        with self._csr_lock:
            merged = self._merged_csr.get(relation)
            if (merged is None or merged.spliced < len(delta)
                    or len(merged.indptr) <= self.num_nodes):
                merged = self._splice(relation, merged)
                with self._csr_region:
                    self._merged_csr[relation] = merged
        return merged.indptr, merged.indices

    def _splice(self, relation: str,
                merged: Optional[_MergedCSR]) -> _MergedCSR:
        """Fold new nodes and not-yet-spliced delta edges into new arrays.

        Starts from the base CSR after a compaction.  See the module
        docstring for where each entry goes; ``merged`` is not modified.
        """
        if merged is None:
            indptr, indices = self.base.csr(relation)
            base_src, _ = self.base.edges(relation)
            merged = _MergedCSR(
                indptr, indices,
                np.bincount(base_src, minlength=self.base.num_nodes), 0,
            )
        indptr, indices, src_count, spliced = merged
        grow = self.num_nodes + 1 - len(indptr)
        if grow:
            indptr = np.concatenate([indptr, np.full(grow, indptr[-1])])
            src_count = np.concatenate(
                [src_count, np.zeros(grow, dtype=src_count.dtype)]
            )
        src, dst = self._delta(relation).arrays(start=spliced)
        if len(src):
            # Entry j of (owners, values) is values[j] in owners[j]'s run:
            # each edge's as-source entry, then its reverse entry.
            owners = np.concatenate([src, dst])
            values = np.concatenate([dst, src])
            offsets = np.concatenate(
                [indptr[src] + src_count[src], indptr[dst + 1]]
            )
            order = np.lexsort((np.arange(len(owners)), owners, offsets))
            indices = np.insert(indices, offsets[order], values[order])
            added = np.bincount(owners, minlength=self.num_nodes)
            indptr = indptr + np.concatenate([[0], np.cumsum(added)])
            src_count = src_count + np.bincount(src, minlength=self.num_nodes)
        return _MergedCSR(indptr, indices, src_count, spliced + len(src))

    def neighbors(self, node: int, relation: str) -> np.ndarray:
        indptr, indices = self.csr(relation)
        return indices[indptr[node]: indptr[node + 1]]

    def degree(self, node: int, relation: Optional[str] = None) -> int:
        if relation is not None:
            indptr, _ = self.csr(relation)
            return int(indptr[node + 1] - indptr[node])
        return sum(self.degree(node, rel) for rel in self.schema.relationships)

    def degrees(self, relation: Optional[str] = None) -> np.ndarray:
        if relation is not None:
            indptr, _ = self.csr(relation)
            return np.diff(indptr)
        total = np.zeros(self.num_nodes, dtype=np.int64)
        for rel in self.schema.relationships:
            total += self.degrees(rel)
        return total

    def has_edge(self, u: int, v: int, relation: str) -> bool:
        u, v = int(u), int(v)
        if u == v:
            return False
        if self._delta(relation).contains(u, v):
            return True
        if u < self.base.num_nodes and v < self.base.num_nodes:
            return self.base.has_edge(u, v, relation)
        return False

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_node(self, node_type: str) -> int:
        """Register a never-seen node; returns its (dense) id."""
        code = self.schema.node_type_index(node_type)
        self._new_type_codes.append(code)
        self._type_codes = self._merge_type_codes()
        self.nodes_ingested += 1
        self.version += 1
        return self.num_nodes - 1

    def add_edge(self, u: int, v: int, relation: str) -> bool:
        """Append the undirected edge (u, v); ``False`` for a duplicate.

        Raises :class:`GraphError` for self-loops and out-of-range
        endpoints (ids must already exist — register cold nodes through
        :meth:`add_node` first), mirroring the base constructor's
        validation.  Duplicates — against the base *or* the pending delta
        — are dropped silently (counted in ``duplicates_dropped``), the
        same semantics as :class:`~repro.graph.builder.GraphBuilder`.
        """
        u, v = int(u), int(v)
        delta = self._delta(relation)
        if u == v:
            raise GraphError(
                f"self-loops are not allowed (relationship {relation!r})"
            )
        if min(u, v) < 0 or max(u, v) >= self.num_nodes:
            raise GraphError(
                f"edge endpoint out of range for relationship {relation!r}: "
                f"({u}, {v}) with {self.num_nodes} nodes"
            )
        if self.has_edge(u, v, relation):
            self.duplicates_dropped += 1
            return False
        delta.append(u, v)
        self.edges_ingested += 1
        self.version += 1
        return True

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def add_compaction_listener(
        self, listener: Callable[["DeltaGraphView"], None]
    ) -> None:
        """Register ``listener(view)``, called after every completed fold."""
        self._compaction_listeners.append(listener)

    def should_compact(self) -> bool:
        return (
            self.compaction_threshold > 0
            and self.pending_edges >= self.compaction_threshold
        )

    def maybe_compact(self) -> bool:
        """Fold when past the threshold; ``True`` when a fold happened."""
        if not self.should_compact():
            return False
        self.compact()
        return True

    def compact(self) -> MultiplexHeteroGraph:
        """Fold pending deltas into a freshly built base graph.

        The new base is constructed through the ordinary
        :class:`MultiplexHeteroGraph` constructor over the merged node
        codes and edge lists — the same arrays :meth:`edges` serves — so
        its CSR, edge sets and typed node pools are exactly what a cold
        restart would build.  Buffers reset, ``compactions`` bumps, and
        compaction listeners fire (the service uses this to invalidate
        embedding caches and ANN indexes).
        """
        merged_edges = {
            relation: self.edges(relation)
            for relation in self.schema.relationships
        }
        self.base = MultiplexHeteroGraph(
            self.schema, self.node_type_codes, merged_edges
        )
        for buffer in self._deltas.values():
            buffer.clear()
        self._new_type_codes.clear()
        self._type_codes = self._merge_type_codes()
        with self._csr_lock, self._csr_region:
            self._merged_csr.clear()
        self.compactions += 1
        self.version += 1
        for listener in self._compaction_listeners:
            listener(self)
        return self.base

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Ingestion counters for reports and dashboards."""
        return {
            "version": self.version,
            "compactions": self.compactions,
            "edges_ingested": self.edges_ingested,
            "nodes_ingested": self.nodes_ingested,
            "duplicates_dropped": self.duplicates_dropped,
            "pending_edges": self.pending_edges,
            "pending_nodes": self.pending_nodes,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
        }

    def __repr__(self) -> str:
        return (
            f"DeltaGraphView(base={self.base!r}, pending_edges="
            f"{self.pending_edges}, pending_nodes={self.pending_nodes}, "
            f"compactions={self.compactions})"
        )
