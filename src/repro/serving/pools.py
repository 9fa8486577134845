"""Precomputed candidate pools and schema-level target-type inference.

A serving request needs, per source node, the candidate set "every node of
the target type, minus the source, minus (optionally) its known neighbors".
Building that pool with Python sets per request is what makes the scalar
reference loop (:mod:`repro.verify.references`) slow;
:class:`CandidatePools` instead keeps one ascending id pool per node type
(extended as nodes arrive, never reordered) and lets the engine knock out
per-source exclusions via the graph's CSR adjacency.

The pools also own *target-type inference*: when a caller omits
``target_type``, the type is resolved from the source's existing neighbors
when it has any, and otherwise from the relationship's schema-level
endpoint-type map (the majority (source-type -> target-type) pairing over
the relation's edges).  A cold-start node therefore resolves to the same
pool as its warm peers instead of raising.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SchemaError
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.utils.concurrency import checked_lock, register_shared_region


def relation_endpoint_types(
    graph: MultiplexHeteroGraph, relation: str
) -> Dict[str, str]:
    """Majority (source node type -> target node type) map for ``relation``.

    Both directions of every undirected edge are counted, so the map answers
    "a node of type X querying this relation most often points at type Y".
    Empty when the relationship has no edges.
    """
    graph.schema.relationship_index(relation)
    src, dst = graph.edges(relation)
    names = graph.schema.node_types
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    if len(src):
        codes = graph.node_type_codes
        a, b = codes[src], codes[dst]
        np.add.at(counts, (a, b), 1)
        np.add.at(counts, (b, a), 1)
    return {
        names[s]: names[int(np.argmax(counts[s]))]
        for s in range(len(names))
        if counts[s].any()
    }


class CandidatePools:
    """Per-node-type candidate pools over a graph whose node set only grows.

    The per-type pools and pool positions are extended here, when the
    pools are built and on :meth:`refresh`, so concurrent readers only
    ever read them.  Endpoint maps (one pass over a relation's edges each)
    are built on first use under ``_lock``.
    """

    def __init__(self, graph: MultiplexHeteroGraph):
        self.graph = graph
        names = graph.schema.node_types
        self._num_nodes = 0
        self._type_pools: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in names
        }
        self._positions = np.empty((len(names), 0), dtype=np.int64)
        self._pool_positions: Dict[str, np.ndarray] = {}
        self._lock = checked_lock("serving.pools._lock")
        self._region = register_shared_region(
            "serving.pools", guard="serving.pools._lock",
            reason="endpoint-type maps, built lazily by concurrent reads",
        )
        self._endpoint_maps: Dict[str, Dict[str, str]] = {}  # repro-lint: guarded-by=_lock
        self._extend()

    def refresh(self) -> None:
        """Catch up with the graph after nodes arrived or edges were folded.

        Node ids are dense and only grow, so every new node is appended to
        its type's pool, which stays ascending; existing positions never
        move.  The endpoint maps are dropped, since new edges can change
        them.  A write: no read may run beside it.
        """
        self._extend()
        with self._lock, self._region:
            self._endpoint_maps.clear()

    def _extend(self) -> None:
        num_nodes = self.graph.num_nodes
        if num_nodes == self._num_nodes and self._pool_positions:
            return  # a compaction: no node arrived
        new = np.arange(self._num_nodes, num_nodes)
        codes = np.asarray(self.graph.node_type_codes)[new]
        positions = np.full((len(self._type_pools), num_nodes), -1, dtype=np.int64)
        positions[:, :self._num_nodes] = self._positions
        for code, name in enumerate(self.graph.schema.node_types):
            added = new[codes == code]
            old = self._type_pools[name]
            positions[code, added] = len(old) + np.arange(len(added))
            grown = np.concatenate([old, added])
            grown.flags.writeable = False
            self._type_pools[name] = grown
        positions.flags.writeable = False
        self._positions = positions
        for code, name in enumerate(self.graph.schema.node_types):
            self._pool_positions[name] = positions[code]
        self._num_nodes = num_nodes

    # ------------------------------------------------------------------
    @staticmethod
    def _per_type(table: Dict[str, np.ndarray], node_type: str) -> np.ndarray:
        try:
            return table[node_type]
        except KeyError:
            raise SchemaError(f"unknown node type {node_type!r}") from None

    def type_pool(self, node_type: str) -> np.ndarray:
        """Ascending node ids of ``node_type`` (read-only).

        The ascending order is load-bearing: pool *positions* then order the
        same way as node ids, so stable tie-breaks computed on positions
        translate unchanged to ids.  It is also the row order of the
        engine's per-type embedding blocks.
        """
        return self._per_type(self._type_pools, node_type)

    def pool_positions(self, node_type: str) -> np.ndarray:
        """(num_nodes,) map of node id -> position in :meth:`type_pool`.

        Nodes of other types map to -1 (read-only).
        """
        return self._per_type(self._pool_positions, node_type)

    def endpoint_map(self, relation: str) -> Dict[str, str]:
        """Cached :func:`relation_endpoint_types` for ``relation``."""
        with self._lock:
            if relation not in self._endpoint_maps:
                with self._region:
                    self._endpoint_maps[relation] = relation_endpoint_types(
                        self.graph, relation
                    )
            return self._endpoint_maps[relation]

    def target_type_for(self, source: int, relation: str) -> Optional[str]:
        """Resolve the candidate node type for ``source`` under ``relation``.

        Neighbor-first (preserving the historical behavior for warm nodes),
        falling back to the schema-level endpoint map for cold nodes.
        ``None`` when unresolvable (the relationship has no edges at all, or
        none touching the source's type) — callers treat that as an empty
        candidate pool, never an exception.
        """
        neighbors = self.graph.neighbors(int(source), relation)
        if len(neighbors):
            return self.graph.node_type(int(neighbors[0]))
        return self.endpoint_map(relation).get(self.graph.node_type(int(source)))

    # ------------------------------------------------------------------
    def valid_pool_matrix(
        self, sources: np.ndarray, relation: str, target_type: str,
        exclude_known: bool = True,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(len(sources), len(pool)) candidate mask for one target type.

        Returns ``(pool, valid)`` where ``pool`` is :meth:`type_pool` and
        row i of ``valid``, over pool *positions*, selects every node of
        ``target_type`` except ``sources[i]`` itself and, when
        ``exclude_known``, its current neighbors under ``relation``
        (knocked out via the CSR adjacency in one scatter).
        """
        sources = np.asarray(sources, dtype=np.int64)
        pool = self.type_pool(target_type)
        positions = self.pool_positions(target_type)
        valid = np.ones((len(sources), len(pool)), dtype=bool)
        source_pos = positions[sources]
        own = np.flatnonzero(source_pos >= 0)
        valid[own, source_pos[own]] = False
        if exclude_known and len(sources):
            indptr, indices = self.graph.csr(relation)
            starts, ends = indptr[sources], indptr[sources + 1]
            counts = ends - starts
            total = int(counts.sum())
            if total:
                # Ragged CSR slice gather, no per-source Python loop:
                # flat[i] walks each source's [start, end) run in turn.
                rows = np.repeat(np.arange(len(sources)), counts)
                run_starts = np.repeat(
                    starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                    counts,
                )
                cols = positions[indices[np.arange(total) + run_starts]]
                in_pool = cols >= 0
                valid[rows[in_pool], cols[in_pool]] = False
        return pool, valid

    def pool_exclusions(
        self, sources: np.ndarray, relation: str, target_type: str,
        exclude_known: bool = True,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Scatter-list form of :meth:`valid_pool_matrix`.

        Returns ``(pool, rows, cols)`` where ``(rows[i], cols[i])`` are the
        (source row, pool position) pairs to knock out.  The hot path
        scatters ``-inf`` into its score matrix with these instead of
        materialising a boolean mask, saving full-width passes per block.
        """
        sources = np.asarray(sources, dtype=np.int64)
        pool = self.type_pool(target_type)
        positions = self.pool_positions(target_type)
        source_pos = positions[sources]
        own = np.flatnonzero(source_pos >= 0)
        rows, cols = own, source_pos[own]
        if exclude_known and len(sources):
            indptr, indices = self.graph.csr(relation)
            starts, ends = indptr[sources], indptr[sources + 1]
            counts = ends - starts
            total = int(counts.sum())
            if total:
                nbr_rows = np.repeat(np.arange(len(sources)), counts)
                run_starts = np.repeat(
                    starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                    counts,
                )
                nbr_cols = positions[indices[np.arange(total) + run_starts]]
                in_pool = nbr_cols >= 0
                rows = np.concatenate([rows, nbr_rows[in_pool]])
                cols = np.concatenate([cols, nbr_cols[in_pool]])
        return pool, rows, cols
