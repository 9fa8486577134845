"""Randomized inter-relationship exploration (Sect. III-B, Eqs. 1-2).

This is the paper's first contribution: a two-phase sampler that crosses
relationship-specific subgraphs.  At a node v_t it

1. draws the next relationship r_{t+1} uniformly among the relationships
   under which v_t has at least one neighbor (Eq. 1), then
2. draws v_{t+1} uniformly from N_{r_{t+1}}(v_t) (Eq. 2).

The resulting path instances follow no predefined metapath scheme; they are
the P_rand aggregation flow of Eq. 4.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.multiplex import MultiplexHeteroGraph
from repro.sampling.adjacency import sample_uniform_neighbors
from repro.sampling.frontier import PAD, run_frontier
from repro.sampling.neighbor_sampler import Blocks, sample_blocks
from repro.utils.rng import SeedLike, as_rng


class RandomizedExploration:
    """Two-phase inter-relationship sampler over a multiplex graph."""

    def __init__(self, graph: MultiplexHeteroGraph, rng: SeedLike = None):
        self.graph = graph
        self._rng = as_rng(rng)
        relations = graph.schema.relationships
        # degree matrix D[v, r] = |N_r(v)|, used for the phase-1 choice.
        self._degree_matrix = np.stack(
            [graph.degrees(rel) for rel in relations], axis=1
        )
        self._csr = {rel: graph.csr(rel) for rel in relations}
        self._relations = relations

    # ------------------------------------------------------------------
    def transition_probabilities(self, node: int) -> np.ndarray:
        """p(r_{t+1} | v_t) for every relationship (Eq. 1)."""
        degrees = self._degree_matrix[node]
        active = degrees > 0
        probs = np.zeros(len(self._relations))
        if active.any():
            probs[active] = 1.0 / active.sum()
        return probs

    # ------------------------------------------------------------------
    def _choose_relations(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised phase 1: a relationship index per node (-1 if none)."""
        degrees = np.take(self._degree_matrix, nodes, axis=0)  # (batch, R)
        active = degrees > 0
        counts = active.sum(axis=1)
        # In-place scale: bit-identical draws, one less batch-sized
        # float64 temporary per step.
        scaled = self._rng.random(len(nodes))
        np.multiply(scaled, np.maximum(counts, 1), out=scaled)
        draws = scaled.astype(np.int64)
        cumulative = np.cumsum(active, axis=1)
        # First column where cumulative == draws + 1 and the column is active.
        target = (draws + 1)[:, None]
        hit = (cumulative == target) & active
        chosen = np.argmax(hit, axis=1)
        chosen[counts == 0] = -1
        return chosen

    def step(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One two-phase step for each node in ``nodes``.

        Returns ``(next_nodes, relation_indices)``; isolated nodes stay in
        place with relation index -1.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        chosen = self._choose_relations(nodes)
        next_nodes = nodes.copy()
        for rel_idx, relation in enumerate(self._relations):
            mask = chosen == rel_idx
            if not mask.any():
                continue
            indptr, indices = self._csr[relation]
            sampled = sample_uniform_neighbors(
                indptr, indices, nodes[mask], 1, self._rng
            )
            next_nodes[mask] = sampled[:, 0]
        return next_nodes, chosen

    # ------------------------------------------------------------------
    def walk_matrix(
        self, starts: np.ndarray, length: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched exploration walks via the frontier engine.

        Returns ``(matrix, lengths, relations)`` where ``relations[w, t]``
        is the relationship index used to reach ``matrix[w, t]`` (t >= 1;
        padded with -1 alongside the walk matrix).
        """
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        relations = np.full((starts.size, max(length, 1)), PAD, dtype=np.int64)

        def step(nodes: np.ndarray, position: int,
                 walker_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            next_nodes, chosen = self.step(nodes)
            moved = chosen >= 0
            relations[walker_ids[moved], position] = chosen[moved]
            return next_nodes, moved

        matrix, lengths = run_frontier(starts, length, step)
        return matrix, lengths, relations

    def sample_layers(self, nodes: np.ndarray, depth: int,
                      fanouts: List[int]) -> Blocks:
        """Fixed-size exploration neighborhoods for batched aggregation.

        Per-hop blocks (:mod:`repro.sampling.neighbor_sampler`): hop k
        takes ``fanouts[k]`` two-phase steps from each unique level-k
        node, so every entry of level k+1 is an inter-relationship
        neighbor of its parent.  These are the N^k_{P_rand}
        neighborhoods of Eq. 4.
        """
        if depth != len(fanouts):
            raise ValueError(f"need one fanout per level: depth={depth}, fanouts={fanouts}")

        def draw(hop: int, frontier: np.ndarray, fanout: int) -> np.ndarray:
            next_nodes, _ = self.step(np.repeat(frontier, fanout))
            return next_nodes.reshape(len(frontier), fanout)

        return sample_blocks(nodes, fanouts, [draw]).single()
