"""node2vec's second-order biased random walk (Grover & Leskovec, 2016).

The transition from ``prev -> current`` to the next node x is reweighted by

    1/p  if x == prev           (return)
    1    if x is a neighbor of prev  (BFS-like)
    1/q  otherwise              (DFS-like)

The walk advances the whole frontier per position: candidate lists of all
alive walkers are flattened into one ragged array, the BFS-membership test
runs as one ``searchsorted`` against a global sorted edge-key array
(:meth:`Node2VecWalker._transition_weights`), and the per-walker weighted
draw is a segmented cumulative-sum inversion.  Frontiers of every size,
a single walker included, take this one step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.multiplex import MultiplexHeteroGraph
from repro.sampling.adjacency import step_uniform
from repro.sampling.frontier import run_frontier, walk_rounds
from repro.sampling.random_walk import _merged_csr
from repro.utils.rng import SeedLike, as_rng


class Node2VecWalker:
    """Biased walker over the type-erased graph.

    Parameters
    ----------
    p:
        Return parameter; larger p discourages immediately revisiting the
        previous node.
    q:
        In-out parameter; q > 1 biases towards BFS, q < 1 towards DFS.
    """

    def __init__(self, graph: MultiplexHeteroGraph, p: float = 1.0, q: float = 1.0,
                 rng: SeedLike = None):
        if p <= 0 or q <= 0:
            raise ValueError(f"p and q must be positive, got p={p}, q={q}")
        self.graph = graph
        self.p = p
        self.q = q
        self._rng = as_rng(rng)
        self._indptr, self._indices = _merged_csr(graph)
        self._num_nodes = graph.num_nodes
        # Sorted directed edge keys src * |V| + dst: membership of any batch
        # of (prev, candidate) pairs is one searchsorted.
        degrees = np.diff(self._indptr)
        src = np.repeat(np.arange(self._num_nodes, dtype=np.int64), degrees)
        self._edge_keys = np.sort(src * self._num_nodes + self._indices)

    def _neighbors(self, node: int) -> np.ndarray:
        return self._indices[self._indptr[node]: self._indptr[node + 1]]

    # ------------------------------------------------------------------
    # Second-order transition weights
    # ------------------------------------------------------------------
    def _transition_weights(
        self, prev: np.ndarray, current: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unnormalised weights of every walker's candidate next nodes.

        ``current`` must have at least one neighbor per walker.  Returns
        ``(candidates, weights, ends)``: the walkers' neighbor lists
        flattened one after another, their p/q weights, and where each
        walker's segment ends.
        """
        indptr, indices = self._indptr, self._indices
        degrees = indptr[current + 1] - indptr[current]
        total = int(degrees.sum())
        ends = np.cumsum(degrees)
        # Flattened ragged candidate lists of all walkers.
        flat_idx = np.repeat(indptr[current] - (ends - degrees), degrees) + np.arange(total)
        candidates = indices[flat_idx]
        prev_rep = np.repeat(prev, degrees)

        weights = np.ones(total)
        weights[candidates == prev_rep] = 1.0 / self.p
        keys = prev_rep * self._num_nodes + candidates
        pos = np.searchsorted(self._edge_keys, keys)
        pos = np.minimum(pos, len(self._edge_keys) - 1)
        found = self._edge_keys[pos] == keys
        far = ~found & (candidates != prev_rep)
        weights[far] = 1.0 / self.q
        return candidates, weights, ends

    def _biased_step(self, prev: np.ndarray,
                     current: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One second-order step for the whole frontier.

        Returns ``(next_nodes, moved)``; dead-end walkers keep their node
        with ``moved`` False.
        """
        degrees = self._indptr[current + 1] - self._indptr[current]
        moved = degrees > 0
        next_nodes = current.copy()
        active = np.flatnonzero(moved)
        if active.size == 0:
            return next_nodes, moved
        candidates, weights, ends = self._transition_weights(
            prev[active], current[active]
        )
        # Segmented weighted choice: invert the per-walker cumulative sums.
        seg_starts = ends - degrees[active]
        cumulative = np.cumsum(weights)
        seg_hi = cumulative[ends - 1]
        seg_lo = np.concatenate([[0.0], seg_hi[:-1]])
        targets = seg_lo + self._rng.random(active.size) * (seg_hi - seg_lo)
        choice = np.searchsorted(cumulative, targets, side="right")
        choice = np.clip(choice, seg_starts, ends - 1)
        next_nodes[active] = candidates[choice]
        return next_nodes, moved

    # ------------------------------------------------------------------
    def walk_matrix(self, starts: np.ndarray, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Biased walks from ``starts`` as a padded ``(W, L)`` matrix."""
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        prev = np.full(starts.size, -1, dtype=np.int64)

        def step(nodes: np.ndarray, position: int,
                 walker_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            if position == 1:
                next_nodes, moved = step_uniform(
                    self._indptr, self._indices, nodes, self._rng
                )
            else:
                next_nodes, moved = self._biased_step(prev[walker_ids], nodes)
            prev[walker_ids[moved]] = nodes[moved]
            return next_nodes, moved

        return run_frontier(starts, length, step)

    def walks_matrix(self, num_walks: int, length: int,
                     nodes: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """``num_walks`` rounds of biased walks from every node (or from
        ``nodes``) as one padded ``(W, L)`` matrix (:func:`walk_rounds`)."""
        if nodes is None:
            nodes = np.arange(self.graph.num_nodes)
        return walk_rounds(self.walk_matrix, self._rng, nodes, num_walks, length)
