"""Batched frontier walk engine.

Every walker in this package used to advance one walk at a time in a Python
loop, paying interpreter overhead per *step* even though the underlying CSR
primitives in :mod:`repro.sampling.adjacency` are vectorised.  This module
inverts the loop: keep a *frontier* of W concurrent walkers and advance all
of them with one vectorised CSR step per walk position, so the Python-level
cost is O(length) instead of O(walkers * length).

The engine is deliberately tiny: a driver (:func:`run_frontier`) plus the
padded-matrix representation it produces.  Walkers supply a *step function*

    step(nodes, position, walker_ids) -> (next_nodes, moved_mask)

which receives only the currently-alive frontier (``nodes``), the walk
position being filled (``position``, starting at 1) and the row indices of
those walkers in the full walk matrix (``walker_ids`` — stateful walkers
such as node2vec use these to look up per-walker history).  Walkers that
cannot move (``moved_mask`` False: no valid neighbor) are *masked out* of
the frontier instead of terminating the whole batch — exactly the early
exit of the scalar loops, but per-row.

Walk matrices are int64 arrays of shape ``(W, L)`` padded with
:data:`PAD` (-1) past each walk's end; ``lengths[w]`` gives the number of
valid entries in row ``w``.  This ``(matrix, lengths)`` pair is the one walk
format of the package: walkers return it, :func:`walk_rounds` stacks rounds
of it, and :func:`repro.sampling.context.context_pairs` consumes it.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

PAD = -1
"""Fill value for walk-matrix entries past a dead walker's last node."""

StepFn = Callable[[np.ndarray, int, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def run_frontier(
    starts: np.ndarray,
    length: int,
    step: StepFn,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance a frontier of walkers to produce a ``(W, L)`` walk matrix.

    Parameters
    ----------
    starts:
        Start node per walker, shape ``(W,)``.
    length:
        Maximum walk length L (number of nodes, including the start).
    step:
        ``step(nodes, position, walker_ids) -> (next_nodes, moved)`` — one
        vectorised transition for the alive frontier.  ``next_nodes`` and
        ``moved`` must have the same shape as ``nodes``; rows with ``moved``
        False are retired from the frontier.

    Returns
    -------
    (matrix, lengths):
        ``matrix`` is int64 of shape ``(W, length)`` padded with :data:`PAD`;
        ``lengths`` is int64 of shape ``(W,)`` with each walk's node count.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    num_walkers = starts.size
    matrix = np.full((num_walkers, max(length, 1)), PAD, dtype=np.int64)
    lengths = np.zeros(num_walkers, dtype=np.int64)
    if num_walkers == 0:
        return matrix, lengths
    matrix[:, 0] = starts
    lengths[:] = 1
    # ``alive`` holds matrix row ids still walking; ``current`` their nodes.
    alive = np.arange(num_walkers)
    current = starts.copy()
    for position in range(1, length):
        next_nodes, moved = step(current, position, alive)
        if not moved.all():
            alive = alive[moved]
            if alive.size == 0:
                break
            next_nodes = next_nodes[moved]
        matrix[alive, position] = next_nodes
        lengths[alive] += 1
        current = next_nodes
    return matrix, lengths


def walk_rounds(
    walk_matrix: Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    starts: np.ndarray,
    num_walks: int,
    length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``num_walks`` rounds of ``walk_matrix`` over a fresh permutation of
    ``starts`` each, stacked round by round into one ``(W, L)`` matrix.

    Each round permutes first and then walks, so a walker's generator sees
    the same call order whichever walker runs the rounds.  Every round
    yields a fixed ``(len(starts), max(length, 1))`` block
    (:func:`run_frontier`), so the output is preallocated once.
    """
    starts = np.asarray(starts)
    per_round = starts.shape[0]
    matrix = np.empty((num_walks * per_round, max(length, 1)), dtype=np.int64)
    lengths = np.empty(num_walks * per_round, dtype=np.int64)
    for walk_round in range(num_walks):
        block = slice(walk_round * per_round, (walk_round + 1) * per_round)
        matrix[block], lengths[block] = walk_matrix(rng.permutation(starts), length)
    return matrix, lengths


def concat_matrices(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack ``(matrix, lengths)`` pairs row-wise, repadding to a common width."""
    parts = [part for part in parts if part[0].shape[0]]
    if not parts:
        return np.full((0, 1), PAD, dtype=np.int64), np.zeros(0, dtype=np.int64)
    width = max(matrix.shape[1] for matrix, _ in parts)
    rows = sum(matrix.shape[0] for matrix, _ in parts)
    # One preallocated output filled by row slices: narrow parts land in
    # the left columns with the remainder already PAD, so the result is
    # bit-identical to pad-then-concatenate without the per-part copies.
    stacked = np.full((rows, width), PAD, dtype=np.int64)
    lengths = np.empty(rows, dtype=np.int64)
    row = 0
    for matrix, part_lengths in parts:
        stacked[row:row + matrix.shape[0], : matrix.shape[1]] = matrix
        lengths[row:row + matrix.shape[0]] = part_lengths
        row += matrix.shape[0]
    return stacked, lengths
