"""Skip-gram context-pair extraction from walks (Sect. III-E).

The context of a node v_i on a walk S is C(v_i) = {v_k : |k - i| <= delta,
k != i} where delta is the window radius.  Training pairs are (center,
context) tuples; for multiplex training each pair carries the relationship
whose walk produced it.

Extraction is a pure numpy window gather over the padded walk matrix: every
(center position, window offset) cell is materialised by broadcasting and
the out-of-range / past-end cells are masked away.  The output rows are
ordered exactly like a nested loop over (walk, center position, context
position ascending), so they equal the scalar truth
:func:`repro.verify.references._reference_context_pairs` bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import SamplingError

# Rows processed per chunk; bounds the (rows, L, 2*window) scratch tensor.
_CHUNK_ROWS = 16_384


def _pairs_from_matrix(matrix: np.ndarray, lengths: np.ndarray,
                       window: int) -> np.ndarray:
    num_walks, max_len = matrix.shape
    offsets = np.concatenate(
        [np.arange(-window, 0), np.arange(1, window + 1)]
    )
    positions = np.arange(max_len)
    # context position per (center position, offset); clipped for safe gather
    context_pos = positions[:, None] + offsets[None, :]          # (L, 2w)
    gather_pos = np.clip(context_pos, 0, max_len - 1)
    chunks: List[np.ndarray] = []
    for start in range(0, num_walks, _CHUNK_ROWS):
        rows = matrix[start: start + _CHUNK_ROWS]
        row_len = lengths[start: start + _CHUNK_ROWS, None, None]  # (C, 1, 1)
        valid = (
            (context_pos[None, :, :] >= 0)
            & (context_pos[None, :, :] < row_len)
            & (positions[None, :, None] < row_len)
        )
        centers = np.broadcast_to(rows[:, :, None], valid.shape)[valid]
        contexts = rows[:, gather_pos][valid]
        chunks.append(np.stack([centers, contexts], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def context_pairs(walks: Tuple[np.ndarray, np.ndarray], window: int) -> np.ndarray:
    """Extract all (center, context) pairs within ``window`` of each other.

    ``walks`` is a ``(matrix, lengths)`` pair as the walkers return it
    (:mod:`repro.sampling.frontier`).  Returns an int array of shape
    (num_pairs, 2); empty and single-node walks contribute nothing.
    """
    if window <= 0:
        raise SamplingError(f"window must be positive, got {window}")
    matrix, lengths = walks
    if matrix.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    return _pairs_from_matrix(np.asarray(matrix, dtype=np.int64),
                              np.asarray(lengths, dtype=np.int64), window)
