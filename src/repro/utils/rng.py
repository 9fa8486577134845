"""Random-number-generator plumbing.

All stochastic components in the library accept either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalise it through
:func:`as_rng`.  This keeps every experiment reproducible end-to-end: a
single seed at the top level deterministically derives the seeds of each
subcomponent via :func:`spawn_rng`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence, Union

import numpy as np

SeedLike = Union[None, int, Sequence[int], np.random.Generator]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged, which lets callers
    thread one generator through a pipeline of components.  A sequence of
    ints is forwarded as a numpy entropy key, so call sites can derive
    independent streams from ``(seed, index)`` pairs without ad-hoc seed
    arithmetic.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    The child's stream is a deterministic function of the parent's state, so
    components seeded via ``spawn_rng`` stay reproducible while not sharing
    (and hence not perturbing) the parent's stream.

    The child is seeded from a single 63-bit draw, which is fine for the
    handful of sequential spawns the trainer makes but collision-prone when
    fanning out a large worker pool (birthday bound ~2^31.5 spawns; far
    worse, two children spawned from *equal* draws share a stream exactly).
    Worker pools must use :func:`spawn_rngs`, which derives children through
    ``numpy.random.SeedSequence`` spawn keys that are distinct by
    construction.  Kept bit-compatible: existing components seeded through
    this function reproduce their historical streams.
    """
    seed = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(seed)


def slice_rngs(rng, count: int) -> List[np.random.Generator]:
    """One generator per slice of a stacked parameter.

    ``rng`` may already be a list of ``count`` generators, one independent
    stream per slice; otherwise every slice draws from the single
    ``as_rng(rng)`` in turn.
    """
    if isinstance(rng, (list, tuple)) and rng and isinstance(rng[0], np.random.Generator):
        if len(rng) != count:
            raise ValueError(f"expected {count} slice generators, got {len(rng)}")
        return list(rng)
    return [as_rng(rng)] * count


@contextmanager
def preserved_streams(generators: Sequence[np.random.Generator]) -> Iterator[None]:
    """Run a block without advancing ``generators``.

    Their states are snapshotted on entry and restored on exit, so draws
    made inside the block leave every later draw unchanged.
    """
    states = [gen.bit_generator.state for gen in generators]
    try:
        yield
    finally:
        for gen, state in zip(generators, states):
            gen.bit_generator.state = state


def spawn_rngs(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators for a worker pool.

    One 128-bit entropy draw from ``rng`` seeds a
    :class:`numpy.random.SeedSequence`, whose ``spawn`` assigns each child a
    distinct spawn key — children can never collide with each other, no
    matter how many are spawned, unlike repeated :func:`spawn_rng` calls
    whose single-integer seeds can.  Deterministic: the same parent state
    always yields the same n streams.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    entropy = [int(word) for word in rng.integers(0, 2**63 - 1, size=4)]
    children = np.random.SeedSequence(entropy).spawn(n)
    return [np.random.default_rng(child) for child in children]
