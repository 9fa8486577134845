"""Sample statistics and closed-loop accounting for the benchmark.

Percentiles use the nearest-rank definition, so a failed operation
(recorded as an infinite latency) can sit in a sample without turning
an interpolated percentile into ``nan``.  The reportable tail follows
one rule: the highest percentile that still has at least ten samples
beyond it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Tail percentiles considered for reporting, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 75.0)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(count: int,
                    candidates: Sequence[float] = TAIL_CANDIDATES
                    ) -> Optional[float]:
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when the sample supports no tail at all."""
    for p in candidates:
        if samples_beyond(count, p) >= MIN_BEYOND:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


@dataclass
class OpLog:
    """Closed-loop record of one measured phase.

    Every attempted operation gets exactly one latency sample; a failed
    one is recorded as ``inf`` so it misses every latency limit.  ``work``
    is the unit the throughput counts (training pairs, or requests).
    ``windows`` holds ``(work, seconds)`` per slice of the phase (an epoch,
    a second); when present, throughput is their median rate, so a brief
    stall of the host moves one slice instead of the whole figure.
    """

    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    work: float = 0.0
    elapsed: float = 0.0
    kinds: Dict[str, int] = field(default_factory=dict)
    done_at: List[Tuple[float, float]] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, work: float = 1.0, kind: str = "op",
               at: Optional[float] = None) -> None:
        """One completed operation; ``at`` is its completion time."""
        self.latencies.append(seconds)
        self.work += work
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if at is not None:
            self.done_at.append((at, work))

    def slice_windows(self, start: float, width: float) -> None:
        """Windows of ``width`` seconds from ``start``, by completion time.

        A trailing part shorter than half a window is left out.
        """
        count = max(1, int(self.elapsed / width + 0.5))
        width = min(width, self.elapsed / count)
        work = [0.0] * count
        for at, amount in self.done_at:
            index = int((at - start) / width)
            if index < count:
                work[index] += amount
        self.windows = [(amount, width) for amount in work]

    def record_failure(self, kind: str = "op") -> None:
        self.latencies.append(math.inf)
        self.failed += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def merge(self, other: "OpLog") -> None:
        """Fold a concurrent client's log into this one (same wall window)."""
        self.latencies.extend(other.latencies)
        self.failed += other.failed
        self.work += other.work
        self.done_at.extend(other.done_at)
        for kind, count in other.kinds.items():
            self.kinds[kind] = self.kinds.get(kind, 0) + count

    @property
    def throughput(self) -> float:
        """Completed work per second: the median window, else the phase."""
        if self.windows:
            return statistics.median(work / seconds for work, seconds in self.windows)
        if self.elapsed <= 0:
            raise ValueError("throughput of a phase with no elapsed time")
        return self.work / self.elapsed

    def finite_mean(self) -> float:
        done = [s for s in self.latencies if math.isfinite(s)]
        return sum(done) / len(done) if done else math.inf
