"""Scoped wall-time profiling for pipeline stages.

The training pipeline interleaves sampling (walk generation, context-pair
extraction) with SGD; knowing the split is what justifies — and validates —
optimising one side.  :class:`StageProfiler` accumulates wall time per named
stage with a context-manager API cheap enough to leave on in production
runs:

    profiler = StageProfiler()
    with profiler.stage("sampling.walks"):
        walks = walker.walks_matrix(...)
    profiler.report()  # {"sampling.walks": {"seconds": ..., "calls": ...}, ...}

Besides totals, each stage keeps a bounded window of recent per-activation
durations so :meth:`StageProfiler.report` can surface tail latency
(``p50_ms``/``p95_ms``/``p99_ms``) — totals alone hide the slow requests
that dominate user-perceived serving latency.

A process-wide *stage listener* (:func:`set_stage_listener`) can observe
every stage activation of every profiler.  It exists for the allocation
sanitizer (:mod:`repro.perf.allocations`): off by default, the hot path
pays one module-global ``None`` test per stage enter/exit.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.utils.concurrency import checked_lock, register_shared_region

#: The installed stage listener, or None.  A listener is any object with
#: ``stage_enter(name)`` / ``stage_exit(name)`` methods; it sees every
#: activation of every StageProfiler in the process.
_STAGE_LISTENER = None


def set_stage_listener(listener) -> "Optional[object]":
    """Install ``listener`` (or None to remove); returns the previous one."""
    global _STAGE_LISTENER
    previous = _STAGE_LISTENER
    _STAGE_LISTENER = listener
    return previous


def stage_listener():
    """The currently installed stage listener, or None."""
    return _STAGE_LISTENER

# Per-stage sample window for percentile estimation.  Bounded so a
# long-lived profiler reports recent behavior at O(1) memory; 4096 samples
# resolve a p99 to ~40 observations.
_SAMPLE_WINDOW = 4096


def _percentile(ordered: "list[float]", fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Timer:
    """A context manager measuring one wall-clock interval.

    After the ``with`` block, ``elapsed`` holds the duration in seconds.
    Re-entering restarts the measurement.
    """

    def __init__(self):
        self.elapsed: float = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._start = None


class _StageScope:
    """One ``with profiler.stage(name)`` activation."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "StageProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageScope":
        listener = _STAGE_LISTENER
        if listener is not None:
            listener.stage_enter(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._record(self._name, time.perf_counter() - self._start)
        listener = _STAGE_LISTENER
        if listener is not None:
            listener.stage_exit(self._name)


class StageProfiler:
    """Accumulates wall time per named stage across repeated activations.

    One profiler may be shared by threads (a service's concurrent reads
    all record into it): every access to the totals takes ``_lock``.
    """

    def __init__(self):
        self._lock = checked_lock("perf.profiler._lock")
        self._region = register_shared_region(
            "perf.profiler", guard="perf.profiler._lock",
            reason="stage totals and sample windows, recorded by every "
                   "thread that shares the profiler",
        )
        self._seconds: Dict[str, float] = {}  # repro-lint: guarded-by=_lock
        self._calls: Dict[str, int] = {}  # repro-lint: guarded-by=_lock
        self._samples: Dict[str, Deque[float]] = {}  # repro-lint: guarded-by=_lock

    def stage(self, name: str) -> _StageScope:
        """A context manager adding its wall time to stage ``name``."""
        return _StageScope(self, name)

    def _record(self, name: str, seconds: float) -> None:
        with self._lock, self._region:
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds
            self._calls[name] = self._calls.get(name, 0) + 1
            if name not in self._samples:
                self._samples[name] = deque(maxlen=_SAMPLE_WINDOW)
            self._samples[name].append(seconds)

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Total accumulated seconds for stage ``name`` (0.0 if never run)."""
        with self._lock:
            return self._seconds.get(name, 0.0)

    def total(self) -> float:
        """Sum of all stages' accumulated seconds."""
        with self._lock:
            return sum(self._seconds.values())

    def percentiles(self, name: str) -> Dict[str, float]:
        """``{"p50_ms", "p95_ms", "p99_ms"}`` over the stage's recent window.

        Percentiles are per *activation*, in milliseconds; an unknown stage
        reads all-zero.
        """
        with self._lock:
            samples = list(self._samples.get(name, ()))
        return self._tails(samples)

    @staticmethod
    def _tails(samples) -> Dict[str, float]:
        ordered = sorted(samples)
        return {
            "p50_ms": 1000.0 * _percentile(ordered, 0.50),
            "p95_ms": 1000.0 * _percentile(ordered, 0.95),
            "p99_ms": 1000.0 * _percentile(ordered, 0.99),
        }

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-stage totals plus tail latency, insertion-ordered.

        Each entry carries ``seconds`` / ``calls`` / ``fraction`` (the
        stage's share of :meth:`total`, 0.0 when no time has been recorded
        at all) and the per-activation ``p50_ms``/``p95_ms``/``p99_ms``
        percentiles over the stage's recent sample window.
        """
        with self._lock:
            seconds = dict(self._seconds)
            calls = dict(self._calls)
            samples = {name: list(window)
                       for name, window in self._samples.items()}
        total = sum(seconds.values())
        return {
            name: {
                "seconds": spent,
                "calls": calls[name],
                "fraction": spent / total if total > 0 else 0.0,
                **self._tails(samples[name]),
            }
            for name, spent in seconds.items()
        }

    def summary(self) -> str:
        """One line per stage, largest share first — for logs."""
        report = sorted(
            self.report().items(), key=lambda item: -item[1]["seconds"]
        )
        return "\n".join(
            f"{name}: {entry['seconds']:.3f}s "
            f"({100 * entry['fraction']:.1f}%, {entry['calls']} calls, "
            f"p50 {entry['p50_ms']:.2f}ms / p95 {entry['p95_ms']:.2f}ms / "
            f"p99 {entry['p99_ms']:.2f}ms)"
            for name, entry in report
        )

    def reset(self) -> None:
        with self._lock, self._region:
            self._seconds.clear()
            self._calls.clear()
            self._samples.clear()
