"""Runtime lock-discipline sanitizer for the concurrent stack.

The serving service is threaded (:mod:`repro.serving.service`).  The
static rules in
:mod:`repro.lint.concurrency` catch lexically-visible discipline
violations; this module catches the *dynamic* ones the AST cannot see:

- **Lock-order inversions.**  :func:`checked_lock` /
  :func:`checked_rlock` / :func:`checked_condition` wrap the standard
  ``threading`` primitives and, while the sanitizer is enabled, record
  every (held-lock, acquired-lock) pair into a per-process
  lock-acquisition-order graph.  Acquiring a lock that would complete a
  cycle in that graph — i.e. some thread has taken the same locks in the
  opposite order — raises :class:`repro.errors.LockOrderError`
  *immediately*, turning a latent probabilistic deadlock into a
  deterministic test failure.  Re-acquiring a non-reentrant checked lock
  on the holding thread (a guaranteed self-deadlock) raises too.
- **Unguarded shared writes.**  :func:`register_shared_region` declares
  a named shared-memory write region with an optional declared guard
  lock.  Entering the region (``with region:``) while the sanitizer is
  enabled records a finding when the declared guard is not held, or when
  two threads are inside an *unguarded* region at once.  Regions may be
  registered ``exempt`` — state that races by design (hogwild-style
  tables, Niu et al., 2011) is annotated as such rather than silenced.

Following the :mod:`repro.nn.sanitizer` contract: **off by default**,
the only overhead when disabled is a single integer flag test per
acquire/enter, and enabling it never changes numerics — the wrappers
delegate to the exact same ``threading`` primitives, they only do extra
bookkeeping around them.

Granularity note: the order graph is keyed by lock *name* (a class of
locks, e.g. ``"service._cond"``), not by lock instance.  Two service
instances therefore share graph nodes; this over-approximates (it can
flag an inversion that two distinct instances could never deadlock on)
but keeps the graph small and the contract auditable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LockOrderError

__all__ = [
    "CheckedCondition",
    "CheckedLock",
    "CheckedRLock",
    "ConcurrencyFinding",
    "SharedRegion",
    "checked_condition",
    "checked_lock",
    "checked_rlock",
    "concurrency_findings",
    "held_locks",
    "lock_order_edges",
    "lock_sanitizer",
    "lock_sanitizer_enabled",
    "register_shared_region",
    "reset_concurrency_state",
    "set_lock_sanitizer",
    "shared_write",
]


class _State:
    """Process-wide sanitizer flag; plain int keeps the off-path cheap."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = 0


STATE = _State()

# Guards the order graph, the findings map and region writer counts.
# Never held across a blocking call and never while acquiring a checked
# lock's inner primitive, so it cannot participate in the deadlocks it
# is used to detect.
_REGISTRY_MUTEX = threading.Lock()
_ORDER_EDGES: Dict[str, Set[str]] = {}
_FINDINGS: Dict[Tuple[str, str], "ConcurrencyFinding"] = {}
_REGIONS: Dict[str, "SharedRegion"] = {}
_HELD = threading.local()


def _stack() -> List[str]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = []
        _HELD.stack = stack
    return stack


def held_locks() -> Tuple[str, ...]:
    """Names of checked locks held by the calling thread, outermost first."""
    return tuple(getattr(_HELD, "stack", None) or ())


def lock_order_edges() -> Dict[str, Tuple[str, ...]]:
    """Snapshot of the recorded acquisition-order graph (name -> successors)."""
    with _REGISTRY_MUTEX:
        return {name: tuple(sorted(edges)) for name, edges in _ORDER_EDGES.items()}


def _find_path(graph: Dict[str, Set[str]], src: str, dst: str) -> Optional[List[str]]:
    """Return a ``src -> ... -> dst`` path in ``graph``, or ``None``."""
    path = [src]
    seen = {src}

    def dfs(node: str) -> bool:
        if node == dst:
            return True
        for nxt in sorted(graph.get(node, ())):
            if nxt in seen:
                continue
            seen.add(nxt)
            path.append(nxt)
            if dfs(nxt):
                return True
            path.pop()
        return False

    return path if dfs(src) else None


def _check_acquire(name: str, reentrant: bool) -> None:
    stack = _stack()
    if name in stack:
        if reentrant:
            return
        raise LockOrderError(
            f"self-deadlock: non-reentrant lock '{name}' acquired while "
            f"already held by this thread (held: {' -> '.join(stack)})"
        )
    with _REGISTRY_MUTEX:
        for held in stack:
            edges = _ORDER_EDGES.setdefault(held, set())
            if name in edges:
                continue
            path = _find_path(_ORDER_EDGES, name, held)
            if path is not None:
                cycle = " -> ".join(path + [name])
                raise LockOrderError(
                    f"lock-order inversion: acquiring '{name}' while "
                    f"holding '{held}' completes the cycle {cycle}; some "
                    "thread takes these locks in the opposite order"
                )
            edges.add(name)


def _note_acquired(name: str) -> None:
    _stack().append(name)


def _note_released(name: str) -> None:
    stack = getattr(_HELD, "stack", None)
    if not stack:
        return
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] == name:
            del stack[i]
            return


class CheckedLock:
    """``threading.Lock`` wrapper feeding the lock-order sanitizer.

    Drop-in for the ``acquire``/``release``/context-manager surface.  The
    order check runs *before* the inner acquire so a detected inversion
    raises instead of deadlocking.
    """

    _reentrant = False

    def __init__(self, name: str, inner=None) -> None:
        self.name = name
        self._inner = threading.Lock() if inner is None else inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if STATE.enabled:
            _check_acquire(self.name, self._reentrant)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and STATE.enabled:
            _note_acquired(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        # Pop unconditionally (cheap when the stack is empty) so a lock
        # acquired while the sanitizer was on is still popped if the
        # sanitizer is switched off mid-hold.
        _note_released(self.name)

    def __enter__(self) -> "CheckedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class CheckedRLock(CheckedLock):
    """``threading.RLock`` wrapper; reentrant acquires skip order edges."""

    _reentrant = True

    def __init__(self, name: str, inner=None) -> None:
        super().__init__(name, threading.RLock() if inner is None else inner)


class CheckedCondition:
    """``threading.Condition`` wrapper aware of ``wait``'s lock handoff.

    ``wait()`` releases the underlying lock while sleeping, so the
    wrapper pops the lock from the held stack before waiting and pushes
    it back once ``wait`` returns (no order check needed: by contract a
    waiter holds only the condition's own lock).
    """

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        self._cond = threading.Condition(lock)

    def acquire(self, *args) -> bool:
        if STATE.enabled:
            _check_acquire(self.name, True)
        acquired = self._cond.acquire(*args)
        if acquired and STATE.enabled:
            _note_acquired(self.name)
        return acquired

    def release(self) -> None:
        self._cond.release()
        _note_released(self.name)

    def __enter__(self) -> "CheckedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def wait(self, timeout: Optional[float] = None) -> bool:
        enabled = STATE.enabled
        if enabled:
            _note_released(self.name)
        try:
            return self._cond.wait(timeout)
        finally:
            if enabled:
                _note_acquired(self.name)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        enabled = STATE.enabled
        if enabled:
            _note_released(self.name)
        try:
            return self._cond.wait_for(predicate, timeout)
        finally:
            if enabled:
                _note_acquired(self.name)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckedCondition({self.name!r})"


def checked_lock(name: str) -> CheckedLock:
    """A non-reentrant checked lock named ``name`` in the order graph."""
    return CheckedLock(name)


def checked_rlock(name: str) -> CheckedRLock:
    """A reentrant checked lock named ``name`` in the order graph."""
    return CheckedRLock(name)


def checked_condition(name: str, lock=None) -> CheckedCondition:
    """A checked condition variable named ``name`` in the order graph."""
    return CheckedCondition(name, lock)


def set_lock_sanitizer(enabled: bool = True) -> bool:
    """Toggle the sanitizer; returns the previous setting."""
    previous = bool(STATE.enabled)
    STATE.enabled = 1 if enabled else 0
    return previous


def lock_sanitizer_enabled() -> bool:
    """Whether the lock-discipline sanitizer is currently on."""
    return bool(STATE.enabled)


@contextmanager
def lock_sanitizer():
    """Enable the sanitizer for the scope of the ``with`` block."""
    previous = set_lock_sanitizer(True)
    try:
        yield
    finally:
        set_lock_sanitizer(previous)


@dataclass
class ConcurrencyFinding:
    """One deduplicated write-tracker finding.

    ``kind`` is ``"unguarded-write"`` (a region with a declared guard was
    entered without holding it), ``"concurrent-write"`` (two threads were
    inside an unguarded region at once) or ``"unregistered-region"``
    (``shared_write`` was used on a name never registered).
    """

    kind: str
    region: str
    detail: str
    count: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "region": self.region,
            "detail": self.detail,
            "count": self.count,
        }


def _record_finding(kind: str, region: str, detail: str) -> None:
    key = (kind, region)
    with _REGISTRY_MUTEX:
        existing = _FINDINGS.get(key)
        if existing is None:
            _FINDINGS[key] = ConcurrencyFinding(kind, region, detail)
        else:
            existing.count += 1


def concurrency_findings() -> List[ConcurrencyFinding]:
    """Snapshot of write-tracker findings recorded since the last reset."""
    with _REGISTRY_MUTEX:
        return [
            ConcurrencyFinding(f.kind, f.region, f.detail, f.count)
            for f in _FINDINGS.values()
        ]


class SharedRegion:
    """A declared shared-memory write region used as a context manager.

    ``with region:`` brackets every write to the shared state the region
    names.  While the sanitizer is enabled the region checks its declared
    guard against :func:`held_locks` and counts concurrent writers;
    violations are *recorded* (see :func:`concurrency_findings`), not
    raised, so a storm test can finish and report every distinct finding.
    """

    __slots__ = ("name", "guard", "exempt", "reason", "_writers")

    def __init__(
        self,
        name: str,
        guard: Optional[str] = None,
        exempt: bool = False,
        reason: str = "",
    ) -> None:
        self.name = name
        self.guard = guard
        self.exempt = exempt
        self.reason = reason
        self._writers: Dict[int, int] = {}

    def __enter__(self) -> "SharedRegion":
        if not STATE.enabled or self.exempt:
            return self
        if self.guard is not None and self.guard not in held_locks():
            _record_finding(
                "unguarded-write",
                self.name,
                f"write without holding declared guard '{self.guard}'",
            )
        ident = threading.get_ident()
        concurrent = 0
        with _REGISTRY_MUTEX:
            self._writers[ident] = self._writers.get(ident, 0) + 1
            if self.guard is None:
                concurrent = len(self._writers)
        if concurrent > 1:
            _record_finding(
                "concurrent-write",
                self.name,
                f"{concurrent} unguarded writers active at once",
            )
        return self

    def __exit__(self, *exc) -> bool:
        if self.exempt:
            return False
        ident = threading.get_ident()
        with _REGISTRY_MUTEX:
            depth = self._writers.get(ident, 0) - 1
            if depth > 0:
                self._writers[ident] = depth
            else:
                self._writers.pop(ident, None)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "exempt" if self.exempt else f"guard={self.guard!r}"
        return f"SharedRegion({self.name!r}, {flags})"


def register_shared_region(
    name: str,
    *,
    guard: Optional[str] = None,
    exempt: bool = False,
    reason: str = "",
) -> SharedRegion:
    """Declare (or re-declare) the shared write region ``name``.

    Registration is idempotent: re-registering with the same contract
    returns the existing region so repeated service construction shares
    one writer table per process.
    """
    with _REGISTRY_MUTEX:
        region = _REGIONS.get(name)
        if region is None or (region.guard, region.exempt) != (guard, exempt):
            region = SharedRegion(name, guard=guard, exempt=exempt, reason=reason)
            _REGIONS[name] = region
        return region


def shared_write(name: str) -> SharedRegion:
    """Look up a registered region; undeclared names become findings."""
    region = _REGIONS.get(name)
    if region is not None:
        return region
    if STATE.enabled:
        _record_finding(
            "unregistered-region",
            name,
            "write to an undeclared shared region; call "
            "register_shared_region() at setup time",
        )
    return register_shared_region(name)


def reset_concurrency_state() -> None:
    """Clear the order graph, findings and writer counts.

    Registered regions keep their contracts.  Call with no checked locks
    held (per-thread held stacks are intentionally left alone).
    """
    with _REGISTRY_MUTEX:
        _ORDER_EDGES.clear()
        _FINDINGS.clear()
        for region in _REGIONS.values():
            region._writers.clear()
