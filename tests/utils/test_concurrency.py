"""Unit tests for the runtime lock-discipline sanitizer.

Covers the :mod:`repro.utils.concurrency` contract: off by default,
order-graph recording and cycle detection, reentrancy semantics,
condition ``wait`` bookkeeping, the readers-writer lock (overlapping
shared holds, writer preference, no reentry or upgrade), and the
shared-region write tracker (guarded / unguarded-concurrent /
unregistered / shared side only).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import LockOrderError
from repro.utils.concurrency import (
    CheckedCondition,
    CheckedLock,
    CheckedRWLock,
    checked_condition,
    checked_lock,
    checked_rwlock,
    concurrency_findings,
    held_locks,
    held_shared,
    lock_order_edges,
    lock_sanitizer,
    lock_sanitizer_enabled,
    register_shared_region,
    reset_concurrency_state,
    set_lock_sanitizer,
    shared_write,
)


@pytest.fixture(autouse=True)
def _clean_state():
    reset_concurrency_state()
    yield
    set_lock_sanitizer(False)
    reset_concurrency_state()


def test_sanitizer_is_off_by_default_and_records_nothing():
    assert not lock_sanitizer_enabled()
    a, b = checked_lock("off.A"), checked_lock("off.B")
    with a:
        with b:
            assert held_locks() == ()
    with b:
        with a:  # inverted order: legal while the sanitizer is off
            pass
    assert lock_order_edges() == {}
    assert concurrency_findings() == []


def test_held_stack_and_order_edges_are_recorded():
    a, b = checked_lock("rec.A"), checked_lock("rec.B")
    with lock_sanitizer():
        assert lock_sanitizer_enabled()
        with a:
            assert held_locks() == ("rec.A",)
            with b:
                assert held_locks() == ("rec.A", "rec.B")
        assert held_locks() == ()
    assert lock_order_edges()["rec.A"] == ("rec.B",)
    assert not lock_sanitizer_enabled()


def test_inversion_raises_and_names_the_cycle():
    a, b = checked_lock("inv.A"), checked_lock("inv.B")
    with lock_sanitizer():
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="inv.A -> inv.B -> inv.A"):
                with a:
                    pass  # pragma: no cover - the acquire raises


def test_three_lock_cycle_is_detected():
    a, b, c = (checked_lock(f"tri.{x}") for x in "ABC")
    with lock_sanitizer():
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderError, match="lock-order inversion"):
                with a:
                    pass  # pragma: no cover - the acquire raises


def test_non_reentrant_self_acquire_raises_instead_of_deadlocking():
    a = checked_lock("self.A")
    with lock_sanitizer():
        with a:
            with pytest.raises(LockOrderError, match="self-deadlock"):
                a.acquire()


def test_rwlock_shared_holders_overlap_and_the_writer_waits_for_them():
    rw = checked_rwlock("rw.overlap")
    both_in, leave = threading.Barrier(3, timeout=10.0), threading.Event()
    written = threading.Event()

    def reader():
        with rw.shared():
            both_in.wait()  # two shared holders at once, or a timeout
            assert leave.wait(10.0)

    def writer():
        with rw.exclusive():
            written.set()

    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in readers:
        thread.start()
    both_in.wait()
    late = threading.Thread(target=writer)
    late.start()
    assert not written.wait(0.1)  # the readers still hold the lock
    leave.set()
    for thread in readers + [late]:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert written.is_set()


def test_rwlock_waiting_writer_blocks_new_readers():
    rw = checked_rwlock("rw.fair")
    order = []
    release = threading.Event()

    def first_reader():
        with rw.shared():
            assert release.wait(10.0)
        order.append("reader-1")

    def writer():
        with rw.exclusive():
            order.append("writer")

    def late_reader():
        with rw.shared():
            order.append("reader-2")

    holder = threading.Thread(target=first_reader)
    holder.start()
    deadline = time.perf_counter() + 10.0
    while not rw._readers:
        assert time.perf_counter() < deadline
        time.sleep(0.001)
    waiting = threading.Thread(target=writer)
    waiting.start()
    while not rw._writers_waiting:
        assert time.perf_counter() < deadline
        time.sleep(0.001)
    late = threading.Thread(target=late_reader)
    late.start()
    time.sleep(0.05)
    assert order == []  # the late reader queued behind the waiting writer
    release.set()
    for thread in (holder, waiting, late):
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert order.index("writer") < order.index("reader-2")


@pytest.mark.parametrize("first,second", [
    ("shared", "shared"), ("shared", "exclusive"),
    ("exclusive", "shared"), ("exclusive", "exclusive"),
])
def test_rwlock_reentry_and_upgrade_raise_instead_of_deadlocking(first, second):
    rw = checked_rwlock("rw.self")
    with lock_sanitizer():
        with getattr(rw, first)():
            with pytest.raises(LockOrderError, match="self-deadlock"):
                getattr(rw, second)().acquire()
        assert held_locks() == () and held_shared() == ()
    # Released cleanly: both sides are free again.
    with rw.exclusive():
        pass


def test_rwlock_tracks_its_side_on_the_held_stack():
    rw, inner = checked_rwlock("rw.stack"), checked_lock("rw.inner")
    with lock_sanitizer():
        with rw.shared():
            assert held_locks() == ("rw.stack",)
            assert held_shared() == ("rw.stack",)
            with inner:
                pass
        with rw.exclusive():
            assert held_locks() == ("rw.stack",)
            assert held_shared() == ()
        assert held_locks() == ()
        # Both sides are one node of the order graph.
        with inner:
            with pytest.raises(LockOrderError, match="lock-order inversion"):
                rw.exclusive().acquire()


def test_region_guarded_by_rwlock_needs_the_exclusive_side():
    rw = checked_rwlock("reg.rw")
    region = register_shared_region("reg.rwstate", guard="reg.rw")
    with lock_sanitizer():
        with rw.exclusive():
            with region:
                pass
        assert concurrency_findings() == []
        with rw.shared():
            with region:
                pass
    findings = concurrency_findings()
    assert [(f.kind, f.region) for f in findings] == [
        ("unguarded-write", "reg.rwstate")
    ]
    assert "shared side" in findings[0].detail


def test_condition_wait_releases_the_held_name():
    cond = checked_condition("cv.C")
    observed = []

    def waiter():
        with lock_sanitizer():
            with cond:
                cond.wait(timeout=5.0)
                observed.append(held_locks())

    with lock_sanitizer():
        thread = threading.Thread(target=waiter)
        with cond:
            pass  # warm the wrapper on this thread
        thread.start()
        # Let the waiter park, then wake it; wait() must pop the name
        # while sleeping and push it back before returning.
        import time
        for _ in range(100):
            time.sleep(0.01)
            with cond:
                cond.notify_all()
            if observed:
                break
        thread.join(timeout=5.0)
    assert observed == [("cv.C",)]


def test_condition_is_reentrant_for_order_purposes():
    lock = threading.RLock()
    cond = CheckedCondition("cv.R", lock)
    with lock_sanitizer():
        with cond:
            with cond:
                assert held_locks() == ("cv.R", "cv.R")
            assert held_locks() == ("cv.R",)


def test_region_with_guard_flags_unheld_writes_only():
    guard = checked_lock("reg.guard")
    region = register_shared_region("reg.state", guard="reg.guard")
    with lock_sanitizer():
        with guard:
            with region:
                pass
        assert concurrency_findings() == []
        with region:
            pass
    findings = concurrency_findings()
    assert [(f.kind, f.region) for f in findings] == [
        ("unguarded-write", "reg.state")
    ]
    assert "reg.guard" in findings[0].detail


def test_unguarded_region_flags_concurrent_writers():
    region = register_shared_region("reg.racy")
    barrier = threading.Barrier(2, timeout=10.0)

    def writer():
        with region:
            barrier.wait()
            barrier.wait()

    with lock_sanitizer():
        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    kinds = {(f.kind, f.region) for f in concurrency_findings()}
    assert ("concurrent-write", "reg.racy") in kinds


def test_shared_write_on_unregistered_name_is_a_finding():
    with lock_sanitizer():
        with shared_write("reg.undeclared"):
            pass
    kinds = {(f.kind, f.region) for f in concurrency_findings()}
    assert ("unregistered-region", "reg.undeclared") in kinds


def test_findings_deduplicate_by_kind_and_region():
    region = register_shared_region("reg.dup", guard="reg.guard")
    with lock_sanitizer():
        for _ in range(3):
            with region:
                pass
    findings = concurrency_findings()
    assert len(findings) == 1
    assert findings[0].count == 3
    assert findings[0].to_dict()["count"] == 3


def test_register_shared_region_is_idempotent_until_contract_changes():
    first = register_shared_region("reg.same", guard="reg.guard")
    again = register_shared_region("reg.same", guard="reg.guard")
    assert again is first
    changed = register_shared_region("reg.same", guard="reg.other")
    assert changed is not first


def test_reset_clears_edges_and_findings_but_keeps_contracts():
    region = register_shared_region("reg.kept", guard="reg.guard")
    a, b = checked_lock("rst.A"), checked_lock("rst.B")
    with lock_sanitizer():
        with a:
            with b:
                pass
        with region:
            pass
    assert lock_order_edges() and concurrency_findings()
    reset_concurrency_state()
    assert lock_order_edges() == {}
    assert concurrency_findings() == []
    assert register_shared_region("reg.kept", guard="reg.guard") is region


def test_context_manager_restores_previous_setting():
    assert set_lock_sanitizer(True) is False
    with lock_sanitizer():
        assert lock_sanitizer_enabled()
    assert lock_sanitizer_enabled()  # was already on before the with
    assert set_lock_sanitizer(False) is True


def test_checked_wrappers_expose_names_and_types():
    assert isinstance(checked_lock("t.L"), CheckedLock)
    assert isinstance(checked_rwlock("t.RW"), CheckedRWLock)
    assert checked_condition("t.C").name == "t.C"
