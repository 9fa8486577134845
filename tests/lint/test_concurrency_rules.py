"""Per-rule tests for the concurrency lint rules R009, R011 and R012.

Same three-way pattern as ``test_lint_rules.py``: every rule gets a
positive snippet that must be flagged, the same snippet silenced inline
with ``# repro-lint: disable=RXXX``, and the same finding absorbed by a
baseline entry.  The negative tests pin down the false-positive
boundaries the serving/training code relies on (mutation under the
declared lock, ``holds=`` contracts, ``cond.wait()`` on its own lock,
``spawn_rngs`` pools, string ``join``...).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import BaselineEntry, apply_baseline, lint_source


def findings_for(source: str, rel_path: str):
    source = textwrap.dedent(source)
    found, suppressed = lint_source(source, rel_path)
    return found, suppressed


def codes(found):
    return [f.code for f in found]


# Positive snippets: (rule code, rel_path, source, message fragment).
# The flagged construct sits on the line carrying the ``# LINE`` marker so
# the suppression variant can be generated mechanically.
POSITIVE = [
    (
        "R009",
        "serving/example.py",
        """\
        class Service:
            def __init__(self):
                self.stats = {}  # repro-lint: guarded-by=_lock

            def bump(self):
                self.stats["n"] = 1  # LINE
        """,
        "guarded attribute 'self.stats' mutated outside 'with self._lock:'",
    ),
    (
        "R009",
        "serving/example.py",
        """\
        class Service:
            def __init__(self):
                self.queue = []  # repro-lint: guarded-by=_cond

            def push(self, item):
                q = self.queue
                q.append(item)  # LINE
        """,
        "'self.queue'",
    ),
    (
        "R009",
        "serving/example.py",
        """\
        class Service:
            def __init__(self):
                self.stats = {}  # repro-lint: guarded-by=_lock

            def bump(self, key):
                self.stats[key].record_latency(0.5)  # LINE
        """,
        "Service.bump",
    ),
    (
        "R009",
        "serving/example.py",
        """\
        class View:
            def __init__(self):
                self._cache = {}  # repro-lint: guarded-by=external:Service._lock

            def invalidate(self):
                self._cache = {}  # LINE
        """,
        "externally-serialised attribute 'self._cache'",
    ),
    (
        "R011",
        "train/example.py",
        """\
        import threading
        from repro.utils.rng import as_rng

        def launch(seed, items):
            rng = as_rng(seed)
            jobs = []
            for item in items:
                def work():
                    return rng.integers(item)  # LINE
                jobs.append(work)
            return jobs
        """,
        "Generator 'rng'",
    ),
    (
        "R011",
        "train/example.py",
        """\
        import threading

        class Trainer:
            def launch(self, items):
                jobs = []
                for item in items:
                    jobs.append(lambda: self._rng.random())  # LINE
                return jobs
        """,
        "parent RNG 'self._rng'",
    ),
    (
        "R012",
        "serving/example.py",
        """\
        import time

        class Pool:
            def drain(self):
                with self._lock:
                    time.sleep(0.1)  # LINE
        """,
        "time.sleep()",
    ),
    (
        "R012",
        "serving/example.py",
        """\
        class Pool:
            def stop(self):
                with self._cond:
                    self._flusher.join()  # LINE
        """,
        "self._flusher.join()",
    ),
    (
        "R012",
        "serving/example.py",
        """\
        class Pool:
            def collect(self, future):
                with self._exec_lock:
                    return future.result()  # LINE
        """,
        "future.result()",
    ),
    (
        "R012",
        "serving/example.py",
        """\
        class Pool:
            def misuse(self):
                with self._lock:
                    self._cond.wait()  # LINE
        """,
        "self._cond.wait()",
    ),
]

# Stable case labels, one per POSITIVE entry: dropping a case must not
# rename the cases after it.
IDS = [
    "R009-0", "R009-1", "R009-2", "R009-3",
    "R011-8", "R011-9",
    "R012-10", "R012-11", "R012-12", "R012-13",
]
assert [label.split("-")[0] for label in IDS] == [c[0] for c in POSITIVE]


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_is_flagged(code, rel_path, source, fragment):
    found, _ = findings_for(source, rel_path)
    matching = [f for f in found if f.code == code]
    assert matching, f"expected {code} in {codes(found)}"
    assert any(fragment in f.message for f in matching)
    assert all(f.hint for f in matching), "every finding carries a fix hint"


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_suppressed_inline(code, rel_path, source, fragment):
    """Appending ``# repro-lint: disable=RXXX`` on the line silences it."""
    suppressed_source = textwrap.dedent(source).replace(
        "# LINE", f"# repro-lint: disable={code}"
    )
    found, suppressed = lint_source(suppressed_source, rel_path)
    assert not [f for f in found if f.code == code]
    assert suppressed >= 1


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_excluded_by_baseline(code, rel_path, source, fragment):
    """A baseline entry keyed by (code, path, message) absorbs the finding."""
    found, _ = findings_for(source, rel_path)
    target = next(f for f in found if f.code == code)
    entry = BaselineEntry(
        code=target.code, path=target.path, message=target.message,
        reason="unit-test debt",
    )
    actionable, baselined, stale = apply_baseline(found, [entry])
    assert target not in actionable
    assert target in baselined
    assert not stale


# ----------------------------------------------------------------------
# R009 negative boundaries
# ----------------------------------------------------------------------

def test_r009_mutation_under_declared_lock_is_clean():
    found, _ = findings_for(
        """\
        class Service:
            def __init__(self):
                self.stats = {}  # repro-lint: guarded-by=_lock

            def bump(self):
                with self._lock:
                    self.stats["n"] = 1
                    self.stats.pop("m", None)
        """,
        "serving/example.py",
    )
    assert "R009" not in codes(found)


def test_r009_holds_marker_declares_caller_contract():
    found, _ = findings_for(
        """\
        class Service:
            def __init__(self):
                self.queue = []  # repro-lint: guarded-by=_cond

            def _admit(self, item):  # repro-lint: holds=_cond
                self.queue.append(item)
        """,
        "serving/example.py",
    )
    assert "R009" not in codes(found)


def test_r009_init_and_local_rebinding_are_clean():
    # __init__ declares the attributes; rebinding a local alias is not a
    # mutation of the guarded container.
    found, _ = findings_for(
        """\
        class Service:
            def __init__(self):
                self.stats = {}  # repro-lint: guarded-by=_lock
                self.stats["boot"] = 1

            def detach(self):
                s = self.stats
                s = None
                return s
        """,
        "serving/example.py",
    )
    assert "R009" not in codes(found)


def test_r009_nested_def_ignores_enclosing_lock():
    # The closure runs later, under whatever locks its caller holds; the
    # lexically-enclosing `with` must not vouch for it.
    found, _ = findings_for(
        """\
        class Service:
            def __init__(self):
                self.stats = {}  # repro-lint: guarded-by=_lock

            def deferred(self):
                with self._lock:
                    def later():
                        self.stats["n"] = 1
                return later
        """,
        "serving/example.py",
    )
    assert any(f.code == "R009" and "later" in f.message for f in found)


# ----------------------------------------------------------------------
# R011 negative boundaries
# ----------------------------------------------------------------------

def test_r011_spawned_pool_indexed_per_worker_is_clean():
    found, _ = findings_for(
        """\
        import threading
        from repro.utils.rng import spawn_rngs

        def launch(rng, n):
            rngs = spawn_rngs(rng, n)
            jobs = []
            for w in range(n):
                def work(w=w):
                    return rngs[w].integers(10)
                jobs.append(work)
            return jobs
        """,
        "train/example.py",
    )
    assert "R011" not in codes(found)


def test_r011_ignores_files_without_thread_or_fork_imports():
    found, _ = findings_for(
        """\
        from repro.utils.rng import as_rng

        def launch(seed, items):
            rng = as_rng(seed)
            jobs = []
            for item in items:
                def work():
                    return rng.integers(item)
                jobs.append(work)
            return jobs
        """,
        "train/example.py",
    )
    assert "R011" not in codes(found)


# ----------------------------------------------------------------------
# R012 negative boundaries
# ----------------------------------------------------------------------

def test_r012_wait_on_the_held_condition_is_clean():
    # cond.wait() releases the lock it waits on: the blessed idiom.
    found, _ = findings_for(
        """\
        class Pool:
            def drain(self):
                with self._cond:
                    while not self._ripe:
                        self._cond.wait(0.1)
        """,
        "serving/example.py",
    )
    assert "R012" not in codes(found)


def test_r012_string_and_path_joins_are_clean():
    found, _ = findings_for(
        """\
        import os

        class Pool:
            def label(self, parts, base):
                with self._lock:
                    return ", ".join(parts) + os.path.join(base, "x")
        """,
        "serving/example.py",
    )
    assert "R012" not in codes(found)


def test_r012_blocking_outside_lock_and_nested_def_are_clean():
    found, _ = findings_for(
        """\
        import time

        class Pool:
            def nap(self):
                time.sleep(0.1)

            def schedule(self):
                with self._lock:
                    def later():
                        time.sleep(0.1)
                return later
        """,
        "serving/example.py",
    )
    assert "R012" not in codes(found)


def test_r012_finding_lists_every_held_lock():
    found, _ = findings_for(
        """\
        import time

        class Pool:
            def drain(self):
                with self._cond:
                    with self._exec_lock:
                        time.sleep(0.1)
        """,
        "serving/example.py",
    )
    target = next(f for f in found if f.code == "R012")
    assert "self._cond" in target.message
    assert "self._exec_lock" in target.message
