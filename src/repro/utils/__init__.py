"""Small shared utilities: RNG handling, validation, text formatting and
the runtime lock-discipline sanitizer (:mod:`repro.utils.concurrency`)."""

from repro.utils.concurrency import (
    CheckedCondition,
    CheckedLock,
    CheckedRWLock,
    ConcurrencyFinding,
    SharedRegion,
    checked_condition,
    checked_lock,
    checked_rwlock,
    concurrency_findings,
    held_locks,
    lock_order_edges,
    lock_sanitizer,
    lock_sanitizer_enabled,
    register_shared_region,
    reset_concurrency_state,
    set_lock_sanitizer,
    shared_write,
)
from repro.utils.rng import as_rng, spawn_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability_vector,
)
from repro.utils.tables import format_table

__all__ = [
    "as_rng",
    "spawn_rng",
    "spawn_rngs",
    "check_fraction",
    "check_positive",
    "check_probability_vector",
    "format_table",
    "CheckedCondition",
    "CheckedLock",
    "CheckedRWLock",
    "ConcurrencyFinding",
    "SharedRegion",
    "checked_condition",
    "checked_lock",
    "checked_rwlock",
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
