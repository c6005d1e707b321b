"""Partition-sensitive integrity constraints (§5.5.2).

For applications whose data can be partitioned at runtime (like tickets of
the flight-booking example), a constraint can take the *weight* of the
current partition into account: the remaining capacity ``t`` (capacity
minus usage in healthy mode) is split across partitions proportionally to
their weight, ``t = Σ t_x``, and the constraint only admits usage within
the local share ``t_x``.  In the best case no inconsistencies are
introduced at all, although write access in different partitions remains
possible — at the price of some partitions possibly exhausting their share
while others still have capacity (reduced availability).

The middleware side of this mechanism is the partition weight fraction the
GMS computes (exposed to constraints via
``ConstraintValidationContext.partition_weight``); this module provides the
application-side helpers: capturing the healthy-mode baseline when
degradation starts and computing the local allowance.
"""

from __future__ import annotations

import math
from typing import Any, Hashable


def partition_allowance(capacity: int, baseline_used: int, weight: float) -> int:
    """The share of remaining capacity granted to a partition.

    ``capacity - baseline_used`` units remain when degradation starts; the
    partition may consume ``floor(remaining * weight)`` of them.  Floor
    rounding guarantees the shares never over-commit (Σ t_x ≤ t).
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be within [0, 1], got {weight}")
    remaining = capacity - baseline_used
    if remaining <= 0:
        return 0
    return int(math.floor(remaining * weight))


class DegradedBaseline:
    """Tracks per-object healthy-mode baselines across degradations.

    §5.5.2: "the ticket-constraint saves the number of tickets sold in
    healthy mode".  Every healthy-mode validation records the latest value;
    when degradation starts, the first degraded validation *freezes* the
    last healthy value as the baseline for the whole degraded period (the
    degraded validation itself already sees post-operation state, which
    must not leak into the baseline).  Healthy-mode validations also clear
    the frozen value so the next degradation starts fresh.
    """

    def __init__(self) -> None:
        self._healthy: dict[Hashable, Any] = {}
        self._frozen: dict[Hashable, Any] = {}

    def capture(self, key: Hashable, value: Any, degraded: bool) -> Any:
        """Return the baseline for ``key``.

        In healthy mode, ``value`` becomes the new baseline candidate and
        is returned.  In degraded mode, the last healthy value is frozen
        and returned; if the object was never validated while healthy,
        ``value`` itself seeds the baseline.
        """
        if not degraded:
            self._healthy[key] = value
            self._frozen.pop(key, None)
            return value
        if key not in self._frozen:
            self._frozen[key] = self._healthy.get(key, value)
        return self._frozen[key]


    def __len__(self) -> int:
        return len(self._frozen)
