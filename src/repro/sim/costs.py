"""The cost table of the simulated substrate.

The dissertation's Chapter 5 numbers were measured on one testbed (§5.1):
2–3 GHz machines with 100 MBit links, MySQL persistence, and the Spread
group-communication toolkit.  We replace that testbed with one fixed cost
table: every substrate action advances the simulated clock by the
duration :data:`COSTS` gives its category.  The values are calibrated
against the paper's Figures 5.1–5.4 so that both the *absolute scale*
(~60–150 ops/s for single-node operations) and the *relative shapes*
reproduce: creates dominated by persistence plus replica metadata, reads
local and cheap, synchronous update propagation paying one multicast
round trip per write, threat persistence expensive.

All costs are expressed in seconds.  The table is a constant of the
reproduction, like the testbed it stands in for, not a setting.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any, Callable, Mapping

#: Category -> seconds, every entry finite and >= 0.  A :func:`charger`
#: function reads this dict itself, so a charge by name is one plain dict
#: subscript; everything else reads the read-only :data:`COSTS` view.
_SECONDS: dict[str, float] = {
    # JBoss proxy, marshalling, security and transaction association for
    # one remote EJB invocation.
    "invocation_base": 4.0e-3,
    # Traversing one interceptor in the chain.
    "interceptor_hop": 0.1e-3,
    # One CMP persistence access.
    "db_read": 2.5e-3,
    "db_write": 3.2e-3,
    # Entity creation/deletion incl. schema bookkeeping: heavier than a
    # field write (Fig. 5.1).
    "db_create": 12.0e-3,
    "db_delete": 8.0e-3,
    # Storing JNDI name, primary key and serialized creation request for
    # a replica (§5.1 names this as a create/delete slowdown cause).
    "replica_metadata_write": 19.0e-3,
    # Per-update bookkeeping of replica details on the primary (§5.1:
    # single-node DeDiSys writes drop to 57 %).
    "replica_detail_write": 5.0e-3,
    # Passing through the ADAPT replication framework's component
    # monitors (§5.1: 22 of the 27 % empty-op loss).
    "adapt_monitor": 2.1e-3,
    # Notifying the CCMgr before/after an invocation (§5.1: the remaining
    # ~5 % empty-op overhead).
    "ccm_notification": 0.2e-3,
    # One synchronous update propagation round: Spread multicast plus
    # per-backup confirmation (``multicast_base + n * multicast_per_node``).
    "multicast_base": 8.0e-3,
    "multicast_per_node": 0.9e-3,
    # Associating the propagated transaction context at a backup.
    "tx_remote_association": 1.2e-3,
    # Persisting one historical replica state in degraded mode (§5.1:
    # degraded writes slightly slower than healthy).
    "state_history_write": 1.4e-3,
    # Constraint repository access with and without the query cache
    # (§2.3.2 reports 0.25–0.52 µs cached lookups).
    "repository_lookup_cached": 0.4e-6,
    "repository_search": 60.0e-6,
    # One compiled dispatch-table lookup covering every constraint type of
    # a method at once (the throughput-engine repository): sized like a
    # cached lookup, paid once per notification instead of per type.
    "repository_dispatch": 0.4e-6,
    # Executing one ``validate()`` body (R5).
    "constraint_validate": 50.0e-6,
    # One negotiation round (callback dispatch).
    "threat_negotiate": 8.0e-3,
    # Persisting one consistency threat: at least three database objects
    # initially (§5.2).
    "threat_persist": 45.0e-3,
    # Persisting an additional identical threat under the full-history
    # policy: two further objects (§5.2).
    "threat_persist_identical": 30.0e-3,
    # Read-only check that an identical threat is already stored (§5.5.1).
    "threat_dedup_check": 1.2e-3,
    # Marshalling/unmarshalling one threat record inside a batched
    # anti-entropy ``threat-sync`` message; cheap, because the receiving
    # store still pays the full persist cost on apply.
    "threat_sync_record": 0.5e-3,
    # One point-to-point message between two nodes on the 100 MBit LAN.
    "network_latency": 0.3e-3,
}

#: The read-only cost table (category -> seconds), built once at import.
#: Read directly where a charge is a computed duration (a multicast round,
#: an interceptor chain).
COSTS: Mapping[str, float] = MappingProxyType(_SECONDS)


class CostLedger:
    """Charged costs by category, written only by the :func:`charger`
    functions bound to it.  Every charge books its count in ``counts``; a
    charge by category books nothing else, and ``totals`` folds its
    seconds in when read: one addition per charge, in charge order, so
    every total has a running sum's bits.  A caller's duration folds its
    category's pending table charges first, then adds itself.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._sums: dict[str, float] = {}  # seconds folded in so far
        self._folded: dict[str, int] = {}  # charges folded in so far

    @property
    def totals(self) -> dict[str, float]:
        """Seconds charged by category, in first-charge order."""
        return {category: self._fold(category) for category in self.counts}

    def _fold(self, category: str) -> float:
        count = self.counts[category]
        total = self._sums.get(category, 0.0)
        for _ in range(count - self._folded.get(category, 0)):
            total += _SECONDS[category]
        self._sums[category] = total
        self._folded[category] = count
        return total

    def total(self) -> float:
        return sum(self.totals.values())

    def summary(self) -> dict[str, Any]:
        totals = self.totals
        return {
            name: {"count": self.counts[name], "seconds": totals[name]}
            for name in sorted(totals)
        }


def charger(clock: Any, ledger: CostLedger) -> Callable[..., None]:
    """The charge function of one clock and ledger.

    Every modelled cost is spent through such a function, in one call:
    ``charge(category)`` spends the seconds :data:`COSTS` gives that
    category, ``charge(category, seconds)`` a duration the caller
    computed.  It lets the seconds pass on ``clock`` and books the charge
    in ``ledger``; a caller's duration is checked the way
    ``clock.advance`` checks one, and a NaN, infinite or negative one goes
    to ``advance``, which rejects it with the clock unmoved.

    Every entry of the table is finite and >= 0 (``tests/test_sim.py``
    holds it), so a charge by category skips ``advance`` and is one
    addition to the clock and one count: its seconds reach the ledger's
    ``totals`` when they are read.  The table never changes; threads that
    share a ledger share its dicts, as before.
    """
    seconds_of = _SECONDS
    counts, sums, folded = ledger.counts, ledger._sums, ledger._folded
    advance, inf = clock.advance, math.inf

    def charge(category: str, seconds: float | None = None) -> None:
        if seconds is None:
            try:
                clock.now += seconds_of[category]
                counts[category] = counts.get(category, 0) + 1
            except KeyError:
                raise AttributeError(f"no cost category {category!r}") from None
        elif 0.0 <= seconds < inf:
            # ``advance``'s own test: a finite, non-negative duration
            # passes without entering it.
            clock.now += seconds
            count = counts.get(category, 0)
            if count != folded.get(category, 0):
                ledger._fold(category)
            sums[category] = sums.get(category, 0.0) + seconds
            counts[category] = folded[category] = count + 1
        else:
            advance(seconds)  # raises, with the clock unmoved

    return charge
