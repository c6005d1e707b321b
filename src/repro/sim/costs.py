"""Cost model for the simulated substrate.

The dissertation's Chapter 5 numbers were measured on 2–3 GHz machines with
100 MBit links, MySQL persistence, and the Spread group-communication
toolkit.  We replace that testbed with a parametric cost model: every
substrate action advances the simulated clock by a modelled duration.  The
default values are calibrated against the paper's Figures 5.1–5.4 so that
both the *absolute scale* (~60–150 ops/s for single-node operations) and
the *relative shapes* reproduce: creates dominated by persistence plus
replica metadata, reads local and cheap, synchronous update propagation
paying one multicast round trip per write, threat persistence expensive.

All costs are expressed in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable


@dataclass(frozen=True)
class CostModel:
    """Durations charged for substrate actions.

    * ``invocation_base`` — JBoss proxy, marshalling, security and
      transaction association for one remote EJB invocation.
    * ``interceptor_hop`` — traversing one interceptor in the chain.
    * ``db_read`` / ``db_write`` — one CMP persistence access.
    * ``db_create`` / ``db_delete`` — entity creation/deletion incl. schema
      bookkeeping (heavier than a field write, per Fig. 5.1).
    * ``replica_metadata_write`` — storing JNDI name/primary key/serialized
      creation request for a replica (§5.1 names this as a create/delete
      slowdown cause).
    * ``replica_detail_write`` — per-update bookkeeping of replica details
      on the primary (§5.1: single-node DeDiSys writes drop to 57%).
    * ``adapt_monitor`` — passing through the ADAPT replication framework's
      component monitors (§5.1: 22 of the 27% empty-op loss).
    * ``ccm_notification`` — notifying the CCMgr before/after an invocation
      (§5.1: the remaining ~5% empty-op overhead).
    * ``multicast_base`` + ``multicast_per_node`` — one synchronous update
      propagation round (Spread multicast plus per-backup confirmation).
    * ``tx_remote_association`` — associating the propagated transaction
      context at a backup.
    * ``state_history_write`` — persisting one historical replica state in
      degraded mode (§5.1: degraded writes slightly slower than healthy).
    * ``repository_lookup_cached`` / ``repository_search`` — constraint
      repository access with and without the query cache (§2.3.2 reports
      0.25–0.52 µs cached lookups).
    * ``repository_dispatch`` — one compiled dispatch-table lookup covering
      every constraint type of a method at once (the throughput-engine
      repository); sized like a cached lookup, paid once per notification
      instead of per type.
    * ``update_batch_entry`` — marshalling one entity entry into a batched
      ``replica-update-batch`` multicast (the batched write path pays one
      multicast round plus this per coalesced entry).
    * ``constraint_validate`` — executing one ``validate()`` body (R5).
    * ``threat_negotiate`` — one negotiation round (callback dispatch).
    * ``threat_persist`` — persisting one consistency threat (at least
      three database objects initially, §5.2).
    * ``threat_persist_identical`` — persisting an additional identical
      threat under the full-history policy (two further objects, §5.2).
    * ``threat_dedup_check`` — read-only check that an identical threat is
      already stored (§5.5.1).
    * ``threat_sync_record`` — marshalling/unmarshalling one threat record
      inside a batched anti-entropy ``threat-sync`` message (cheap: the
      receiving store still pays the full persist cost on apply).
    """

    invocation_base: float = 4.0e-3
    interceptor_hop: float = 0.1e-3
    db_read: float = 2.5e-3
    db_write: float = 3.2e-3
    db_create: float = 12.0e-3
    db_delete: float = 8.0e-3
    replica_metadata_write: float = 19.0e-3
    replica_detail_write: float = 5.0e-3
    adapt_monitor: float = 2.1e-3
    ccm_notification: float = 0.2e-3
    multicast_base: float = 8.0e-3
    multicast_per_node: float = 0.9e-3
    tx_remote_association: float = 1.2e-3
    state_history_write: float = 1.4e-3
    repository_lookup_cached: float = 0.4e-6
    repository_search: float = 60.0e-6
    repository_dispatch: float = 0.4e-6
    update_batch_entry: float = 0.5e-3
    constraint_validate: float = 50.0e-6
    threat_negotiate: float = 8.0e-3
    threat_persist: float = 45.0e-3
    threat_persist_identical: float = 30.0e-3
    threat_dedup_check: float = 1.2e-3
    threat_sync_record: float = 0.5e-3
    network_latency: float = 0.3e-3

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every cost multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        values = {name: getattr(self, name) * factor for name in self.__dataclass_fields__}
        return CostModel(**values)

    def with_overrides(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class CostLedger:
    """Charged costs by category, for introspection in tests.

    Written only by the :func:`charger` functions bound to it.
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.totals.values())

    def summary(self) -> dict[str, Any]:
        return {
            name: {"count": self.counts[name], "seconds": self.totals[name]}
            for name in sorted(self.totals)
        }


def charger(
    clock: Any, costs: CostModel, ledger: CostLedger
) -> Callable[..., None]:
    """The charge function of one clock, cost model and ledger.

    Every modelled cost is spent through such a function, in one call:
    ``charge(category)`` spends the cost model's seconds for that category,
    ``charge(category, seconds)`` a duration the caller computed.  It books
    the seconds under ``category`` in ``ledger`` and lets them pass on
    ``clock``, whose ``advance`` rejects NaN, infinite and negative
    durations (a wall clock validates and stays put).

    The per-category seconds are read off the frozen ``costs`` here, once;
    the table is complete before the first charge and never changes, so
    threads that share the ledger share nothing new.
    """
    seconds_of = {name: getattr(costs, name) for name in costs.__dataclass_fields__}
    totals, counts = ledger.totals, ledger.counts
    advance = clock.advance

    def charge(category: str, seconds: float | None = None) -> None:
        if seconds is None:
            try:
                seconds = seconds_of[category]
            except KeyError:
                raise AttributeError(
                    f"{type(costs).__name__!r} object has no attribute {category!r}"
                ) from None
        totals[category] = totals.get(category, 0.0) + seconds
        counts[category] = counts.get(category, 0) + 1
        advance(seconds)

    return charge
