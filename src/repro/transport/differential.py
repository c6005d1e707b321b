"""Canonical scenarios with backend-independent outcome digests.

The sim-vs-real differential harness runs the *same scripted scenario* on
the deterministic simulator and on the asyncio backend and compares
**outcome digests**: committed entity states, threat-store contents, and
reconciliation-report counters — everything the dissertation's guarantees
speak about — while excluding everything timing-dependent (simulated
seconds, wall seconds, message counts, trace ordering).  The sim trace
remains the golden reference; the real backend must land on the same
final facts.

Three canonical scenarios cover the paper's core story:

* ``flight_booking`` — §1.3: sell in a partition on both sides, additive
  merge overbooks, the rebooking handler cleans up;
* ``oscillating_partition`` — repeated partition/heal cycles with writes
  in every phase (the PR 7 adaptation scenario's fault shape);
* ``reconcile_threats`` — degraded writes on stale replicas accept
  POSSIBLY_SATISFIED threats; reconciliation re-evaluates and resolves.

Every step is an explicit operation — no time-based triggers — so the
script is executable on a substrate where time cannot be fast-forwarded.
"""

from __future__ import annotations

from typing import Any, Callable

from ..apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from ..cluster import ClusterConfig, DedisysCluster
from ..core import ConsistencyThreatRejected, ConstraintViolated


#: Scenario registry: name -> callable(cluster) -> outcome digest extras.
SCENARIOS: dict[str, "Callable[[DedisysCluster], dict[str, Any]]"] = {}


def scenario(name: str) -> Callable:
    def register(fn: Callable[[DedisysCluster], dict[str, Any]]) -> Callable:
        SCENARIOS[name] = fn
        return fn

    return register


def build_cluster(transport: "str | Any", **overrides: Any) -> DedisysCluster:
    """The canonical 3-node flight-booking cluster on either backend."""
    config = ClusterConfig(
        node_ids=("a", "b", "c"),
        transport=transport,
        **overrides,
    )
    cluster = DedisysCluster(config)
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def outcome_digest(cluster: DedisysCluster, extras: dict[str, Any]) -> dict[str, Any]:
    """Everything a scenario's outcome promises, timing excluded.

    * per-node committed entity states (sorted attribute tuples);
    * per-node threat accounting (in-memory records, persisted rows);
    * per-node surviving threat identities;
    * the last reconciliation's logical counters (no phase timings);
    * scenario-specific extras (op results, error classes, rebookings).
    """
    states: dict[str, Any] = {}
    if cluster.replication is not None:
        for class_name in cluster.replication.replicated_classes():
            for ref in cluster.replication.refs_of_class(class_name):
                states[str(ref)] = {
                    str(node): state
                    for node, state in sorted(cluster.replica_states(ref).items())
                }
    threats = {
        str(node): sorted(str(identity) for identity in store.identities())
        for node, store in sorted(cluster.threat_stores.items())
    }
    accounting = {
        str(node): counts
        for node, counts in sorted(cluster.threat_accounting().items())
    }
    report = cluster.last_reconciliation
    reconciliation = None
    if report is not None:
        reconciliation = {
            "replica_conflicts": report.replica_conflicts,
            "threats_reevaluated": report.threats_reevaluated,
            "satisfied_removed": report.satisfied_removed,
            "violations_found": report.violations_found,
            "resolved_by_rollback": report.resolved_by_rollback,
            "resolved_by_handler": report.resolved_by_handler,
            "deferred": report.deferred,
            "postponed": report.postponed,
        }
    return {
        "states": states,
        "threats": threats,
        "threat_accounting": accounting,
        "reconciliation": reconciliation,
        "modes": {
            str(node): cluster.mode_of(node).value for node in cluster.nodes
        },
        **extras,
    }


def run_scenario(name: str, transport: "str | Any") -> dict[str, Any]:
    """Run one canonical scenario on ``transport``; return its digest."""
    script = SCENARIOS[name]
    cluster = build_cluster(transport)
    try:
        extras = script(cluster)
        return outcome_digest(cluster, extras)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@scenario("flight_booking")
def flight_booking(cluster: DedisysCluster) -> dict[str, Any]:
    """§1.3: partitioned selling, additive merge, rebooking clean-up."""
    ref = cluster.create_entity(
        "a", "Flight", "LH1234", {"flight_number": "LH1234", "seats": 80, "sold": 70}
    )
    cluster.invoke("a", ref, "sell_tickets", 5)  # healthy: 75 of 80
    baseline = {ref: 75}
    cluster.partition({"a"}, {"b", "c"})
    # Each side stays within capacity on its own replica (79 and 78 of
    # 80); only the additive merge overbooks (75 + 4 + 3 = 82 > 80).
    sold_a = cluster.invoke("a", ref, "sell_tickets", 4)
    sold_b = cluster.invoke("b", ref, "sell_tickets", 3)
    cluster.heal()
    handler = RebookingReconciliationHandler(
        lambda flight_ref: cluster.entity_on("a", flight_ref)
    )
    cluster.reconcile(
        replica_handler=AdditiveSoldMerge(baseline),
        constraint_handler=handler,
    )
    return {
        "op_results": {"sold_a": sold_a, "sold_b": sold_b},
        "rebooked": [(str(flight_ref), count) for flight_ref, count in handler.rebooked],
    }


@scenario("oscillating_partition")
def oscillating_partition(cluster: DedisysCluster) -> dict[str, Any]:
    """Partition/heal cycles with writes and reconciliation per cycle."""
    refs = {
        oid: cluster.create_entity(
            "a", "Flight", oid, {"flight_number": oid, "seats": 100, "sold": 0}
        )
        for oid in ("OS100", "OS200")
    }
    outcomes: list[Any] = []
    splits = [
        ({"a"}, {"b", "c"}),
        ({"a", "b"}, {"c"}),
        ({"b"}, {"a", "c"}),
    ]
    for cycle, split in enumerate(splits):
        cluster.partition(*split)
        for oid, ref in sorted(refs.items()):
            for caller in ("a", "b", "c"):
                try:
                    outcomes.append(
                        (cycle, caller, oid, cluster.invoke(caller, ref, "sell_tickets", 1))
                    )
                except (ConstraintViolated, ConsistencyThreatRejected) as exc:
                    outcomes.append((cycle, caller, oid, type(exc).__name__))
        cluster.heal()
        cluster.reconcile()
    return {"op_outcomes": outcomes}


@scenario("reconcile_threats")
def reconcile_threats(cluster: DedisysCluster) -> dict[str, Any]:
    """Degraded writes accept threats on stale replicas; reconcile resolves.

    Writes issued from the partition *without* the designated primary run
    on a temporary primary whose replica is possibly stale — the CCMgr
    degrades the satisfaction degree and accepts the sale as a
    POSSIBLY_SATISFIED threat (§3.1).  After the heal, re-evaluation on
    merged state finds the constraint satisfied and removes every threat.
    """
    ref = cluster.create_entity(
        "a", "Flight", "TH1", {"flight_number": "TH1", "seats": 50, "sold": 10}
    )
    threats_before: dict[str, int] = {}
    cluster.partition({"a"}, {"b", "c"})
    cluster.invoke("b", ref, "sell_tickets", 2)  # temp primary b: stale view
    cluster.invoke("c", ref, "sell_tickets", 1)  # routed to temp primary
    threats_before = {
        str(node): store.stored_records()
        for node, store in sorted(cluster.threat_stores.items())
    }
    cluster.heal()
    cluster.reconcile(replica_handler=AdditiveSoldMerge({ref: 10}))
    return {"threats_during_degraded": threats_before}
