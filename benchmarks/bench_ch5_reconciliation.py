"""Chapter 5 — Fig. 5.6: time required for the reconciliation phase.

Paper setup (§5.2): degraded-mode operations producing 200 identical
threats (stored once) or 1000 threat records (full history); after
reunification the replication service propagates missed updates (threat
records included) and the CCMgr re-evaluates the threats — all satisfied,
the best case.  Finding: replica reconciliation scales much worse with the
full threat history because it cannot benefit from identifying identical
threats, while constraint re-evaluation happens once per identity.

The second benchmark measures the threat-propagation message count of
digest anti-entropy against the historical rescan-and-multicast scheme.
"""

import string

from conftest import print_table
from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler, ThreatStoragePolicy
from repro.evaluation import figure_5_6
from repro.obs import Observability

# (node_count, distinct threats, occurrences each)
SCALES = ((4, 4, 2), (6, 8, 3), (8, 12, 4))


def test_fig_5_6_reconciliation_time(benchmark):
    results = benchmark.pedantic(
        lambda: figure_5_6(distinct_threats=40, occurrences_each=5),
        rounds=1,
        iterations=1,
    )
    rows = []
    for label, timing in results.items():
        rows.append(
            [
                label,
                f"{timing.replica_phase_seconds:.2f}",
                f"{timing.constraint_phase_seconds:.2f}",
                timing.threats_stored,
                timing.threats_reevaluated,
            ]
        )
    print_table(
        "Fig 5.6 — reconciliation time (simulated seconds)",
        ["policy", "replica phase", "constraint phase", "records stored", "re-evaluated"],
        rows,
    )
    once = results["identical_once"]
    full = results["full_history"]
    # Full history stores one record per occurrence; identical-once one
    # per identity.
    assert full.threats_stored == 5 * once.threats_stored
    # Both policies re-evaluate once per identity.
    assert full.threats_reevaluated == once.threats_reevaluated
    # Replica reconciliation scales worse with the full history (paper:
    # ~2.5x; the propagation of every stored record dominates).
    assert full.replica_phase_seconds > once.replica_phase_seconds * 2
    # Constraint reconciliation grows less steeply than the record count
    # (5x more records, but identical threats re-evaluate only once).
    assert full.constraint_phase_seconds < once.constraint_phase_seconds * 5


def test_reconciliation_motivates_parallel_business(benchmark):
    """§5.2's conclusion: reconciliation takes long enough that blocking
    the system for it is not feasible."""
    results = benchmark.pedantic(
        lambda: figure_5_6(distinct_threats=40, occurrences_each=5),
        rounds=1,
        iterations=1,
    )
    total = results["full_history"].replica_phase_seconds + results[
        "full_history"
    ].constraint_phase_seconds
    # At ~100 ops/s healthy throughput, this reconciliation window would
    # block hundreds of business operations.
    assert total > 1.0


def run_digest_scenario(node_count, distinct, occurrences):
    """Partition one node away, record threats on the degraded majority,
    heal, reconcile — and count the propagation messages."""
    obs = Observability()
    nodes = tuple(string.ascii_lowercase[:node_count])
    cluster = DedisysCluster(
        ClusterConfig(
            node_ids=nodes,
            obs=obs,
            threat_policy=ThreatStoragePolicy.FULL_HISTORY,
        )
    )
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    refs = [
        cluster.create_entity(nodes[0], "Flight", f"LH{index}", {"seats": 500})
        for index in range(distinct)
    ]
    cluster.partition(set(nodes[:-1]), {nodes[-1]})
    handler = AcceptAllHandler()
    for _ in range(occurrences):
        for ref in refs:
            cluster.invoke(nodes[0], ref, "sell_tickets", 1, negotiation_handler=handler)
    # Historical scheme: every member rescans its store after the merge
    # and multicasts each record to the group — one message per stored
    # record per holder, i.e. ∝ nodes × threat records.
    rescan_multicasts = sum(
        cluster.threat_stores[node].stored_records() for node in nodes
    )
    cluster.heal()
    report = cluster.reconcile()
    multicasts = obs.registry.counter("net_multicasts_total", "")
    digest_multicasts = int(multicasts.value(kind="threat-digest"))
    sync_multicasts = int(multicasts.value(kind="threat-sync"))
    return {
        "node_count": node_count,
        "distinct_threats": distinct,
        "occurrences_each": occurrences,
        "rescan_multicasts": rescan_multicasts,
        "digest_multicasts": digest_multicasts,
        "digest_total_multicasts": digest_multicasts + sync_multicasts,
        "sync_records": report.threat_sync_records,
        "sync_batches": report.threat_sync_batches,
    }


def test_digest_anti_entropy_message_scaling(benchmark):
    """Digest anti-entropy ships missing records, not nodes × threats."""
    entries = benchmark.pedantic(
        lambda: [run_digest_scenario(*scale) for scale in SCALES],
        rounds=1,
        iterations=1,
    )
    rows = []
    for entry in entries:
        rows.append(
            [
                entry["node_count"],
                entry["distinct_threats"] * entry["occurrences_each"],
                entry["rescan_multicasts"],
                entry["digest_total_multicasts"],
                f"{entry['rescan_multicasts'] / entry['digest_total_multicasts']:.1f}x",
            ]
        )
    print_table(
        "threat propagation multicasts — rescan vs digest anti-entropy",
        ["nodes", "records", "rescan (old)", "digest (new)", "reduction"],
        rows,
    )

    ratios = []
    for entry in entries:
        missing = entry["distinct_threats"] * entry["occurrences_each"]
        # Only the isolated node was missing records: one batch carries
        # exactly its missing set.
        assert entry["sync_batches"] == 1
        assert entry["sync_records"] == missing
        assert entry["digest_multicasts"] == entry["node_count"]
        # The headline claim: fewer messages than one-per-record-per-holder.
        assert entry["digest_total_multicasts"] < entry["rescan_multicasts"]
        ratios.append(entry["rescan_multicasts"] / entry["digest_total_multicasts"])
    # The reduction grows with scale instead of shrinking.
    assert ratios == sorted(ratios)
