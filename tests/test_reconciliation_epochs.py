"""Epoch-aware reconciliation: partial heals, cross-epoch conflicts,
digest anti-entropy, and threat-resolution propagation.

Regression suite for three historical bugs:

* a partial heal merging two minority partitions was silently ignored
  (only ``partitions()[0]`` was ever reconciled);
* write-write conflicts across partition epochs were masked because
  update records were grouped by node-set intersection;
* resolved/deferred bookkeeping leaked — conflicts were cleared while
  deferred threats still needed them, and satisfied threats stayed on
  peer stores.
"""

import io
import json

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    ticket_constraint_registration,
)
from repro.core import AcceptAllHandler, ThreatStoragePolicy
from repro.objects import Entity
from repro.obs import Observability

NODES = ("a", "b", "c")
NODES5 = ("a", "b", "c", "d", "e")


class Cell(Entity):
    fields = {"value": 0}


def make_flight_cluster(node_ids=NODES, **config_kwargs):
    cluster = DedisysCluster(ClusterConfig(node_ids=node_ids, **config_kwargs))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def make_cell_cluster(**config_kwargs):
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, **config_kwargs))
    cluster.deploy(Cell)
    return cluster


def group_report(report, members):
    """The per-group report for one merged partition."""
    wanted = frozenset(members)
    matches = [group for group in report.groups if group.merged_partition == wanted]
    assert matches, (wanted, [g.merged_partition for g in report.groups])
    return matches[0]


class TestPartialHeal:
    """A heal that merges two minority partitions must reconcile them."""

    def _split_cluster(self, **config_kwargs):
        cluster = make_flight_cluster(NODES5, **config_kwargs)
        ref_d = cluster.create_entity("d", "Flight", "LH-D", {"seats": 80})
        ref_e = cluster.create_entity("e", "Flight", "LH-E", {"seats": 50})
        cluster.invoke("d", ref_d, "sell_tickets", 10)
        cluster.partition({"a", "b", "c"}, {"d"}, {"e"})
        handler = AcceptAllHandler()
        cluster.invoke("d", ref_d, "sell_tickets", 2, negotiation_handler=handler)
        cluster.invoke("e", ref_d, "sell_tickets", 3, negotiation_handler=handler)
        cluster.invoke("e", ref_e, "sell_tickets", 5, negotiation_handler=handler)
        return cluster, ref_d, ref_e

    def test_singleton_partitions_are_not_reconciled(self):
        cluster, ref_d, _ = self._split_cluster()
        report = cluster.reconcile()
        # Only the (unchanged but non-trivial) majority group runs; the
        # isolated writers keep their update records for the real merge.
        assert [g.merged_partition for g in report.groups] == [
            frozenset({"a", "b", "c"})
        ]
        pending_nodes = {
            record.node for record in cluster.replication.pending_update_records()
        }
        assert {"d", "e"} <= pending_nodes

    def test_partial_heal_reconciles_minority_merge(self):
        cluster, ref_d, ref_e = self._split_cluster()
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        merge = group_report(report, {"d", "e"})
        # The concurrent sells on ref_d in {d} and {e} are a write-write
        # conflict, detected and additively merged inside the minority
        # pair (historically this group was never reconciled at all).
        assert merge.replica_conflicts == 1
        assert cluster.entity_on("d", ref_d).get_sold() == 15
        assert cluster.entity_on("e", ref_d).get_sold() == 15
        assert cluster.entity_on("d", ref_e).get_sold() == 5
        # Threat stores of the pair are unioned...
        identities_d = set(cluster.threat_stores["d"].identities())
        identities_e = set(cluster.threat_stores["e"].identities())
        assert identities_d == identities_e
        assert len(identities_d) == 2
        # ...but the constraints stay threatened while the majority is
        # unreachable: re-evaluation is postponed, nothing is lost.
        assert merge.postponed == 2
        # The majority partition never saw those flights' degraded updates.
        assert cluster.entity_on("a", ref_d).get_sold() == 10

    def test_full_heal_after_partial_heal_resolves(self):
        cluster, ref_d, ref_e = self._split_cluster()
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        cluster.heal()
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        assert report.satisfied_removed == 2
        for node in NODES5:
            assert cluster.threat_stores[node].count_identities() == 0
            assert cluster.entity_on(node, ref_d).get_sold() == 15
            assert cluster.entity_on(node, ref_e).get_sold() == 5

    def test_partial_heal_ships_missing_threat_records(self):
        cluster, ref_d, ref_e = self._split_cluster()
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        merge = group_report(report, {"d", "e"})
        # Both writers threatened ref_d, so that identity exists on both
        # sides; only e's ref_e threat is missing on d — exactly one
        # record ships, in one batch.
        assert merge.threat_sync_records == 1
        assert merge.threat_sync_batches == 1


class TestCrossEpochConflicts:
    """Update-record grouping must follow visibility chains, not node-set
    intersection across epochs."""

    def test_overlapping_partitions_from_different_epochs_conflict(self):
        cluster = make_cell_cluster()
        ref = cluster.create_entity("a", "Cell", "cell")
        cluster.partition({"a", "b"}, {"c"})
        cluster.invoke("a", ref, "set_value", 1)
        # Second epoch: b moves to c's side and writes independently of
        # a's concurrent update.
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 2)
        cluster.invoke("b", ref, "set_value", 3)
        cluster.heal()
        report = cluster.reconcile()
        # Node b bridges {a, b} and {b, c}; intersection-grouping merged
        # everything into one partition and masked this conflict.
        assert report.replica_conflicts == 1
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 3

    def test_same_writer_across_epochs_is_not_a_conflict(self):
        cluster = make_cell_cluster()
        ref = cluster.create_entity("a", "Cell", "cell")
        cluster.partition({"a", "b"}, {"c"})
        cluster.invoke("a", ref, "set_value", 1)
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 2)
        cluster.heal()
        report = cluster.reconcile()
        # One visibility chain: a saw its own earlier update.
        assert report.replica_conflicts == 0
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 2


class TestConflictRetention:
    """Conflicts must outlive runs that defer threats needing them."""

    def _overbook(self, cluster):
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        cluster.partition({"a"}, {"b", "c"})
        handler = AcceptAllHandler()
        cluster.invoke("a", ref, "sell_tickets", 7, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 8, negotiation_handler=handler)
        cluster.heal()
        return ref, {ref: 70}

    def test_deferred_threat_keeps_conflict_answer(self):
        cluster = make_flight_cluster()
        ref, baselines = self._overbook(cluster)
        first = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        assert first.deferred == 1
        # Closing a run must not wipe this while a deferred threat still
        # needs its had_replica_conflict answer.
        assert cluster.replication.had_replica_conflict(ref)

        answers = []

        def fixing_handler(violation):
            answers.append(violation.had_replica_conflict)
            violation.context_entity.cancel_tickets(5)
            return True

        second = cluster.reconcile(constraint_handler=fixing_handler)
        assert second.resolved_by_handler == 1
        assert answers == [True]
        # With no surviving threat the conflict is finally forgotten.
        assert not cluster.replication.had_replica_conflict(ref)

    def test_resolved_threat_removed_from_peer_stores(self):
        cluster = make_flight_cluster()
        ref, baselines = self._overbook(cluster)
        cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        for node in NODES:
            assert cluster.threat_stores[node].count_identities() == 1
        # The operator's business operation satisfies the constraint
        # again; §4.4 removal must reach the replicated records too.
        cluster.invoke("a", ref, "cancel_tickets", 5)
        for node in NODES:
            assert cluster.threat_stores[node].count_identities() == 0


class TestDigestAntiEntropy:
    """One digest round per reconciled group; a threat-sync goes only to a
    member that lacks records, and the coordinator's own missing records
    arrive in the digest replies."""

    def _run(self, policy, seller="a", isolated=("c",), distinct=6, occurrences=4):
        obs = Observability()
        cluster = make_flight_cluster(obs=obs, threat_policy=policy)
        refs = [
            cluster.create_entity("a", "Flight", f"LH{index}", {"seats": 80})
            for index in range(distinct)
        ]
        cluster.partition(set(NODES) - set(isolated), set(isolated))
        handler = AcceptAllHandler()
        for _ in range(occurrences):
            for ref in refs:
                cluster.invoke(seller, ref, "sell_tickets", 1, negotiation_handler=handler)
        cluster.heal()
        report = cluster.reconcile()
        return cluster, report, obs

    @staticmethod
    def _rounds(obs, kind):
        return obs.registry.counter("net_multicasts_total", "").value(kind=kind)

    @staticmethod
    def _synced(obs):
        """``(receiving node, records)`` per applied threat-sync batch."""
        return [(event.node, event.data["records"]) for event in obs.events("threat_sync")]

    def _assert_resolved_everywhere(self, cluster, report, obs):
        # All six identities re-evaluated satisfied, removed by the
        # coordinator and, in one threat-resolved round, by every member.
        assert report.satisfied_removed == 6
        assert self._rounds(obs, "threat-resolved") == 1
        for node in NODES:
            assert cluster.threat_stores[node].count_identities() == 0

    def test_full_history_ships_one_batch_to_the_member_that_lacks_records(self):
        cluster, report, obs = self._run(ThreatStoragePolicy.FULL_HISTORY)
        # c was missing all 24 records; they arrive in ONE batch, and b,
        # which holds them already, gets none.
        assert self._rounds(obs, "threat-digest") == 1
        assert self._rounds(obs, "threat-sync") == 1
        assert self._synced(obs) == [("c", 24)]
        assert (report.threat_sync_batches, report.threat_sync_records) == (1, 24)
        self._assert_resolved_everywhere(cluster, report, obs)

    def test_identical_once_ships_one_record_per_identity(self):
        cluster, report, obs = self._run(ThreatStoragePolicy.IDENTICAL_ONCE)
        assert self._synced(obs) == [("c", 6)]
        assert (report.threat_sync_batches, report.threat_sync_records) == (1, 6)
        self._assert_resolved_everywhere(cluster, report, obs)

    @pytest.mark.parametrize("policy", list(ThreatStoragePolicy))
    def test_the_coordinator_takes_its_missing_records_from_the_replies(self, policy):
        # b and c both hold every record the isolated coordinator lacks and
        # both offer them; the coordinator applies each once, and nobody
        # needs a threat-sync message.
        cluster, report, obs = self._run(policy, seller="b", isolated=("a",))
        records = 24 if policy is ThreatStoragePolicy.FULL_HISTORY else 6
        assert self._rounds(obs, "threat-digest") == 1
        assert self._rounds(obs, "threat-sync") == 0
        assert self._synced(obs) == [("a", records)]
        assert report.threat_sync_records == records
        self._assert_resolved_everywhere(cluster, report, obs)

    def test_one_digest_round_even_when_stores_empty(self):
        obs = Observability()
        cluster = make_flight_cluster(obs=obs)
        cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.partition({"a"}, {"b", "c"})
        cluster.heal()
        report = cluster.reconcile()
        assert len(report.groups) == 1
        assert self._rounds(obs, "threat-digest") == 1
        assert self._rounds(obs, "threat-sync") == 0
        assert self._rounds(obs, "threat-resolved") == 0

    def test_one_digest_round_per_reconciled_group(self):
        cluster, ref_d, _ = TestPartialHeal()._split_cluster(obs=Observability())
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        obs = cluster.obs
        assert len(report.groups) == 2
        assert self._rounds(obs, "threat-digest") == 2
        # Only d, the pair's coordinator, lacked a record (e's ref_e
        # threat), and it came in e's digest reply.
        assert self._rounds(obs, "threat-sync") == 0
        assert self._synced(obs) == [("d", 1)]


class TestDigestDeterminism:
    """Same-seed runs of the digest exchange trace byte-identically."""

    def _partial_heal_scenario(self):
        obs = Observability()
        cluster = make_flight_cluster(NODES5, obs=obs)
        ref_d = cluster.create_entity("d", "Flight", "LH-D", {"seats": 80})
        ref_e = cluster.create_entity("e", "Flight", "LH-E", {"seats": 50})
        cluster.invoke("d", ref_d, "sell_tickets", 10)
        cluster.partition({"a", "b", "c"}, {"d"}, {"e"})
        handler = AcceptAllHandler()
        cluster.invoke("d", ref_d, "sell_tickets", 2, negotiation_handler=handler)
        cluster.invoke("e", ref_d, "sell_tickets", 3, negotiation_handler=handler)
        cluster.invoke("e", ref_e, "sell_tickets", 5, negotiation_handler=handler)
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        cluster.heal()
        cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        return obs

    @staticmethod
    def _trace_bytes(obs):
        stream = io.StringIO()
        obs.export_jsonl(stream)
        return stream.getvalue().encode("utf-8")

    def test_same_seed_trace_byte_identical(self):
        first = self._partial_heal_scenario()
        second = self._partial_heal_scenario()
        assert self._trace_bytes(first) == self._trace_bytes(second)

    def test_same_seed_metrics_equal(self):
        first = self._partial_heal_scenario()
        second = self._partial_heal_scenario()
        assert json.dumps(first.snapshot(), sort_keys=True) == json.dumps(
            second.snapshot(), sort_keys=True
        )


class TestReportAggregation:
    def test_healthy_noop_reports_current_epoch(self):
        cluster = make_flight_cluster()
        report = cluster.reconcile()
        assert report.groups == ()
        assert report.threats_reevaluated == 0
        assert report.merged_partition == frozenset(NODES)

    def test_aggregate_sums_group_counters(self):
        cluster, ref_d, ref_e = TestPartialHeal()._split_cluster()
        cluster.partition({"a", "b", "c"}, {"d", "e"})
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge({ref_d: 10}))
        assert report.merged_partition == frozenset(NODES5)
        assert report.replica_conflicts == sum(
            group.replica_conflicts for group in report.groups
        )
        assert report.postponed == sum(group.postponed for group in report.groups)
        assert report.total_seconds == pytest.approx(
            sum(group.total_seconds for group in report.groups)
        )
