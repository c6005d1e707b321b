"""Tests for the reconciliation phase (§3.3, §4.4, Fig. 4.6)."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from repro.core import (
    AcceptAllHandler,
    ConstraintPriority,
    PredicateConstraint,
    SatisfactionDegree,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.core.threats import ReconciliationInstructions

NODES = ("a", "b", "c")


def make_flight_cluster(**config_kwargs):
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, **config_kwargs))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def record_multicast_kinds(cluster):
    """The kinds of every multicast round ``cluster`` sends from now on."""
    kinds = []
    multicast = cluster.channel.multicast

    def recording(source, kind, *args, **kwargs):
        kinds.append(kind)
        return multicast(source, kind, *args, **kwargs)

    cluster.channel.multicast = recording
    return kinds


def overbook_during_partition(cluster, sold_healthy=70, in_a=7, in_b=8):
    """Run the §1.3 scenario up to the heal: returns (ref, baselines)."""
    ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
    cluster.invoke("a", ref, "sell_tickets", sold_healthy)
    baselines = {ref: sold_healthy}
    cluster.partition({"a"}, {"b", "c"})
    cluster.invoke("a", ref, "sell_tickets", in_a, negotiation_handler=AcceptAllHandler())
    cluster.invoke("b", ref, "sell_tickets", in_b, negotiation_handler=AcceptAllHandler())
    cluster.heal()
    return ref, baselines


class TestFlightBookingReconciliation:
    """The complete §1.3 story."""

    def test_additive_merge_overbooks(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        handler = RebookingReconciliationHandler(lambda r: cluster.entity_on("a", r))
        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baselines), constraint_handler=handler
        )
        assert report.replica_conflicts == 1
        assert report.violations_found == 1
        assert report.resolved_by_handler == 1
        assert handler.rebooked == [(ref, 5)]  # 85 sold, 80 seats
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == 80

    def test_threats_removed_after_resolution(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        histories = [cluster.nodes[node].state_history for node in NODES]
        assert sum(history.total_entries() for history in histories) == 2
        handler = RebookingReconciliationHandler(lambda r: cluster.entity_on("a", r))
        cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baselines), constraint_handler=handler
        )
        for node in NODES:
            assert cluster.threat_stores[node].count_identities() == 0
        # The degraded period is reconciled: nothing is left to roll back to.
        assert [history.total_entries() for history in histories] == [0, 0, 0]

    def test_satisfied_threat_removed_without_handler(self):
        # Selling few enough tickets that the merge stays within capacity.
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster, sold_healthy=10, in_a=2, in_b=3)
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        assert report.violations_found == 0
        assert report.satisfied_removed >= 1
        assert cluster.entity_on("c", ref).get_sold() == 15

    def test_without_handler_violation_deferred(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        assert report.violations_found == 1
        assert report.deferred == 1
        # the threat is kept, marked deferred
        store = cluster.threat_stores["a"]
        assert store.count_identities() == 1
        assert store.pending()[0].deferred
        # ... and so is the history a later run may roll its object back to.
        assert [v.state["sold"] for v in cluster.nodes["a"].state_history.versions_of(ref)] == [77]
        assert [v.state["sold"] for v in cluster.nodes["b"].state_history.versions_of(ref)] == [78]

    def test_deferred_cleanup_via_business_operation(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        # later the operator cancels the excess tickets as a business op
        cluster.invoke("a", ref, "cancel_tickets", 5)
        assert cluster.threat_stores["a"].count_identities() == 0

    def test_handler_returning_false_defers(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        notified = []

        def deferring_handler(violation):
            notified.append(violation.threat.constraint_name)
            return False

        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baselines),
            constraint_handler=deferring_handler,
        )
        assert notified == ["TicketConstraint"]
        assert report.deferred == 1

    def test_handler_lying_about_resolution_retries(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        calls = []

        def lying_handler(violation):
            calls.append(1)
            return True  # claims resolved but fixes nothing

        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baselines),
            constraint_handler=lying_handler,
        )
        assert len(calls) == 3  # max retries
        assert report.deferred == 1

    def test_report_timing_fields(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        assert report.replica_phase_seconds > 0
        assert report.constraint_phase_seconds > 0
        assert report.total_seconds == pytest.approx(
            report.replica_phase_seconds + report.constraint_phase_seconds
        )

    def test_reconcile_in_healthy_system_is_noop(self):
        cluster = make_flight_cluster()
        cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        report = cluster.reconcile()
        assert report.threats_reevaluated == 0
        assert report.replica_conflicts == 0


def cut_closing_round_to(cluster, member):
    """Drop the next ``replica-reconciled`` delivery to ``member``: the
    round is still sent (and charged), but ``member`` never applies it."""
    multicast = cluster.channel.multicast

    def cut(source, kind, *args, **kwargs):
        if kind != "replica-reconciled":
            return multicast(source, kind, *args, **kwargs)
        cluster.channel.multicast = multicast
        handler = cluster.channel._handlers.pop(member)
        try:
            return multicast(source, kind, *args, **kwargs)
        finally:
            cluster.channel._handlers[member] = handler

    cluster.channel.multicast = cut


class TestCutClosingRound:
    """A member the closing round missed keeps its update records and
    history; the next run names them again instead of merging them again."""

    def finish_after_cut(self, cluster, baselines, constraint_handler=None):
        cut_closing_round_to(cluster, "b")
        first = cluster.reconcile(AdditiveSoldMerge(baselines), constraint_handler)
        assert first.replica_conflicts == 1
        after_first = [cluster.entity_on(node, ref).state() for node in NODES for ref in baselines]
        assert {record.node for record in cluster.replication.pending_update_records()} == {"b"}
        histories = [cluster.nodes[node].state_history.total_entries() for node in NODES]
        assert histories == [0, 1, 0]

        second = cluster.reconcile(AdditiveSoldMerge(baselines), constraint_handler)
        assert [group.merged_partition for group in second.groups] == [frozenset(NODES)]
        assert second.replica_conflicts == 0
        assert [cluster.entity_on(node, ref).state() for node in NODES for ref in baselines] == after_first
        assert cluster.replication.pending_update_records() == []
        assert [cluster.nodes[node].state_history.total_entries() for node in NODES] == [0, 0, 0]
        assert cluster.reconcile().groups == ()

    def test_sold_is_counted_once(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster, sold_healthy=10, in_a=2, in_b=3)
        self.finish_after_cut(cluster, baselines)
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == 15

    def test_the_constraint_phase_clean_up_is_not_undone(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        handler = RebookingReconciliationHandler(lambda r: cluster.entity_on("a", r))
        self.finish_after_cut(cluster, baselines, handler)
        assert handler.rebooked == [(ref, 5)]
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == 80


class TestThreatPropagation:
    def test_threats_from_both_partitions_merged(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        # before reconciliation, node a only knows its own threat
        # occurrence; afterwards all stores agree
        cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        identities = {
            node: set(cluster.threat_stores[node].identities()) for node in NODES
        }
        assert identities["a"] == identities["b"] == identities["c"]

    def test_threats_replicated_within_partition_when_accepted(self):
        cluster = make_flight_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke(
            "b", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler()
        )
        # accepted on b; replicated to its partition member c but not a
        assert cluster.threat_stores["b"].count_identities() == 1
        assert cluster.threat_stores["c"].count_identities() == 1
        assert cluster.threat_stores["a"].count_identities() == 0


class TestPostponedThreats:
    def test_still_partitioned_threat_postponed(self):
        cluster = make_flight_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        cluster.partition({"a"}, {"b"}, {"c"})
        cluster.invoke(
            "a", ref, "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        # only b rejoins a; c remains isolated -> still degraded
        cluster.network.partition({"a", "b"}, {"c"})
        report = cluster.reconcile()
        assert report.postponed == 1
        assert cluster.threat_stores["a"].count_identities() == 1

    def test_postponed_threat_resolves_after_full_heal(self):
        cluster = make_flight_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        cluster.partition({"a"}, {"b"}, {"c"})
        cluster.invoke(
            "a", ref, "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        cluster.network.partition({"a", "b"}, {"c"})
        cluster.reconcile()
        cluster.heal()
        report = cluster.reconcile()
        assert report.satisfied_removed == 1
        assert cluster.threat_stores["a"].count_identities() == 0


class TestRollbackPath:
    def test_rollback_to_consistent_state(self):
        cluster = make_flight_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        cluster.partition({"a"}, {"b", "c"})

        def allow_rollback(constraint, threat, ctx):
            threat.instructions = ReconciliationInstructions(allow_rollback=True)
            return True

        from repro.core import CallbackNegotiationHandler

        handler = CallbackNegotiationHandler(allow_rollback)
        cluster.invoke("a", ref, "sell_tickets", 7, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 8, negotiation_handler=handler)
        cluster.heal()
        baselines = {ref: 70}
        kinds = record_multicast_kinds(cluster)
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        # rollback found the pre-overbooking state in the history: b's 78,
        # the newest state, one undone update back from the merged 85
        assert report.resolved_by_rollback == 1
        assert report.updates_rolled_back == 1
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == 78
        # The members' histories arrive in one round.
        assert kinds.count("replica-history") == 1

    def test_conflict_notification_for_satisfied_threat(self):
        cluster = make_flight_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 10)
        cluster.partition({"a"}, {"b", "c"})

        def notify_me(constraint, threat, ctx):
            threat.instructions = ReconciliationInstructions(
                notify_on_replica_conflict=True
            )
            return True

        from repro.core import CallbackNegotiationHandler

        handler = CallbackNegotiationHandler(notify_me)
        cluster.invoke("a", ref, "sell_tickets", 2, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 3, negotiation_handler=handler)
        cluster.heal()
        notifications = []
        cluster.reconciliation.on_conflict_notification = notifications.append
        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge({ref: 10})
        )
        assert report.conflict_notifications == 1
        assert notifications[0].constraint_name == "TicketConstraint"


class TestRemovedConstraint:
    def test_threat_for_removed_constraint_dropped(self):
        cluster = make_flight_cluster()
        ref, baselines = overbook_during_partition(cluster)
        cluster.repository.remove("TicketConstraint")
        report = cluster.reconcile(replica_handler=AdditiveSoldMerge(baselines))
        assert report.threats_reevaluated == 1
        assert cluster.threat_stores["a"].count_identities() == 0
