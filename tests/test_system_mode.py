"""Tests for the Fig. 1.4 system-mode state machine."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    ticket_constraint_registration,
)
from repro.core import AcceptAllHandler
from repro.core.system_mode import HISTORY_TAIL, SystemMode, SystemModeTracker
from repro.membership import topology_gms
from repro.net import SimNetwork
from repro.sim import SimClock

NODES = ("a", "b", "c")


@pytest.fixture
def cluster():
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


class TestTrackerStandalone:
    def test_initially_healthy(self):
        network = SimNetwork(NODES)
        tracker = SystemModeTracker(topology_gms(network), SimClock())
        for node in NODES:
            assert tracker.mode_of(node) is SystemMode.HEALTHY

    def test_partition_degrades_all_nodes(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        for node in NODES:
            assert tracker.mode_of(node) is SystemMode.DEGRADED

    def test_heal_enters_reconciliation_not_healthy(self):
        # Fig. 1.4: degraded -> reconciliation -> healthy; repair alone
        # does not make the system healthy.
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        for node in NODES:
            assert tracker.mode_of(node) is SystemMode.RECONCILIATION

    def test_finish_reconciliation_clean(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        tracker.finish_reconciliation(frozenset(NODES), clean=True)
        for node in NODES:
            assert tracker.mode_of(node) is SystemMode.HEALTHY

    def test_finish_reconciliation_dirty_stays(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        tracker.finish_reconciliation(frozenset(NODES), clean=False)
        for node in NODES:
            assert tracker.mode_of(node) is SystemMode.RECONCILIATION

    def test_new_failure_during_reconciliation_degrades(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        network.partition({"b"}, {"a", "c"})
        assert tracker.mode_of("a") is SystemMode.DEGRADED

    def test_history_records_transitions(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        history = tracker.history("a")
        assert [change.current for change in history] == [
            SystemMode.DEGRADED,
            SystemMode.RECONCILIATION,
        ]

    def test_history_keeps_a_tail_and_counts_every_transition(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        for _ in range(20):
            network.partition({"a"}, {"b", "c"})
            network.heal_all()
            tracker.finish_reconciliation(frozenset(NODES), clean=True)
        assert tracker.transitions == 20 * 3 * len(NODES)
        history = tracker.history()
        assert len(history) == HISTORY_TAIL
        assert [change.current for change in history[-3:]] == [SystemMode.HEALTHY] * 3

    def test_listeners_notified(self):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        tracker = SystemModeTracker(gms, network.scheduler.clock)
        changes = []
        tracker.add_listener(changes.append)
        network.partition({"a"}, {"b", "c"})
        assert {change.node for change in changes} == set(NODES)

    def test_unknown_node(self):
        network = SimNetwork(NODES)
        tracker = SystemModeTracker(topology_gms(network), SimClock())
        with pytest.raises(KeyError):
            tracker.mode_of("zzz")


class TestClusterIntegration:
    def test_full_lifecycle(self, cluster):
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 100})
        assert cluster.mode_of("a") is SystemMode.HEALTHY
        cluster.partition({"a"}, {"b", "c"})
        assert cluster.mode_of("a") is SystemMode.DEGRADED
        cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
        cluster.heal()
        assert cluster.mode_of("a") is SystemMode.RECONCILIATION
        report = cluster.reconcile()
        assert report.postponed == 0
        for node in NODES:
            assert cluster.mode_of(node) is SystemMode.HEALTHY

    def test_deferred_cleanup_keeps_reconciliation_mode(self, cluster):
        ref = cluster.create_entity("a", "Flight", "f1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 70)
        baseline = {ref: 70}
        cluster.partition({"a"}, {"b", "c"})
        handler = AcceptAllHandler()
        cluster.invoke("a", ref, "sell_tickets", 7, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 8, negotiation_handler=handler)
        cluster.heal()
        # no constraint handler: the violation is deferred
        cluster.reconcile(replica_handler=AdditiveSoldMerge(baseline))
        assert cluster.mode_of("a") is SystemMode.RECONCILIATION
        # the operator's clean-up plus a second reconciliation run heal it
        cluster.invoke("a", ref, "cancel_tickets", 5)
        cluster.reconcile()
        assert cluster.mode_of("a") is SystemMode.HEALTHY

    def test_crash_recovery_modes(self, cluster):
        cluster.create_entity("a", "Flight", "f1", {"seats": 10})
        cluster.network.crash_node("c")
        assert cluster.mode_of("a") is SystemMode.DEGRADED
        cluster.network.recover_node("c")
        assert cluster.mode_of("a") is SystemMode.RECONCILIATION
        cluster.reconcile()
        assert cluster.mode_of("a") is SystemMode.HEALTHY
