"""Tests for replication protocols and the replication manager."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.objects import Entity, ObjectNotFound, ObjectRef
from repro.replication import (
    AdaptiveVotingProtocol,
    PrimaryPartitionProtocol,
    PrimaryPerPartitionProtocol,
    WriteAccessDenied,
)

NODES = ("a", "b", "c")
ALL = frozenset(NODES)


class Counter(Entity):
    fields = {"value": 0, "label": ""}

    def increment(self) -> int:
        self._set("value", self._get("value") + 1)
        return self._get("value")


@pytest.fixture
def cluster():
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Counter)
    return cluster


class TestP4Protocol:
    protocol = PrimaryPerPartitionProtocol()

    def test_designated_primary_in_healthy_system(self):
        assert self.protocol.write_node("b", NODES, ALL) == "b"

    def test_temporary_primary_per_partition(self):
        partition = frozenset({"a", "c"})
        assert self.protocol.write_node("b", NODES, partition) == "a"

    def test_writes_allowed_in_every_partition(self):
        for partition in (frozenset({"a"}), frozenset({"b"}), frozenset({"c"})):
            assert self.protocol.write_node("b", NODES, partition) is not None

    def test_possibly_stale_in_every_partition(self):
        # §3.1: with P4, objects are possibly stale in every partition.
        assert self.protocol.is_possibly_stale("b", NODES, frozenset({"a", "c"}))
        assert self.protocol.is_possibly_stale("b", NODES, frozenset({"b"}))

    def test_not_stale_when_all_replicas_present(self):
        assert not self.protocol.is_possibly_stale("b", NODES, ALL)

    def test_no_replica_in_partition(self):
        assert self.protocol.write_node("b", ("b",), frozenset({"a"})) is None


class TestPrimaryPartitionProtocol:
    protocol = PrimaryPartitionProtocol(total_nodes=3)

    def test_majority_partition_writes(self):
        partition = frozenset({"a", "b"})
        assert self.protocol.write_node("a", NODES, partition) == "a"

    def test_minority_partition_blocked(self):
        assert self.protocol.write_node("a", NODES, frozenset({"c"})) is None

    def test_majority_not_stale(self):
        assert not self.protocol.is_possibly_stale("a", NODES, frozenset({"a", "b"}))

    def test_minority_stale(self):
        assert self.protocol.is_possibly_stale("a", NODES, frozenset({"c"}))

    def test_temporary_primary_when_designated_absent(self):
        partition = frozenset({"b", "c"})
        assert self.protocol.write_node("a", NODES, partition) == "b"

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            PrimaryPartitionProtocol(0)


class TestAdaptiveVoting:
    def test_quorum_partition_not_stale(self):
        protocol = AdaptiveVotingProtocol()
        assert not protocol.is_possibly_stale("a", NODES, frozenset({"a", "b"}))

    def test_minority_adapts_and_is_stale(self):
        protocol = AdaptiveVotingProtocol()
        partition = frozenset({"c"})
        assert protocol.write_node("a", NODES, partition) == "c"
        assert protocol.is_possibly_stale("a", NODES, partition)

    def test_non_adaptive_blocks_minority(self):
        protocol = AdaptiveVotingProtocol(adaptive=False)
        assert protocol.write_node("a", NODES, frozenset({"c"})) is None

    def test_weighted_votes(self):
        protocol = AdaptiveVotingProtocol(votes={"a": 3})
        # a alone has 3 of 5 votes: a majority quorum.
        assert not protocol.is_possibly_stale("a", NODES, frozenset({"a"}))
        assert protocol.is_possibly_stale("a", NODES, frozenset({"b", "c"}))


class TestReplicationManager:
    def test_create_replicates_to_all_nodes(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1", {"value": 5})
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 5

    def test_write_propagates_synchronously(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.invoke("b", ref, "set_value", 42)
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 42

    def test_write_routed_to_designated_primary(self, cluster):
        ref = cluster.create_entity("b", "Counter", "c1")
        assert cluster.replication.route_write(ref, "a") == "b"

    def test_reads_local(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        assert cluster.replication.route_read(ref, "c") == "c"

    def test_business_method_on_backup_redirected(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        assert cluster.invoke("c", ref, "increment") == 1
        assert cluster.entity_on("a", ref).get_value() == 1

    def test_delete_removes_everywhere(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.delete_entity("b", ref)
        for node in NODES:
            assert not cluster.nodes[node].container.has(ref)

    def test_staleness_healthy_is_false(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        entity = cluster.entity_on("b", ref)
        assert not cluster.replication.is_possibly_stale(entity)

    def test_staleness_degraded_is_true(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        entity = cluster.entity_on("b", ref)
        assert cluster.replication.is_possibly_stale(entity)

    def test_unknown_and_unattached_objects(self, cluster):
        """The single-lookup paths: what is not replicated is neither
        found, stale, nor applied."""
        ref = cluster.create_entity("a", "Counter", "c1")
        unknown = ObjectRef("Counter", "nope")
        with pytest.raises(ObjectNotFound) as caught:
            cluster.replication.info(unknown)
        assert caught.value.ref is unknown
        cluster.partition({"a"}, {"b", "c"})
        assert not cluster.replication.is_possibly_stale(Counter("nope"))
        assert not cluster.replication.is_possibly_stale(Counter("c1"))  # no container
        node = cluster.nodes["b"]
        entry = {"ref": unknown, "state": {"value": 1, "label": ""}, "version": 1}
        assert cluster.replication._apply_replica(node, "replica-update", entry) == "missing"
        assert cluster.replication._apply_replica(node, "replica-update", {**entry, "ref": ref}) == "ack"
        assert cluster.entity_on("b", ref).get_value() == 1

    def test_writes_in_both_partitions_under_p4(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_label", "from-a")
        cluster.invoke("b", ref, "set_label", "from-b")
        assert cluster.entity_on("a", ref).get_label() == "from-a"
        assert cluster.entity_on("b", ref).get_label() == "from-b"
        assert cluster.entity_on("c", ref).get_label() == "from-b"

    def test_degraded_writes_record_history_and_updates(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 7)
        assert cluster.nodes["a"].state_history.total_entries() == 1
        assert len(cluster.replication.pending_update_records()) == 1

    def test_healthy_writes_record_no_history(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.invoke("a", ref, "set_value", 7)
        assert cluster.nodes["a"].state_history.total_entries() == 0
        assert cluster.replication.pending_update_records() == []

    def test_epoch_increments_on_topology_change(self, cluster):
        before = cluster.gms.epoch
        cluster.partition({"a"}, {"b", "c"})
        assert cluster.gms.epoch > before


class TestReplicaConflicts:
    def test_conflicting_writes_detected(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 1)
        cluster.invoke("b", ref, "set_value", 2)
        cluster.heal()
        conflicts = cluster.replication.reconcile_replicas(frozenset(NODES))
        assert len(conflicts) == 1
        assert conflicts[0].ref == ref

    def test_latest_update_wins_by_default(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 1)
        cluster.invoke("b", ref, "set_value", 2)  # later in simulated time
        cluster.heal()
        cluster.replication.reconcile_replicas(frozenset(NODES))
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 2

    def test_handler_chooses_state(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 1)
        cluster.invoke("b", ref, "set_value", 2)
        cluster.heal()

        def pick_smallest(conflict):
            return min(conflict.candidates, key=lambda r: r.state["value"])

        cluster.replication.reconcile_replicas(frozenset(NODES), pick_smallest)
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 1

    def test_single_partition_updates_no_conflict(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("b", ref, "set_value", 2)
        cluster.heal()
        conflicts = cluster.replication.reconcile_replicas(frozenset(NODES))
        assert conflicts == []
        # the missed update reached the isolated node
        assert cluster.entity_on("a", ref).get_value() == 2

    def test_entity_created_during_partition_propagates_on_heal(self, cluster):
        cluster.partition({"a"}, {"b", "c"})
        ref = cluster.create_entity("b", "Counter", "fresh", {"value": 9})
        assert not cluster.nodes["a"].container.has(ref)
        cluster.heal()
        cluster.replication.reconcile_replicas(frozenset(NODES))
        assert cluster.entity_on("a", ref).get_value() == 9

    def test_had_replica_conflict_interface(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a"}, {"b", "c"})
        cluster.invoke("a", ref, "set_value", 1)
        cluster.invoke("b", ref, "set_value", 2)
        cluster.heal()
        cluster.replication.reconcile_replicas(frozenset(NODES))
        assert cluster.replication.had_replica_conflict(ref)
        cluster.replication.clear_conflicts()
        assert not cluster.replication.had_replica_conflict(ref)


class TestPrimaryPartitionCluster:
    def test_minority_writes_blocked(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, protocol="primary-partition")
        )
        cluster.deploy(Counter)
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a", "b"}, {"c"})
        cluster.invoke("a", ref, "set_value", 1)  # majority side works
        with pytest.raises(WriteAccessDenied):
            cluster.invoke("c", ref, "set_value", 2)

    def test_minority_reads_allowed(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, protocol="primary-partition")
        )
        cluster.deploy(Counter)
        ref = cluster.create_entity("a", "Counter", "c1", {"value": 3})
        cluster.partition({"a", "b"}, {"c"})
        assert cluster.invoke("c", ref, "get_value") == 3

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            DedisysCluster(ClusterConfig(node_ids=NODES, protocol="bogus"))
