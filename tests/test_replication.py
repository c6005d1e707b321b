"""Tests for replication protocols and the replication manager."""

import copy

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.objects import Entity, Invocation, ObjectNotFound, ObjectRef
from repro.replication import (
    AdaptiveVotingProtocol,
    PrimaryPartitionProtocol,
    PrimaryPerPartitionProtocol,
    WriteAccessDenied,
)

from conftest import history_entries


NODES = ("a", "b", "c")
ALL = frozenset(NODES)


class Counter(Entity):
    fields = {"value": 0, "label": ""}

    def increment(self) -> int:
        self._set("value", self._get("value") + 1)
        return self._get("value")


@pytest.fixture
def cluster(request):
    """A three-node cluster on the backend the test's class names
    (``transport``, the simulator by default)."""
    transport = getattr(request.cls, "transport", "sim")
    with DedisysCluster(ClusterConfig(node_ids=NODES, transport=transport)) as cluster:
        cluster.deploy(Counter)
        yield cluster


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

    def test_an_even_split_is_no_quorum(self):
        protocol = AdaptiveVotingProtocol()
        replicas = ("a", "b", "c", "d")
        for half in (frozenset({"a", "b"}), frozenset({"c", "d"})):
            assert protocol.is_possibly_stale("a", replicas, half)
        assert not protocol.is_possibly_stale("a", replicas, frozenset({"a", "b", "c"}))

    def test_minority_adapts_and_is_stale(self):
        protocol = AdaptiveVotingProtocol()
        partition = frozenset({"c"})
        assert protocol.write_node("a", NODES, partition) == "c"
        assert protocol.is_possibly_stale("a", NODES, partition)


class TestReplicationManager:
    def test_replicated_classes_are_those_of_replicated_entities(self, cluster):
        """On a replicated cluster every deployed class is replicated; the
        process worker's state dump walks these lists."""
        assert cluster.replication.replicated_classes() == []
        ref = cluster.create_entity("a", "Counter", "c1")
        assert cluster.replication.replicated_classes() == ["Counter"]
        assert cluster.replication.refs_of_class("Counter") == [ref]
        cluster.delete_entity("b", ref)
        assert cluster.replication.replicated_classes() == []

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
        assert history_entries(cluster.nodes["a"].state_history) == 1
        assert len(cluster.replication.pending_update_records()) == 1

    def test_a_degraded_write_shares_one_snapshot_that_later_writes_leave_alone(self, cluster):
        """The history entry, the update record and the backups' payload
        hold the one ``state()`` copy of the write; the next writes to the
        entity, here and on the backup, change none of it."""
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.partition({"a", "b"}, {"c"})
        cluster.invoke("a", ref, "set_value", 7)
        (entry,) = cluster.nodes["a"].state_history.versions_of(ref)
        (record,) = cluster.replication.pending_update_records()
        assert entry.state is record.state
        cluster.invoke("a", ref, "increment")
        cluster.invoke("a", ref, "set_label", "later")
        assert cluster.entity_on("b", ref).get_value() == 8
        assert entry.state == record.state == {"value": 7, "label": ""}

    def test_healthy_writes_record_no_history(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.invoke("a", ref, "set_value", 7)
        assert history_entries(cluster.nodes["a"].state_history) == 0
        assert cluster.replication.pending_update_records() == []

    def test_epoch_increments_on_topology_change(self, cluster):
        before = cluster.gms.epoch
        cluster.partition({"a"}, {"b", "c"})
        assert cluster.gms.epoch > before


class TestReplicationManagerThreaded(TestReplicationManager):
    """P4's routing, propagation and degraded-mode bookkeeping, the same
    on the threaded backend."""

    transport = "asyncio"


class TestServerSideRedirect:
    """A write that reaches a backup's server chain unrouted (a nested
    call made on the backup) is sent on to the primary by
    ``ReplicationServerInterceptor``; a lost send fails the call at once,
    with no retry — on every backend."""

    @pytest.fixture(params=["sim", "asyncio"])
    def cluster(self, request):
        from repro.obs import Observability

        config = ClusterConfig(node_ids=NODES, obs=Observability(), transport=request.param)
        with DedisysCluster(config) as cluster:
            cluster.deploy(Counter)
            yield cluster

    @staticmethod
    def write_on_backup(cluster, ref):
        return cluster.txmgr.run(
            lambda tx: cluster.nodes["b"].invocation_service.invoke_local(
                ref, "set_value", (42,)
            )
        )

    @staticmethod
    def drop_redirects(cluster):
        from repro.faults import DropKinds, FaultInjector

        injector = FaultInjector()
        injector.set_link_model("b", "a", DropKinds(["invocation"]), bidirectional=False)
        cluster.network.install_fault_injector(injector)

    def test_a_write_on_a_backup_runs_on_the_primary(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        delivered = cluster.network.record_deliveries()
        self.write_on_backup(cluster, ref)
        assert [(m.source, m.destination) for m in delivered if m.kind == "invocation"] == [
            ("b", "a")
        ]
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 42

    def test_a_redirected_write_runs_on_the_replica_of_the_node_that_executes_it(
        self, cluster, monkeypatch
    ):
        """The invocation's target slot is cleared whenever a server chain
        starts: a slot left over from an earlier pass (here: ``b``'s
        replica) never reaches the primary's chain."""
        ref = cluster.create_entity("a", "Counter", "c1")
        ran_on = []
        increment = Counter.increment

        def spying(entity):
            ran_on.append(entity.container.node.node_id)
            return increment(entity)

        monkeypatch.setattr(Counter, "increment", spying)
        invocation = Invocation(ref, "increment", (), "b")
        invocation.entity = cluster.entity_on("b", ref)
        cluster.txmgr.run(
            lambda tx: cluster.nodes["b"].invocation_service.run_server_chain(invocation)
        )
        assert ran_on == ["a"]
        assert invocation.entity is cluster.entity_on("a", ref)
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 1

    def test_a_lost_redirect_fails_fast(self, cluster):
        from repro.net import UnreachableError

        self.drop_redirects(cluster)
        ref = cluster.create_entity("a", "Counter", "c1")
        with pytest.raises(UnreachableError):
            self.write_on_backup(cluster, ref)
        for node in NODES:
            assert cluster.entity_on(node, ref).get_value() == 0

    def test_a_lost_redirect_is_one_send(self, cluster):
        from repro.net import UnreachableError

        self.drop_redirects(cluster)
        ref = cluster.create_entity("a", "Counter", "c1")
        delivered = cluster.network.record_deliveries()
        with pytest.raises(UnreachableError):
            self.write_on_backup(cluster, ref)
        drops = cluster.obs.events("message_drop")
        assert sum(e.data["reason"] == "kind-filter:invocation" for e in drops) == 1
        assert [m for m in delivered if m.kind == "invocation"] == []


class Aborted(Exception):
    pass


class TestBackupRollback:
    """Per-write propagation ships a write to the backups at once and
    relies on each backup's entry in the transaction's undo map when the
    transaction rolls back."""

    BACKUPS = ("b", "c")

    def test_a_rolled_back_write_restores_each_backup(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1", {"value": 5, "label": "x"})
        cluster.invoke("a", ref, "set_label", "y")
        before = {
            node: (cluster.entity_on(node, ref).state(), cluster.entity_on(node, ref).version)
            for node in self.BACKUPS
        }

        def body(tx):
            tx.invoke(ref, "set_value", 42)
            for node in self.BACKUPS:
                assert cluster.entity_on(node, ref).get_value() == 42  # propagated
            raise Aborted

        with pytest.raises(Aborted):
            cluster.run_in_tx("a", body)
        for node in self.BACKUPS:
            entity = cluster.entity_on(node, ref)
            assert (entity.state(), entity.version) == before[node]

        key = (ref.class_name, ref.oid)
        rows = {node: cluster.nodes[node].persistence.table("entities").get(key) for node in NODES}
        # The rollback put every node's row back, the primary's included.
        assert rows == {node: cluster.entity_on(node, ref).state() for node in NODES}
        journals = {
            node: [(entry.sequence, copy.deepcopy(entry.value)) for entry in cluster.nodes[node].persistence.journal()]
            for node in NODES
        }
        for node in self.BACKUPS:
            # Outside a transaction: the attribute dict changes in place.
            cluster.entity_on(node, ref).set_value(-1)
            cluster.entity_on(node, ref).set_label("mutated")
        for node in NODES:
            assert cluster.nodes[node].persistence.table("entities").get(key) == rows[node]
            assert [
                (entry.sequence, entry.value) for entry in cluster.nodes[node].persistence.journal()
            ] == journals[node]

    def test_a_refused_sale_leaves_every_row_at_the_last_commit(self):
        """The quickstart's oversale: 70 of 80 seats sold, then a sale of 20
        that the ticket constraint refuses after the primary stored its row.
        Rolling back restores the row on every node."""
        from repro.apps.flightbooking import Flight, ticket_constraint_registration
        from repro.core import ConstraintViolated

        nodes = ("vienna", "graz", "linz")
        config = ClusterConfig(node_ids=nodes, transport=getattr(self, "transport", "sim"))
        with DedisysCluster(config) as cluster:
            cluster.deploy(Flight)
            cluster.register_constraint(ticket_constraint_registration())
            flight = cluster.create_entity(
                "vienna", "Flight", "OS-101", {"flight_number": "OS 101", "seats": 80}
            )
            cluster.invoke("vienna", flight, "sell_tickets", 70)
            with pytest.raises(ConstraintViolated):
                cluster.invoke("vienna", flight, "sell_tickets", 20)
            for node in nodes:
                row = cluster.nodes[node].persistence.table("entities").get(("Flight", "OS-101"))
                assert row == cluster.entity_on(node, flight).state()
                assert row["sold"] == 70, node
            # The journal's newest entry for the row is the rollback's, so a
            # replay of it rebuilds the committed state, not the refused one.
            newest = next(
                entry
                for entry in reversed(list(cluster.nodes["vienna"].persistence.journal()))
                if entry.key == ("Flight", "OS-101")
            )
            assert (newest.operation, newest.value["sold"]) == ("restore", 70)

    def test_a_rolled_back_degraded_write_stays_rolled_back_after_reconciliation(self):
        """Alone in its partition, vienna sells 5 seats on F1 and then 50
        on the 10-seat F2 in one transaction.  The second leg's threat is
        rejected, so the first leg rolls back with it: its history entry
        and update record go too, and reconciliation has nothing to replay."""
        from repro.apps.flightbooking import Flight, ticket_constraint_registration
        from repro.core import ConsistencyThreatRejected

        nodes = ("vienna", "graz", "linz")
        config = ClusterConfig(node_ids=nodes, transport=getattr(self, "transport", "sim"))
        with DedisysCluster(config) as cluster:
            cluster.deploy(Flight)
            cluster.register_constraint(ticket_constraint_registration())
            f1 = cluster.create_entity("vienna", "Flight", "F1", {"seats": 80})
            f2 = cluster.create_entity("vienna", "Flight", "F2", {"seats": 10})
            cluster.partition({"vienna"}, {"graz", "linz"})

            def body(tx):
                tx.invoke(f1, "sell_tickets", 5)
                tx.invoke(f2, "sell_tickets", 50)

            with pytest.raises(ConsistencyThreatRejected):
                cluster.run_in_tx("vienna", body)
            assert cluster.replication.pending_update_records() == []
            assert history_entries(cluster.nodes["vienna"].state_history) == 0
            cluster.heal()
            cluster.reconcile()
            for flight in (f1, f2):
                assert {node: cluster.entity_on(node, flight).get_sold() for node in nodes} == (
                    dict.fromkeys(nodes, 0)
                )

    def test_a_refused_transaction_leaves_no_accepted_threat_behind(self):
        """vienna and graz share a partition, linz is alone.  One
        transaction sells 5 seats on F1 (a threat, accepted and replicated
        to graz) and is then refused on the 10-seat F2.  The rollback takes
        the accepted threat out of both stores and puts every threat row
        back, journaling the drop as a ``restore``."""
        from repro.apps.flightbooking import Flight, ticket_constraint_registration
        from repro.core import ConsistencyThreatRejected

        nodes = ("vienna", "graz", "linz")
        config = ClusterConfig(node_ids=nodes, transport=getattr(self, "transport", "sim"))
        with DedisysCluster(config) as cluster:
            cluster.deploy(Flight)
            cluster.register_constraint(ticket_constraint_registration())
            f1 = cluster.create_entity("vienna", "Flight", "F1", {"seats": 80})
            f2 = cluster.create_entity("vienna", "Flight", "F2", {"seats": 10})
            cluster.partition({"vienna", "graz"}, {"linz"})
            tables = {
                node: cluster.nodes[node].persistence.table("consistency_threats")
                for node in nodes
            }
            rows = {
                node: {key: table.peek(key) for key in table.keys()}
                for node, table in tables.items()
            }

            def body(tx):
                tx.invoke(f1, "sell_tickets", 5)
                assert cluster.threat_stores["graz"].count_identities() == 1  # replicated
                tx.invoke(f2, "sell_tickets", 50)

            with pytest.raises(ConsistencyThreatRejected):
                cluster.run_in_tx("vienna", body)
            assert {node: cluster.entity_on(node, f1).get_sold() for node in nodes} == (
                dict.fromkeys(nodes, 0)
            )
            for node in nodes:
                store = cluster.threat_stores[node]
                assert store.count_identities() == 0, node
                assert store.persisted_records() == 0, node
                assert {key: tables[node].peek(key) for key in tables[node].keys()} == rows[node]
            newest = next(
                entry
                for entry in reversed(list(cluster.nodes["vienna"].persistence.journal()))
                if entry.table == "consistency_threats"
            )
            assert (newest.operation, newest.value) == ("restore", None)

    @pytest.mark.parametrize("policy", ["IDENTICAL_ONCE", "FULL_HISTORY"])
    def test_a_refused_transaction_leaves_an_earlier_threat_as_committed(self, policy):
        """The same partition, after a committed sale already stored F1's
        threat.  A second sale on F1 adds an occurrence (absorbed, or a
        record of its own under full history) before F2 refuses: every
        store ends with the committed records, counts and rows."""
        from repro.apps.flightbooking import Flight, ticket_constraint_registration
        from repro.core import ConsistencyThreatRejected, ThreatStoragePolicy

        nodes = ("vienna", "graz", "linz")
        config = ClusterConfig(
            node_ids=nodes,
            threat_policy=ThreatStoragePolicy[policy],
            transport=getattr(self, "transport", "sim"),
        )
        with DedisysCluster(config) as cluster:
            cluster.deploy(Flight)
            cluster.register_constraint(ticket_constraint_registration())
            f1 = cluster.create_entity("vienna", "Flight", "F1", {"seats": 80})
            f2 = cluster.create_entity("vienna", "Flight", "F2", {"seats": 10})
            cluster.partition({"vienna", "graz"}, {"linz"})
            cluster.invoke("vienna", f1, "sell_tickets", 5)

            def image(node):
                store = cluster.threat_stores[node]
                table = cluster.nodes[node].persistence.table("consistency_threats")
                records = [
                    (threat.threat_id, threat.occurrences, threat.degree)
                    for identity in store.identities()
                    for threat in store.occurrences_of(identity)
                ]
                return records, {key: table.peek(key) for key in table.keys()}

            committed = {node: image(node) for node in nodes}
            assert [len(committed[node][0]) for node in nodes] == [1, 1, 0]

            def body(tx):
                tx.invoke(f1, "sell_tickets", 5)
                tx.invoke(f2, "sell_tickets", 50)

            with pytest.raises(ConsistencyThreatRejected):
                cluster.run_in_tx("vienna", body)
            assert {node: image(node) for node in nodes} == committed
            assert {node: cluster.entity_on(node, f1).get_sold() for node in nodes} == {
                "vienna": 5, "graz": 5, "linz": 0
            }

    def test_a_backup_without_the_replica_answers_missing(self, cluster):
        ref = cluster.create_entity("a", "Counter", "c1")
        cluster.nodes["b"].container.remove(ref)
        entry = {"ref": ref, "state": {"value": 1, "label": ""}, "version": 1}
        channel = cluster.replication.channel
        assert channel.multicast("a", "replica-update", entry) == {"b": "missing", "c": "ack"}


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
        cluster.replication.finish_reconciliation(frozenset(NODES), set())
        assert not cluster.replication.had_replica_conflict(ref)


class TestBackupRollbackThreaded(TestBackupRollback):
    transport = "asyncio"


class TestReplicaConflictsThreaded(TestReplicaConflicts):
    """Replica conflicts of a P4 partition are found and merged the same
    way on the threaded backend."""

    transport = "asyncio"


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
