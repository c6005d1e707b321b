"""Integration tests: the instrumented middleware emits consistent data.

The scenarios cross-check trace event counts against the components' own
bookkeeping (``ccmgr.stats``, transaction manager counters, delivered
messages, detector events), exercise the drop/suspicion paths, and verify the acceptance
criterion that attaching observability costs zero *simulated* time.
"""

import json
import math

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler, ConstraintViolated, SatisfactionDegree
from repro.evaluation.ch5 import build_cluster, measure_operations
from repro.faults import FaultInjector
from repro.membership import HeartbeatFailureDetector
from repro.net import NodeCrashedError, SimNetwork, UnreachableError
from repro.obs import Observability, read_jsonl
from repro.tx import TransactionRolledBack

pytestmark = pytest.mark.obs


def partition_cluster():
    """The canonical degraded-mode scenario with observability attached."""
    obs = Observability()
    cluster = build_cluster(nodes=3, obs=obs)
    beans = [
        cluster.create_entity("n1", "TestBean", f"bean-{index}") for index in range(3)
    ]
    cluster.partition({"n1", "n2"}, {"n3"})
    handler = AcceptAllHandler()
    for bean in beans:
        cluster.invoke("n1", bean, "threat_op", negotiation_handler=handler)
    cluster.heal()
    cluster.reconcile()
    return cluster, obs


def warm_flight_cluster(obs):
    """A 3-node flight cluster whose caches are warm on every node."""
    cluster = DedisysCluster(ClusterConfig(node_ids=("n1", "n2", "n3"), obs=obs))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    ref = cluster.create_entity(
        "n1", "Flight", "F1", {"flight_number": "F1", "seats": 10_000, "sold": 0}
    )
    for node in ("n1", "n2", "n3"):
        cluster.invoke(node, ref, "sell_tickets", 1)
        cluster.invoke(node, ref, "get_sold")
    return cluster, ref


class TestEventCountsMatchComponentBookkeeping:
    def test_validation_events_match_ccmgr_stats(self):
        cluster, obs = partition_cluster()
        validations = sum(
            ccmgr.stats["validations"] for ccmgr in cluster.ccmgrs.values()
        )
        assert validations > 0
        assert len(obs.events("validation")) == validations

    def test_threat_events_match_ccmgr_stats(self):
        cluster, obs = partition_cluster()
        expected = sum(
            ccmgr.stats["threats_detected"]
            + ccmgr.stats["threats_accepted"]
            + ccmgr.stats["threats_rejected"]
            for ccmgr in cluster.ccmgrs.values()
        )
        assert expected > 0
        assert len(obs.events("threat")) == expected

    def test_tx_events_match_manager_counters(self):
        cluster, obs = partition_cluster()
        assert len(obs.events("tx_commit")) == cluster.txmgr.committed_count
        assert len(obs.events("tx_rollback")) == cluster.txmgr.rolled_back_count

    def test_rollback_is_traced(self):
        obs = Observability()
        cluster = build_cluster(nodes=1, replication=False, obs=obs)
        bean = cluster.create_entity("n1", "TestBean", "b")
        with pytest.raises((ConstraintViolated, TransactionRolledBack)):
            cluster.invoke("n1", bean, "failing_op")
        assert cluster.txmgr.rolled_back_count == 1
        assert len(obs.events("tx_rollback")) == 1
        reasons = [event.data["reason"] for event in obs.events("tx_rollback")]
        assert any("AlwaysViolated" in (reason or "") for reason in reasons)
        violated = [
            event.data["constraint"]
            for event in obs.events("validation")
            if event.data["degree"] is SatisfactionDegree.VIOLATED
        ]
        assert violated == ["AlwaysViolated"]
        assert cluster.ccmgrs["n1"].stats["violations"] == 1

    def test_message_send_events_match_network_deliveries(self):
        # Writes from a backup node are routed to the primary over the
        # point-to-point network (multicast traffic does not use it).
        obs = Observability()
        cluster = build_cluster(nodes=3, obs=obs)
        bean = cluster.create_entity("n1", "TestBean", "b")
        for index in range(3):
            cluster.invoke("n2", bean, "set_text", f"v{index}")
        send_events = obs.events("message_send")
        assert len(send_events) > 0
        assert len(send_events) == cluster.network.delivered_count
        link_bytes = sum(
            event.data["bytes"]
            for event in send_events
            if (event.node, event.data["destination"]) == ("n2", "n1")
        )
        assert link_bytes > 0

    def test_each_node_installs_one_view_per_topology_change(self):
        cluster, obs = partition_cluster()
        per_node = {}
        for event in obs.events("view_change"):
            per_node[event.node] = per_node.get(event.node, 0) + 1
        # The partition and the heal each give every node a new view.
        assert per_node == {"n1": 2, "n2": 2, "n3": 2}

    def test_every_invocation_event_carries_its_simulated_latency(self):
        cluster, obs = partition_cluster()
        invocations = obs.events("invocation")
        assert len(invocations) > 0
        latencies = [event.data["latency"] for event in invocations]
        assert all(math.isfinite(latency) and latency > 0.0 for latency in latencies)

    def test_each_call_emits_one_invocation_event_with_its_simulated_latency(self):
        """A read, a forwarded write and a refused write each emit one
        ``invocation`` event, from the node that ran the CCM, with the
        simulated time spent inside the CCM interceptor, bit for bit; the
        observed cluster's clock reads what an unobserved one's does."""
        obs = Observability()
        observed, ref = warm_flight_cluster(obs)
        bare, bare_ref = warm_flight_cluster(None)
        calls = (
            (("get_sold",), ("n2", "ok", "0x1.7c5ef62f9ca80p-9")),
            (("sell_tickets", 1), ("n1", "ok", "0x1.932d6ece13f40p-8")),
            (("sell_tickets", 20_000), ("n1", "ConstraintViolated", "0x1.932002d4c6940p-8")),
        )
        for args, expected in calls:
            before = len(obs.events("invocation"))
            for cluster, target in ((observed, ref), (bare, bare_ref)):
                try:
                    cluster.invoke("n2", target, *args)
                except ConstraintViolated:
                    pass
            (event,) = obs.events("invocation")[before:]
            assert event.data["method"] == args[0]
            assert (event.node, event.data["outcome"], event.data["latency"].hex()) == expected
            assert observed.clock.now == bare.clock.now

    def test_replication_updates_are_traced(self):
        cluster, obs = partition_cluster()
        events = obs.events("replication_update")
        kinds = [event.data["kind"] for event in events]
        # Three beans created; threat_op reads, so no state round follows.
        assert kinds == ["create", "create", "create"]


class TestDropAndSuspicionPaths:
    def test_lossy_link_drops_are_traced(self):
        obs = Observability()
        network = SimNetwork(("a", "b"), obs=obs)
        network.install_fault_injector(FaultInjector.burst_loss(0.4, seed=7))
        obs.bind_clock(network.scheduler.clock)
        losses = 0
        for index in range(50):
            try:
                network.send("a", "b", "ping", index)
            except UnreachableError:
                losses += 1
        assert 0 < losses < 50
        drop_events = obs.events("message_drop")
        assert len(drop_events) == losses
        assert {event.data["reason"] for event in drop_events} == {"burst-loss"}

    def test_unreachable_drop_reason(self):
        obs = Observability()
        network = SimNetwork(("a", "b"), obs=obs)
        network.partition({"a"}, {"b"})
        with pytest.raises(UnreachableError):
            network.send("a", "b", "ping")
        (event,) = obs.events("message_drop")
        assert event.data["reason"] == "unreachable"
        assert event.node == "a"

    def test_crashed_source_drop_reason(self):
        obs = Observability()
        network = SimNetwork(("a", "b"), obs=obs)
        network.crash_node("a")
        with pytest.raises(NodeCrashedError):
            network.send("a", "b", "ping")
        (event,) = obs.events("message_drop")
        assert event.data["reason"] == "source-crashed"

    def test_topology_changes_are_traced(self):
        obs = Observability()
        network = SimNetwork(("a", "b", "c"), obs=obs)
        network.partition({"a", "b"}, {"c"})
        network.heal_all()
        events = obs.events("topology_change")
        assert len(events) == 2
        assert events[0].data["partitions"] == [["a", "b"], ["c"]]
        assert events[1].data["partitions"] == [["a", "b", "c"]]

    def test_suspicions_are_traced(self):
        obs = Observability()
        network = SimNetwork(("a", "b", "c"), obs=obs)
        obs.bind_clock(network.scheduler.clock)
        detector = HeartbeatFailureDetector(network)
        network.partition({"a", "b"}, {"c"})
        detector.run_for(5.0)
        events = obs.events("suspicion")
        assert len(events) == len(detector.events) > 0
        raised = [event for event in events if event.data["suspected"]]
        assert len(raised) == sum(event.suspected for event in detector.events) > 0


class TestExportedTrace:
    def test_partition_scenario_exports_nonempty_jsonl(self, tmp_path):
        cluster, obs = partition_cluster()
        path = tmp_path / "partition.jsonl"
        written = cluster.export_trace(path)
        assert written > 0
        entries = read_jsonl(path)
        assert len(entries) == written
        by_type: dict[str, int] = {}
        for entry in entries:
            by_type[entry["type"]] = by_type.get(entry["type"], 0) + 1
        # the exported counts must match the live snapshot exactly
        assert by_type == cluster.snapshot()["events"]["by_type"]
        assert by_type["tx_commit"] == cluster.txmgr.committed_count

    def test_cluster_snapshot_is_json_serializable(self):
        cluster, _ = partition_cluster()
        parsed = json.loads(json.dumps(cluster.snapshot(), sort_keys=True))
        assert list(parsed) == ["events"]
        assert parsed["events"]["emitted"] > 0
        assert parsed["events"]["by_type"]["invocation"] > 0

    def test_cluster_summary_mentions_event_types(self):
        cluster, _ = partition_cluster()
        text = cluster.obs_summary()
        assert "invocation" in text and "threat" in text

    def test_unattached_cluster_reports_empty_snapshot(self):
        cluster = build_cluster(nodes=1, replication=False)
        cluster.create_entity("n1", "TestBean", "b")
        assert cluster.snapshot() == {
            "events": {"emitted": 0, "buffered": 0, "dropped": 0, "by_type": {}},
        }
        assert cluster.obs_summary() == "observability disabled\n"


class TestZeroSimulatedOverhead:
    def test_instrumented_run_consumes_identical_simulated_time(self):
        # Observability records eagerly in Python but never advances the
        # simulated clock, so an instrumented cluster finishes the same
        # workload at the exact same simulated instant.
        bare = build_cluster(nodes=3)
        observed = build_cluster(nodes=3, obs=Observability())

        def workload(cluster):
            beans = [
                cluster.create_entity("n1", "TestBean", f"bean-{index}")
                for index in range(5)
            ]
            for bean in beans:
                cluster.invoke("n1", bean, "set_text", "x")
                cluster.invoke("n1", bean, "get_text")
            return cluster.clock.now

        assert workload(bare) == workload(observed)

    def test_measured_rates_are_identical(self):
        bare = build_cluster(nodes=1, replication=False)
        observed = build_cluster(nodes=1, replication=False, obs=Observability())
        ops = ("create", "setter", "getter", "empty", "delete")
        bare_rates = measure_operations(bare, "n1", 10, ops)
        observed_rates = measure_operations(observed, "n1", 10, ops)
        assert observed_rates.rates == bare_rates.rates
