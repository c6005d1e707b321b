"""Integration tests: the instrumented middleware emits consistent data.

The scenarios cross-check trace event counts against the components' own
bookkeeping (``ccmgr.stats``, transaction manager counters, delivered
messages), exercise the drop/suspicion paths, and verify the acceptance
criterion that attaching observability costs zero *simulated* time.
"""

import json

import pytest

from repro.core import AcceptAllHandler, ConstraintViolated
from repro.evaluation.ch5 import build_cluster, measure_operations
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
        violations = obs.registry.get("ccm_violations_total")
        assert violations.value(constraint="AlwaysViolated") == 1.0

    def test_message_send_events_match_network_metrics(self):
        # Writes from a backup node are routed to the primary over the
        # point-to-point network (multicast traffic does not use it).
        obs = Observability()
        cluster = build_cluster(nodes=3, obs=obs)
        bean = cluster.create_entity("n1", "TestBean", "b")
        for index in range(3):
            cluster.invoke("n2", bean, "set_text", f"v{index}")
        sent = obs.registry.get("net_messages_sent_total")
        send_events = obs.events("message_send")
        assert len(send_events) > 0
        assert sent.total() == len(send_events) == cluster.network.delivered_count
        link_bytes = obs.registry.get("net_link_bytes_total")
        assert link_bytes.value(link="n2->n1") > 0

    def test_view_change_events_match_gms_counter(self):
        cluster, obs = partition_cluster()
        counter = obs.registry.get("gms_view_changes_total")
        events = obs.events("view_change")
        assert len(events) > 0
        assert counter.total() == len(events)

    def test_invocation_latency_histogram_matches_invocation_events(self):
        cluster, obs = partition_cluster()
        histogram = obs.registry.get("ccm_invocation_latency_seconds")
        invocations = obs.events("invocation")
        assert len(invocations) > 0
        total = sum(
            series["count"]
            for series in histogram.snapshot()["series"].values()
        )
        assert total == len(invocations)

    def test_replication_updates_are_traced(self):
        cluster, obs = partition_cluster()
        events = obs.events("replication_update")
        assert {event.data["kind"] for event in events} >= {"create"}
        counter = obs.registry.get("repl_updates_total")
        assert counter.total() == len(events)


class TestDropAndSuspicionPaths:
    def test_lossy_link_drops_are_traced(self):
        obs = Observability()
        network = SimNetwork(("a", "b"), loss_probability=0.4, seed=7, obs=obs)
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
        assert {event.data["reason"] for event in drop_events} == {"loss"}
        dropped = obs.registry.get("net_messages_dropped_total")
        assert dropped.value(reason="loss") == losses

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
        counter = obs.registry.get("fd_suspicion_events_total")
        assert counter.value(suspected=True) == len(raised)


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
        assert parsed["events"]["emitted"] > 0
        assert "ccm_invocations_total" in parsed["metrics"]

    def test_cluster_summary_mentions_event_types(self):
        cluster, _ = partition_cluster()
        text = cluster.obs_summary()
        assert "invocation" in text and "threat" in text

    def test_unattached_cluster_reports_empty_snapshot(self):
        cluster = build_cluster(nodes=1, replication=False)
        cluster.create_entity("n1", "TestBean", "b")
        assert cluster.snapshot() == {
            "metrics": {},
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
