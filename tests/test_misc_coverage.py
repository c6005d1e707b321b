"""Coverage sweep for smaller API surfaces not exercised elsewhere."""

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight
from repro.net import GroupChannel, SimNetwork
from repro.validation import APPROACHES, measure_runner, run_study
from repro.validation.study import StudyResult

NODES = ("a", "b", "c")


class TestStudyHelpers:
    def test_measure_runner_returns_positive_seconds(self):
        runner = APPROACHES["no-checks"].build(None)
        assert measure_runner(runner, runs=2, warmup=0) > 0

    def test_run_study_inserts_baselines(self):
        result = run_study(["jml"], runs=2, warmup=0)
        assert "no-checks" in result.seconds
        assert "handcrafted" in result.seconds
        assert "jml" in result.seconds

    def test_ranked_is_sorted(self):
        result = StudyResult(runs=1)
        result.overhead_vs_handcrafted = {"a": 3.0, "b": 1.0, "c": 2.0}
        assert [name for name, _ in result.ranked()] == ["b", "c", "a"]


class TestClusterHelpers:
    def test_throughput_requires_time_consumption(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        with pytest.raises(RuntimeError):
            cluster.throughput(lambda i: None, 5)

    def test_ledger_total_matches_clock(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
        cluster.deploy(Flight)
        cluster.create_entity("a", "Flight", "f1", {"seats": 5})
        assert cluster.ledger.total() == pytest.approx(cluster.clock.now)


class TestMulticastVariants:
    def test_one_way_multicast_costs_half(self):
        network = SimNetwork(NODES)
        channel = GroupChannel(network)
        for node in NODES:
            channel.join(node, lambda msg: "ack")
        before = network.scheduler.clock.now
        channel.multicast("a", "fire-and-forget", await_acks=False)
        one_way = network.scheduler.clock.now - before
        before = network.scheduler.clock.now
        channel.multicast("a", "synchronous", await_acks=True)
        round_trip = network.scheduler.clock.now - before
        assert round_trip == pytest.approx(2 * one_way)

    def test_member_list_sorted(self):
        network = SimNetwork(NODES)
        channel = GroupChannel(network)
        channel.join("c", lambda m: None)
        channel.join("a", lambda m: None)
        assert channel.members == ("a", "c")


class TestAvailabilitySweeps:
    def test_read_ratio_sweep_shape(self):
        from repro.evaluation import read_ratio_sweep

        sweep = read_ratio_sweep(ratios=(0.5, 0.9), operations=60)
        assert set(sweep) == {0.5, 0.9}
        for configs in sweep.values():
            assert "p4" in configs and "no-replication" in configs

    def test_node_count_sweep_shape(self):
        from repro.evaluation import node_count_sweep

        sweep = node_count_sweep(node_counts=(2, 3), operations=60)
        assert set(sweep) == {2, 3}


class TestEntityMiscellanea:
    def test_resolve_all_filters_none(self):
        flight = Flight("f1")
        other = Flight("f2")
        assert flight.resolve_all([None, other]) == [other]

    def test_unattached_invoke_raises(self):
        flight = Flight("f1")
        with pytest.raises(RuntimeError):
            flight.invoke(Flight("f2").ref, "get_seats")

    def test_unattached_resolve_of_ref_raises(self):
        from repro.objects import ObjectRef

        flight = Flight("f1")
        with pytest.raises(RuntimeError):
            flight.resolve(ObjectRef("Flight", "zzz"))


class TestWebResponseShape:
    def test_web_response_fields(self):
        from repro.web import WebResponse

        response = WebResponse("result", 42, token=None)
        assert response.kind == "result"
        assert response.body == 42
        assert response.token is None
