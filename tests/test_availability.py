"""Tests for the availability-study harness."""

import pytest

from repro.check import Scenario
from repro.corpus import validate_scenario
from repro.evaluation import (
    CONFIGURATIONS,
    compare_configurations,
    run_availability_study,
)
from repro.evaluation.availability import availability_scenario
from repro.corpus.generator import two_way_partition
import random


class TestSingleRuns:
    def test_counts_are_consistent(self):
        result = run_availability_study("p4", operations=100)
        assert result.attempted == 100
        assert result.served + result.blocked == result.attempted
        assert result.reads_served + result.writes_served == result.served
        assert result.reads_blocked + result.writes_blocked == result.blocked

    def test_p4_serves_everything(self):
        result = run_availability_study("p4", operations=120)
        assert result.availability == 1.0
        assert result.threats_accepted > 0

    def test_no_replication_blocks_remote_access(self):
        result = run_availability_study("no-replication", operations=120)
        assert result.blocked > 0
        assert result.threats_accepted == 0
        assert result.reconciliation_seconds == 0.0

    def test_primary_partition_blocks_minority_writes(self):
        result = run_availability_study(
            "primary-partition", operations=200, read_ratio=0.5
        )
        assert result.read_availability == 1.0
        assert result.write_availability < 1.0

    def test_deterministic_for_same_seed(self):
        first = run_availability_study("p4", operations=80, seed=11)
        second = run_availability_study("p4", operations=80, seed=11)
        assert first.served == second.served
        assert first.simulated_seconds == second.simulated_seconds

    def test_different_seed_changes_workload(self):
        first = run_availability_study("no-replication", operations=80, seed=1)
        second = run_availability_study("no-replication", operations=80, seed=2)
        assert (first.served, first.blocked) != (second.served, second.blocked)

    def test_invalid_read_ratio(self):
        with pytest.raises(ValueError):
            run_availability_study("p4", read_ratio=1.5)

    def test_healthy_only_run_fully_available(self):
        result = run_availability_study(
            "no-replication", operations=60, degraded_fraction=0.0
        )
        assert result.availability == 1.0

    def test_single_node_never_partitions(self):
        result = run_availability_study("p4", nodes=1, operations=60)
        assert result.availability == 1.0
        assert result.threats_accepted == 0


class TestPinnedFigures:
    """The [Se05] table of EXPERIMENTS.md, as the pre-scenario loop
    produced it: the study is scenario data now, the numbers are not."""

    @pytest.mark.parametrize(
        "configuration, served, threats, seconds, reconciling",
        [
            ("no-replication", 306, 0, 2.786858, 0.0),
            ("primary-partition", 394, 0, 5.425084, 0.2844),
            ("adaptive-voting", 400, 6, 6.705646, 1.18245),
            ("p4", 400, 19, 8.169496, 1.4969),
        ],
    )
    def test_default_study(self, configuration, served, threats, seconds, reconciling):
        result = run_availability_study(configuration)
        assert (result.attempted, result.served) == (400, served)
        assert result.threats_accepted == threats
        assert result.simulated_seconds == pytest.approx(seconds, abs=1e-5)
        assert result.reconciliation_seconds == pytest.approx(reconciling, abs=1e-5)

    def test_study_is_a_well_formed_scenario(self):
        scenario = availability_scenario(
            "p4", nodes=3, records=9, operations=400, read_ratio=0.9, degraded_fraction=0.5, seed=7
        )
        assert validate_scenario(scenario) == []
        assert scenario == Scenario.from_dict(scenario.to_dict())
        assert [action for _, action, _ in scenario.fault_events] == [
            "partition",
            "heal_all",
            "partition",
        ]
        assert sum(op.kind == "reconcile" for op in scenario.ops) == 1


class TestComparison:
    def test_all_configurations_run(self):
        results = compare_configurations(operations=80)
        assert set(results) == set(CONFIGURATIONS)

    def test_availability_ordering(self):
        results = compare_configurations(operations=200)
        assert (
            results["no-replication"].availability
            < results["primary-partition"].availability
            <= results["p4"].availability
        )

    def test_throughput_cost_ordering(self):
        results = compare_configurations(operations=200)
        assert results["no-replication"].throughput > results["p4"].throughput


class TestRandomPartition:
    def test_two_nonempty_groups(self):
        rng = random.Random(3)
        for _ in range(20):
            groups = two_way_partition(rng, ["a", "b", "c", "d"])
            assert len(groups) == 2
            assert all(groups)
            assert sorted(groups[0] + groups[1]) == ["a", "b", "c", "d"]

    def test_one_shuffle_then_one_cut(self):
        # The availability figures are pinned to this draw order.
        expected = ["a", "b", "c", "d"]
        rng = random.Random(3)
        rng.shuffle(expected)
        cut = rng.randint(1, 3)
        groups = two_way_partition(random.Random(3), ["a", "b", "c", "d"])
        assert groups == (tuple(expected[:cut]), tuple(expected[cut:]))
