"""Mutation smoke tests: the checker must *find* deliberately planted bugs.

Each test arms one test-only middleware mutation, runs the bounded DFS,
and asserts that (a) a violation of the expected invariant is found
within the budget, (b) the greedy shrinker reduces it to a small repro
(at most 10 scheduling decisions), and (c) the shrunk counterexample
still replays — with the mutation armed — to the same violation, while
the unmutated middleware passes the very same schedule.
"""

import pytest

from repro.check import (
    CheckConfig,
    ModelChecker,
    shrink_counterexample,
    single_partition_scenario,
    skipped_threat_reevaluation,
    split_brain_primaries,
)

BUDGET = CheckConfig(max_schedules=200)
SHRINK_BUDGET = 200


def find_and_shrink(mutation, expected_invariant):
    checker = ModelChecker(
        single_partition_scenario(), BUDGET, mutation=mutation
    )
    report = checker.explore()
    assert report.found_violation, (
        f"mutation not detected within {BUDGET.max_schedules} schedules"
    )
    counterexample = report.counterexample
    assert counterexample.invariant == expected_invariant
    shrink = shrink_counterexample(
        counterexample, mutation=mutation, max_runs=SHRINK_BUDGET
    )
    return report, shrink


class TestSplitBrainMutation:
    def test_detected_and_shrunk(self):
        report, shrink = find_and_shrink(
            split_brain_primaries, "at_most_one_primary_per_partition"
        )
        shrunk = shrink.shrunk
        assert shrunk.decision_count <= 10
        assert shrink.runs <= SHRINK_BUDGET
        # The minimal repro keeps the partition fault — without one there
        # is no degraded partition to split.
        assert any(
            action == "partition" for _, action, _ in shrunk.scenario.fault_events
        )

    def test_shrunk_repro_replays_and_clean_middleware_passes(self):
        _, shrink = find_and_shrink(
            split_brain_primaries, "at_most_one_primary_per_partition"
        )
        replayed = shrink.shrunk.replay(mutation=split_brain_primaries)
        assert any(
            violation.invariant == "at_most_one_primary_per_partition"
            for violation in replayed.violations
        )
        clean = shrink.shrunk.replay()  # same schedule, unmutated middleware
        assert clean.ok


class TestSkippedThreatReevaluationMutation:
    def test_detected_and_shrunk(self):
        report, shrink = find_and_shrink(
            skipped_threat_reevaluation, "threat_accounting"
        )
        shrunk = shrink.shrunk
        assert shrunk.decision_count <= 10
        assert shrink.runs <= SHRINK_BUDGET
        # The repro needs degraded-mode writes plus a reconciliation.
        assert any(op.kind == "reconcile" for op in shrunk.scenario.ops)

    def test_shrunk_repro_replays_and_clean_middleware_passes(self):
        _, shrink = find_and_shrink(
            skipped_threat_reevaluation, "threat_accounting"
        )
        replayed = shrink.shrunk.replay(mutation=skipped_threat_reevaluation)
        assert any(
            violation.invariant == "threat_accounting"
            for violation in replayed.violations
        )
        clean = shrink.shrunk.replay()
        assert clean.ok


class TestMutationHygiene:
    """Mutations must leave no trace once their context exits."""

    def test_split_brain_restores_route_write(self):
        cluster, _ = single_partition_scenario().build()
        manager = cluster.replication
        with split_brain_primaries(cluster):
            assert "route_write" in vars(manager)
        assert "route_write" not in vars(manager)

    def test_skipped_reevaluation_restores_remove(self):
        cluster, _ = single_partition_scenario().build()
        victim = min(cluster.threat_stores)
        store = cluster.threat_stores[victim]
        with skipped_threat_reevaluation(cluster):
            assert "remove" in vars(store)
        assert "remove" not in vars(store)

    def test_split_brain_requires_replication(self):
        class Bare:
            replication = None

        with pytest.raises(ValueError):
            with split_brain_primaries(Bare()):
                pass
