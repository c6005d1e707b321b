"""Tests for the deterministic chaos runner.

The headline guarantees: a seeded run with >= 20 fault events on >= 5
nodes is fully deterministic (same seed -> byte-identical trace and
equal metrics snapshot), every post-run invariant holds across seeds,
and client-side retries strictly improve availability under burst loss.
"""

import json

import pytest

from repro.faults import (
    ChaosConfig,
    ChaosReport,
    ChaosRunner,
    FaultSchedule,
    ResilienceConfig,
    RetryPolicy,
    run_chaos,
)

# A moderately sized default scenario: 5 nodes, 20 scripted faults.
SCENARIO = dict(node_count=5, entities=6, operations=150, fault_events=20)


def run(seed, **overrides):
    params = dict(SCENARIO)
    params.update(overrides)
    return run_chaos(seed=seed, **params)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(node_count=1)
        with pytest.raises(ValueError):
            ChaosConfig(entities=0)
        with pytest.raises(ValueError):
            ChaosConfig(read_ratio=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(burst_loss=0.0)
        with pytest.raises(ValueError):
            ChaosConfig(burst_loss=0.7)

    def test_runner_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError):
            ChaosRunner(ChaosConfig(), seed=3)

    def test_report_defaults(self):
        report = ChaosReport(seed=0)
        assert report.availability == 0.0
        assert report.all_invariants_hold  # vacuously
        assert report.failed_invariants == []


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
    def test_all_invariants_hold_across_seeds(self, seed):
        report = run(seed)
        assert report.attempted == SCENARIO["operations"]
        assert report.served + report.blocked == report.attempted
        assert len(report.fault_events) == SCENARIO["fault_events"]
        assert report.all_invariants_hold, report.failed_invariants

    def test_invariants_hold_with_resilience_and_burst_loss(self):
        report = run(3, resilience=ResilienceConfig(), burst_loss=0.02)
        assert report.all_invariants_hold, report.failed_invariants

    def test_invariant_names(self):
        report = run(0)
        assert [inv.name for inv in report.invariants] == [
            "replicas_converge",
            "committed_state_survives",
            "no_accepted_threat_lost",
            "cluster_healthy_again",
        ]

    def test_faults_actually_block_something(self):
        # Sanity: across seeds the fault script does disturb the workload
        # (a chaos runner whose faults never bite tests nothing).
        assert any(run(seed).blocked > 0 for seed in (0, 1, 2))

    def test_threats_are_recorded_and_reconciled(self):
        reports = [run(seed) for seed in (0, 1, 2)]
        assert any(report.threats_recorded > 0 for report in reports)
        for report in reports:
            assert report.reconciliation is not None


class TestDeterminism:
    def test_same_seed_byte_identical_trace_and_snapshot(self):
        first = run(7)
        second = run(7)
        assert first.trace_jsonl.encode() == second.trace_jsonl.encode()
        assert json.dumps(first.snapshot, sort_keys=True) == json.dumps(
            second.snapshot, sort_keys=True
        )
        assert first.fault_events == second.fault_events
        assert first.errors == second.errors
        assert first.availability == second.availability

    def test_same_seed_with_resilience_and_loss(self):
        config = dict(
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=4, base_delay=0.05)
            ),
            burst_loss=0.02,
        )
        first = run(11, **config)
        second = run(11, **config)
        assert first.trace_jsonl == second.trace_jsonl
        assert first.snapshot == second.snapshot

    def test_different_seeds_differ(self):
        assert run(7).trace_jsonl != run(8).trace_jsonl

    def test_trace_is_parseable_jsonl(self):
        report = run(0)
        lines = report.trace_jsonl.splitlines()
        assert len(lines) > 100
        for line in lines[:20]:
            event = json.loads(line)
            assert {"seq", "ts", "type", "node", "data"} <= set(event)


class TestFaultScript:
    def test_script_round_trips_through_schedule(self):
        report = run(5)
        schedule = FaultSchedule.from_events(report.fault_events)
        assert schedule.to_events() == report.fault_events
        assert len(schedule) == SCENARIO["fault_events"]

    def test_script_is_time_ordered_and_in_window(self):
        report = run(5)
        times = [at for at, _, _ in report.fault_events]
        assert times == sorted(times)
        horizon = SCENARIO["operations"] * ChaosConfig().op_gap
        assert times[-1] - times[0] < horizon

    def test_script_uses_multiple_action_kinds(self):
        actions = {action for _, action, _ in run(5).fault_events}
        assert len(actions) >= 3


class TestResilienceEffect:
    def test_retries_strictly_improve_availability_under_burst_loss(self):
        # Same seed, same Gilbert-Elliott loss; only the client-side
        # resilience differs.  Sum over a few seeds to keep the margin
        # robust against individual lucky runs.
        baseline_served = resilient_served = attempted = 0
        for seed in (1, 2, 3):
            base = run_chaos(
                seed=seed, node_count=5, operations=120, fault_events=0,
                burst_loss=0.03,
            )
            resilient = run_chaos(
                seed=seed, node_count=5, operations=120, fault_events=0,
                burst_loss=0.03,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=4, base_delay=0.02, jitter=0.1)
                ),
            )
            assert base.attempted == resilient.attempted
            # No seed regresses, and a retried op is never counted twice.
            assert base.served <= resilient.served <= resilient.attempted
            baseline_served += base.served
            resilient_served += resilient.served
            attempted += base.attempted
        assert resilient_served > baseline_served
        assert resilient_served / attempted > baseline_served / attempted


class TestAvailabilityCurve:
    """Bucketing edge cases for the replay availability series."""

    def _curve(self, *args, **kwargs):
        from repro.faults.chaos import _availability_curve

        return _availability_curve(*args, **kwargs)

    def test_empty_window_yields_no_buckets(self):
        assert self._curve([], horizon=0.0, buckets=8) == []
        assert self._curve([], horizon=-1.0, buckets=4) == []

    def test_empty_samples_with_horizon_have_null_availability(self):
        curve = self._curve([], horizon=2.0, buckets=4)
        assert len(curve) == 4
        for bucket in curve:
            assert bucket["attempted"] == 0
            assert bucket["availability"] is None  # no division by zero

    def test_explicit_bucket_width(self):
        samples = [(0.1, True), (0.4, True), (0.6, False), (1.4, True)]
        curve = self._curve(samples, horizon=1.5, buckets=8, bucket_width=0.5)
        assert [bucket["until"] for bucket in curve] == [0.5, 1.0, 1.5]
        assert [bucket["attempted"] for bucket in curve] == [2, 1, 1]
        assert curve[0]["availability"] == 1.0
        assert curve[1]["availability"] == 0.0

    def test_bucket_width_extends_past_horizon_samples(self):
        # A sample beyond the nominal horizon still lands in a bucket.
        curve = self._curve([(2.2, True)], horizon=1.0, buckets=4, bucket_width=0.5)
        assert curve[-1]["until"] == pytest.approx(2.5)
        assert curve[-1]["attempted"] == 1

    def test_bucket_width_must_be_positive(self):
        with pytest.raises(ValueError):
            self._curve([(0.1, True)], horizon=1.0, buckets=4, bucket_width=0.0)
        with pytest.raises(ValueError):
            self._curve([(0.1, True)], horizon=1.0, buckets=4, bucket_width=-0.5)

    def test_replay_threads_bucket_width_through(self):
        from repro.check import single_partition_scenario
        from repro.faults.chaos import replay_scenario

        report = replay_scenario(single_partition_scenario(), bucket_width=0.25)
        assert report.availability_curve
        widths = {
            round(second["until"] - first["until"], 6)
            for first, second in zip(
                report.availability_curve, report.availability_curve[1:]
            )
        }
        assert widths == {0.25}
