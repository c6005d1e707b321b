"""Tests for chaos runs: the ``chaos`` corpus preset under ``replay_scenario``.

The headline guarantees: a seeded run with >= 20 fault events on >= 5
nodes is fully deterministic (same seed -> byte-identical trace and
equal snapshot), every post-run invariant holds across seeds,
and the script is well-formed enough for the validator and the model
checker.
"""

import json

import pytest

from repro.apps import counter
from repro.check import CommittedStateSurvives, default_registry, run_schedule
from repro.corpus import (
    PRESETS,
    generate_scenario,
    preset_config,
    validate_scenario,
)
from repro.faults import ReplayReport, replay_scenario

SEEDS = [0, 1, 2, 7, 13]
CHAOS = PRESETS["chaos"]


def chaos(seed, **overrides):
    return generate_scenario(preset_config("counter", seed, "chaos", **overrides))


def run(seed, **overrides):
    return replay_scenario(chaos(seed, **overrides))


class TestConfig:
    def test_validation(self):
        assert CHAOS["nodes"] >= 5 and CHAOS["faults"] >= 20
        with pytest.raises(KeyError):
            preset_config("counter", 0, "havoc")
        with pytest.raises(KeyError):
            chaos(0, fault_plan="brownian")
        with pytest.raises(ValueError):
            run(0, ops=5, burst_loss=0.0)
        with pytest.raises(ValueError):
            run(0, ops=5, burst_loss=0.7)
        # A cluster of no nodes, a workload over no entities.
        codes = {issue.code for issue in validate_scenario(chaos(0, nodes=0, ops=0))}
        assert "unknown-node" in codes
        codes = {issue.code for issue in validate_scenario(chaos(0, entities=0, ops=0))}
        assert "bad-ref" in codes

    def test_report_defaults(self):
        report = ReplayReport(scenario="empty", domain="counter")
        assert report.availability == 0.0
        assert report.failed_invariants == []


class TestInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_invariants_hold_across_seeds(self, seed):
        scenario = chaos(seed)
        report = replay_scenario(scenario)
        # 150 workload ops plus the generator's closing reconcile.
        assert report.attempted == CHAOS["ops"] + 1
        assert report.served + report.blocked == report.attempted
        # 20 scripted faults plus the closing heal_all.
        assert len(scenario.fault_events) == CHAOS["faults"] + 1
        assert not report.failed_invariants, report.failed_invariants

    def test_a_tampered_row_is_reported_after_a_reconciliation(self):
        from repro.check import RowsMatchEntities, RunProbe

        cluster, refs = chaos(0).build()
        invariant = RowsMatchEntities()
        probe = RunProbe(cluster, refs, just_reconciled=cluster.reconcile())
        assert invariant.check(probe) is None
        node = sorted(cluster.nodes)[-1]
        key = (refs[0].class_name, refs[0].oid)
        cluster.nodes[node].persistence.table("entities").put(key, {"tampered": True})
        assert invariant.check(RunProbe(cluster, refs)) is None  # not a reconciling step
        assert invariant.check(probe) == (
            f"{node}: {refs[0]} row {{'tampered': True}} but entity "
            f"{cluster.entity_on(node, refs[0]).state()!r}"
        )

    def test_invariants_hold_with_burst_loss(self):
        report = run(3, burst_loss=0.02)
        assert not report.failed_invariants, report.failed_invariants

    def test_invariant_names(self):
        # The replay reports the checker's own registry, nothing beside it.
        names = [inv.name for inv in run(0).invariants]
        assert names == default_registry().names()
        assert {"replica_convergence", "committed_state_survives", "threat_accounting",
                "cluster_healthy_again"} <= set(names)

    def test_faults_actually_block_something(self):
        # Sanity: the fault script does disturb the workload (a chaos run
        # whose faults never bite tests nothing).  Ops start on live
        # nodes and P4 serves every partition, so the bite shows as
        # threats there and as denied minority writes under the
        # primary-partition protocol.
        assert all(run(seed).threats_accepted > 0 for seed in (0, 1, 2))
        assert any(
            run(seed, protocol="primary-partition").errors.get("WriteAccessDenied")
            for seed in (0, 1, 2)
        )

    def test_threats_are_recorded_and_reconciled(self):
        reports = [run(seed) for seed in (0, 1, 2)]
        assert any(report.threats_recorded > 0 for report in reports)
        for report in reports:
            assert report.reconciliation is not None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_entity_is_covered_by_committed_state_survives(self, seed, monkeypatch):
        # The check is not vacuous: the replay hands it every entity's
        # counter, each with some served write beside its creation value.
        probes = []
        check = CommittedStateSurvives.check
        monkeypatch.setattr(
            CommittedStateSurvives,
            "check",
            lambda self, probe: probes.append(probe) or check(self, probe),
        )
        report = run(seed)
        (probe,) = probes
        assert set(probe.settable) == {(index, "counter") for index in range(CHAOS["entities"])}
        assert all(len(values) > 1 for values in probe.settable.values())
        assert [inv.ok for inv in report.invariants if inv.name == "committed_state_survives"] == [True]

    @pytest.fixture
    def wrong_setter(self, monkeypatch):
        # Mutation: the setter stores something other than what the op
        # carried, so the surviving value was never written by anyone.
        monkeypatch.setattr(
            counter.Record,
            "set_counter",
            lambda self, value: self._set("counter", value + 1),
        )

    def test_a_final_counter_no_served_write_produced_is_caught(self, wrong_setter):
        report = run(0)
        assert [result.name for result in report.failed_invariants] == [
            "committed_state_survives"
        ]
        assert "was never written" in report.failed_invariants[0].detail

    def test_the_checker_catches_the_same_write_at_its_step(self, wrong_setter):
        result = run_schedule(chaos(0), collect_trace=False)
        assert [v.invariant for v in result.violations] == ["committed_state_survives"]
        assert result.steps < CHAOS["ops"]


class TestModelCheckable:
    """A chaos script is scenario data, so the validator and the model
    checker take it as it is."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_script_is_well_formed(self, seed):
        assert validate_scenario(chaos(seed)) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fifo_schedule_keeps_every_step_invariant(self, seed):
        result = run_schedule(chaos(seed), collect_trace=False)
        assert result.ok, result.violations
        assert result.ops_attempted == CHAOS["ops"] + 1


class TestDeterminism:
    def test_same_seed_byte_identical_trace_and_snapshot(self):
        first = run(7)
        second = run(7)
        assert first.trace_jsonl.encode() == second.trace_jsonl.encode()
        assert json.dumps(first.snapshot, sort_keys=True) == json.dumps(
            second.snapshot, sort_keys=True
        )
        assert chaos(7) == chaos(7)
        assert first.errors == second.errors
        assert first.availability == second.availability

    def test_same_seed_with_burst_loss(self):
        first = run(11, burst_loss=0.02)
        second = run(11, burst_loss=0.02)
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
        scenario = chaos(5)
        schedule = scenario.shifted_fault_schedule(0.0)
        assert tuple(
            (event.at, event.action, event.args) for event in schedule.events
        ) == scenario.fault_events
        assert len(schedule) == CHAOS["faults"] + 1

    def test_script_is_time_ordered_and_in_window(self):
        scenario = chaos(5)
        times = [at for at, _, _ in scenario.fault_events[:-1]]
        assert times == sorted(times)
        horizon = CHAOS["ops"] * preset_config("counter", 5, "chaos").op_gap
        assert 0 < times[0] and times[-1] < horizon

    def test_script_uses_multiple_action_kinds(self):
        actions = {action for _, action, _ in chaos(5).fault_events}
        assert len(actions) >= 3

    def test_faults_overlap(self):
        # What sets the random walk apart from the episode plans: a fault
        # is not closed before the next one begins.
        for seed in SEEDS:
            open_faults = peak = 0
            for _at, action, _args in chaos(seed).fault_events:
                if action == "heal_all":
                    open_faults = 0
                elif action in ("crash_node", "fail_link", "partition"):
                    open_faults += 1
                    peak = max(peak, open_faults)
            assert peak >= 2, seed


class TestBurstLossFailsFast:
    """With no scripted fault, burst loss alone blocks ops: a lost call
    is not retried, so the op driver counts it once, as blocked by an
    ``UnreachableError``."""

    @staticmethod
    def lossy(seed, burst_loss=0.05):
        return run(seed, ops=120, faults=0, burst_loss=burst_loss)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_lost_op_is_blocked_once(self, seed):
        base = run(seed, ops=120, faults=0)
        lossy = self.lossy(seed)
        assert base.served == base.attempted == lossy.attempted
        assert lossy.served + lossy.blocked == lossy.attempted
        assert lossy.errors == ({"UnreachableError": lossy.blocked} if lossy.blocked else {})
        assert len(lossy.outcomes) == lossy.attempted
        assert sum(1 for _, served in lossy.outcomes if not served) == lossy.blocked

    def test_burst_loss_alone_blocks_ops(self):
        blocked = [self.lossy(seed).blocked for seed in SEEDS]
        assert sum(blocked) > 0, blocked


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
