"""Tests for the application domains and partition-sensitive helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.ats import ALLOWED_COMPONENTS, Alarm, RepairReport
from repro.apps.dtms import ChannelEndpoint, Site, wire_channel
from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    PartitionSensitiveTicketConstraint,
    Person,
    TicketConstraint,
)
from repro.core import ConstraintValidationContext, SatisfactionDegree
from repro.core.partition_sensitive import DegradedBaseline, partition_allowance
from repro.objects import ObjectRef
from repro.replication import ReplicaConflict, UpdateRecord


class TestFlightEntity:
    def test_sell_accumulates(self):
        flight = Flight("f1", seats=10)
        assert flight.sell_tickets(3) == 3
        assert flight.sell_tickets(2) == 5

    def test_cancel_floors_at_zero(self):
        flight = Flight("f1", seats=10, sold=2)
        assert flight.cancel_tickets(5) == 0

    def test_negative_counts_rejected(self):
        flight = Flight("f1")
        with pytest.raises(ValueError):
            flight.sell_tickets(-1)
        with pytest.raises(ValueError):
            flight.cancel_tickets(-1)

    def test_free_seats(self):
        flight = Flight("f1", seats=10, sold=4)
        assert flight.free_seats() == 6

    def test_person_entity(self):
        person = Person("p1", name="Ada")
        assert person.get_name() == "Ada"


class TestTicketConstraint:
    def test_satisfied_and_violated(self):
        constraint = TicketConstraint()
        flight = Flight("f1", seats=10, sold=10)
        assert constraint.validate(ConstraintValidationContext(context_object=flight))
        flight.set_sold(11)
        assert not constraint.validate(ConstraintValidationContext(context_object=flight))

    def test_metadata(self):
        constraint = TicketConstraint()
        assert constraint.is_tradeable()
        assert constraint.min_satisfaction_degree is SatisfactionDegree.POSSIBLY_SATISFIED
        assert constraint.context_class == "Flight"


class TestPartitionAllowance:
    def test_basic_share(self):
        assert partition_allowance(80, 40, 0.25) == 10

    def test_floor_rounding(self):
        assert partition_allowance(80, 41, 1 / 3) == 13

    def test_no_remaining_capacity(self):
        assert partition_allowance(80, 80, 0.5) == 0
        assert partition_allowance(80, 90, 0.5) == 0

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            partition_allowance(10, 0, 1.5)

    @given(
        capacity=st.integers(0, 1000),
        used=st.integers(0, 1000),
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    )
    def test_shares_never_overcommit(self, capacity, used, weights):
        """Property: Σ t_x ≤ t for any weight split (§5.5.2)."""
        total = sum(weights)
        normalized = [w / total for w in weights]
        shares = sum(partition_allowance(capacity, used, w) for w in normalized)
        assert shares <= max(0, capacity - used)


class TestDegradedBaseline:
    def test_healthy_updates_baseline(self):
        baseline = DegradedBaseline()
        assert baseline.capture("k", 10, degraded=False) == 10
        assert baseline.capture("k", 20, degraded=False) == 20

    def test_degraded_freezes_last_healthy(self):
        baseline = DegradedBaseline()
        baseline.capture("k", 10, degraded=False)
        assert baseline.capture("k", 15, degraded=True) == 10
        assert baseline.capture("k", 99, degraded=True) == 10

    def test_unknown_key_seeds_from_value(self):
        baseline = DegradedBaseline()
        assert baseline.capture("k", 7, degraded=True) == 7

    def test_healthy_clears_frozen(self):
        baseline = DegradedBaseline()
        baseline.capture("k", 10, degraded=False)
        baseline.capture("k", 15, degraded=True)
        baseline.capture("k", 30, degraded=False)
        assert baseline.capture("k", 35, degraded=True) == 30

    def test_reset(self):
        baseline = DegradedBaseline()
        baseline.capture("k", 10, degraded=True)
        baseline.reset("k")
        assert len(baseline) == 0
        assert baseline.peek("k") is None

    def test_peek_prefers_frozen(self):
        baseline = DegradedBaseline()
        baseline.capture("k", 10, degraded=False)
        baseline.capture("k", 20, degraded=True)
        assert baseline.peek("k") == 10


class TestPartitionSensitiveConstraint:
    def _ctx(self, flight, degraded, weight):
        return ConstraintValidationContext(
            context_object=flight, degraded=degraded, partition_weight=weight
        )

    def test_healthy_mode_plain_check(self):
        constraint = PartitionSensitiveTicketConstraint()
        flight = Flight("f1", seats=10, sold=5)
        assert constraint.validate(self._ctx(flight, False, 1.0))

    def test_degraded_within_share(self):
        constraint = PartitionSensitiveTicketConstraint()
        flight = Flight("f1", seats=80, sold=40)
        constraint.validate(self._ctx(flight, False, 1.0))  # records baseline
        flight.set_sold(50)
        assert constraint.validate(self._ctx(flight, True, 0.25))

    def test_degraded_beyond_share(self):
        constraint = PartitionSensitiveTicketConstraint()
        flight = Flight("f1", seats=80, sold=40)
        constraint.validate(self._ctx(flight, False, 1.0))
        flight.set_sold(51)
        assert not constraint.validate(self._ctx(flight, True, 0.25))


class TestAdditiveSoldMerge:
    def _record(self, ref, sold, partition, timestamp, version):
        return UpdateRecord(
            ref=ref,
            kind="state",
            partition_key=frozenset(partition),
            node=min(partition),
            version=version,
            state={"flight_number": "", "seats": 80, "sold": sold},
            timestamp=timestamp,
            epoch=1,
        )

    def test_merges_deltas_from_both_partitions(self):
        ref = ObjectRef("Flight", "LH1")
        conflict = ReplicaConflict(
            ref=ref,
            candidates=[
                self._record(ref, 77, {"a"}, 1.0, 1),
                self._record(ref, 78, {"b", "c"}, 2.0, 1),
            ],
        )
        merged = AdditiveSoldMerge({ref: 70})(conflict)
        assert merged.state["sold"] == 85  # 70 + 7 + 8 (§1.3)

    def test_latest_record_per_partition_counts(self):
        ref = ObjectRef("Flight", "LH1")
        conflict = ReplicaConflict(
            ref=ref,
            candidates=[
                self._record(ref, 72, {"a"}, 1.0, 1),
                self._record(ref, 77, {"a"}, 2.0, 2),
                self._record(ref, 78, {"b", "c"}, 3.0, 1),
            ],
        )
        merged = AdditiveSoldMerge({ref: 70})(conflict)
        assert merged.state["sold"] == 85

    def test_unknown_baseline_falls_back(self):
        ref = ObjectRef("Flight", "LH1")
        conflict = ReplicaConflict(ref=ref, candidates=[self._record(ref, 77, {"a"}, 1.0, 1)])
        assert AdditiveSoldMerge({})(conflict) is None


class TestAtsEntities:
    def test_alarm_lifecycle(self):
        alarm = Alarm("al1", alarm_kind="Signal")
        report = RepairReport("rr1")
        alarm.assign_report(report.ref)
        assert alarm.get_repair_report() == report.ref
        alarm.close()
        assert not alarm.get_open()

    def test_report_completion(self):
        report = RepairReport("rr1")
        report.complete()
        assert report.get_completed()

    def test_allowed_components_table(self):
        assert "Signal Cable" in ALLOWED_COMPONENTS["Signal"]
        assert "Fuse" in ALLOWED_COMPONENTS["Power"]
        assert "Fuse" not in ALLOWED_COMPONENTS["Signal"]


class TestDtmsEntities:
    def test_wire_channel_sets_peers(self):
        end_a = ChannelEndpoint("e1", channel_id="ch1")
        end_b = ChannelEndpoint("e2", channel_id="ch1")
        wire_channel(end_a, end_b)
        assert end_a.get_peer() == end_b.ref
        assert end_b.get_peer() == end_a.ref

    def test_configure_sets_both_parameters(self):
        endpoint = ChannelEndpoint("e1")
        endpoint.configure(118000, "g711")
        assert endpoint.get_frequency() == 118000
        assert endpoint.get_codec() == "g711"

    def test_enable_disable(self):
        endpoint = ChannelEndpoint("e1")
        endpoint.enable()
        assert endpoint.get_enabled()
        endpoint.disable()
        assert not endpoint.get_enabled()

    def test_site_entity(self):
        site = Site("s1", name="Vienna", region="east")
        assert site.get_name() == "Vienna"


class TestGeneratedWorkloads:
    """Corpus-generated workloads drive each domain through a partition
    and a reconciliation while every check invariant holds at every step.

    The workload (ops, colliding timestamps, argument values) comes from
    the seeded generator; the fault script is pinned to the canonical
    partition + heal shape so degraded mode and the merge path are
    guaranteed to be exercised regardless of seed.
    """

    FAULTS = (
        (0.15, "partition", (("n1",), ("n2", "n3"))),
        (0.45, "heal_all", ()),
    )

    def _partitioned(self, domain, seed):
        from dataclasses import replace

        from repro.corpus import GeneratorConfig, generate_scenario, validate_scenario

        generated = generate_scenario(
            GeneratorConfig(domain=domain, seed=seed, nodes=3, entities=2,
                            ops=12, faults=0)
        )
        scenario = replace(generated, fault_events=self.FAULTS)
        assert validate_scenario(scenario) == []
        return scenario

    @pytest.mark.parametrize("domain", ["ats", "dtms", "projectmgmt"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants_hold_through_partition_and_reconcile(self, domain, seed):
        from repro.check import default_registry, run_schedule

        registry = default_registry()
        names = {invariant.name for invariant in registry.invariants}
        assert names == {
            "at_most_one_primary_per_partition",
            "lattice_monotonicity",
            "threat_accounting",
            "replica_convergence",
            "no_cross_partition_delivery",
            "adaptation_guardrails",
            "committed_state_survives",
            "cluster_healthy_again",
        }
        result = run_schedule(self._partitioned(domain, seed), registry=registry)
        assert result.ok, result.violations
        assert result.ops_attempted == 13  # 12 generated invokes + reconcile
        # The partition fired mid-workload and the world healed after.
        assert result.sim_time > 0

    @pytest.mark.parametrize("domain", ["ats", "dtms", "projectmgmt"])
    def test_replay_converges_after_partition(self, domain):
        from repro.faults.chaos import replay_scenario

        report = replay_scenario(self._partitioned(domain, seed=3))
        assert report.all_invariants_hold, report.failed_invariants
        assert report.attempted == 13
