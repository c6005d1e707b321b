"""Scheduler choice points: the policy hook must not change default FIFO.

Two layers of regression:

* Unit tests on the raw :class:`Scheduler` — ``enabled_items`` semantics
  (FIFO order, overdue events, windows), policy-driven stepping, bounds
  checking, and clock monotonicity when a policy picks a later event.
* A whole-scenario byte-compare — driving the same scenario with no
  policy and with :class:`FifoPolicy` must fire the same events in the
  same order and produce byte-identical observability traces.  This is
  the "default semantics provably unchanged" guarantee the model checker
  rests on.
"""

import io

import pytest

from repro.check import FifoPolicy, LifoPolicy, single_partition_scenario
from repro.check.runner import OpDriver
from repro.obs import Observability
from repro.sim.scheduler import OrderingPolicy, Scheduler


class TestEnabledItems:
    def test_empty_queue_has_no_enabled_items(self):
        assert Scheduler().enabled_items() == []

    def test_fifo_order_among_equal_timestamps(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None, label="a")
        scheduler.schedule_at(1.0, lambda: None, label="b")
        scheduler.schedule_at(1.0, lambda: None, label="c")
        labels = [item.event.label for item in scheduler.enabled_items()]
        assert labels == ["a", "b", "c"]

    def test_zero_window_excludes_later_timestamps(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None, label="now")
        scheduler.schedule_at(2.0, lambda: None, label="later")
        labels = [item.event.label for item in scheduler.enabled_items()]
        assert labels == ["now"]

    def test_window_widens_the_enabled_set(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None, label="now")
        scheduler.schedule_at(1.5, lambda: None, label="near")
        scheduler.schedule_at(3.0, lambda: None, label="far")
        labels = [item.event.label for item in scheduler.enabled_items(window=1.0)]
        assert labels == ["now", "near"]

    def test_overdue_events_are_always_enabled(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None, label="a")
        scheduler.schedule_at(2.0, lambda: None, label="b")
        scheduler.clock.advance_to(2.0)  # both now overdue
        labels = [item.event.label for item in scheduler.enabled_items()]
        assert labels == ["a", "b"]

    def test_cancelled_events_are_not_enabled(self):
        scheduler = Scheduler()
        event = scheduler.schedule_at(1.0, lambda: None, label="a")
        scheduler.schedule_at(1.0, lambda: None, label="b")
        event.cancel()
        labels = [item.event.label for item in scheduler.enabled_items()]
        assert labels == ["b"]


class TestPolicyStepping:
    def test_lifo_policy_reverses_equal_timestamp_order(self):
        scheduler = Scheduler()
        fired = []
        for name in ("a", "b", "c"):
            scheduler.schedule_at(1.0, fired.append, name, label=name)
        scheduler.set_ordering_policy(LifoPolicy())
        scheduler.drain()
        assert fired == ["c", "b", "a"]

    def test_fifo_policy_matches_default_order(self):
        for policy in (None, FifoPolicy()):
            scheduler = Scheduler()
            fired = []
            for name in ("a", "b", "c"):
                scheduler.schedule_at(1.0, fired.append, name, label=name)
            scheduler.schedule_at(2.0, fired.append, "d", label="d")
            scheduler.set_ordering_policy(policy)
            scheduler.drain()
            assert fired == ["a", "b", "c", "d"], policy

    def test_single_candidate_never_consults_the_policy(self):
        class Exploding(OrderingPolicy):
            name = "exploding"

            def choose(self, candidates):
                raise AssertionError("choose() called with one candidate")

        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        scheduler.set_ordering_policy(Exploding())
        assert scheduler.drain() == 2

    def test_out_of_range_choice_raises(self):
        class Broken(OrderingPolicy):
            name = "broken"

            def choose(self, candidates):
                return len(candidates)

        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.set_ordering_policy(Broken())
        with pytest.raises(IndexError):
            scheduler.step()

    def test_clock_stays_monotone_when_policy_picks_later_event(self):
        scheduler = Scheduler()
        times = []
        scheduler.schedule_at(1.0, lambda: times.append(scheduler.clock.now))
        scheduler.schedule_at(1.5, lambda: times.append(scheduler.clock.now))
        policy = LifoPolicy(window=1.0)
        scheduler.set_ordering_policy(policy)
        scheduler.drain()
        # The 1.5 event fired first (clock moved to 1.5); the 1.0 event is
        # then overdue and fires at the current time, not in the past.
        assert times == [1.5, 1.5]
        assert scheduler.clock.now == 1.5

    def test_removing_the_policy_restores_default_stepping(self):
        scheduler = Scheduler()
        fired = []
        for name in ("a", "b"):
            scheduler.schedule_at(1.0, fired.append, name, label=name)
        scheduler.set_ordering_policy(LifoPolicy())
        scheduler.step()
        scheduler.set_ordering_policy(None)
        scheduler.step()
        assert fired == ["b", "a"]
        assert scheduler.policy is None


def drive_scenario(policy):
    """Drive the single-partition scenario step by step, recording every
    fired event's label, without going through ``run_schedule`` (which
    would add its own ``check_*`` telemetry to the trace)."""
    obs = Observability()
    scenario = single_partition_scenario()
    cluster, refs = scenario.build(obs)
    OpDriver(cluster, refs).install(scenario, cluster.clock.now)
    if policy is not None:
        policy.begin_run()
        cluster.scheduler.set_ordering_policy(policy)
    fired = []
    while True:
        event = cluster.scheduler.step()
        if event is None:
            break
        fired.append((round(cluster.clock.now, 9), event.label))
    stream = io.StringIO()
    obs.export_jsonl(stream)
    return fired, stream.getvalue(), cluster.clock.now


class TestDefaultSemanticsUnchanged:
    """FIFO policy ≡ no policy, byte for byte, on a full scenario."""

    def test_fifo_policy_fires_identical_event_sequence(self):
        default_fired, default_trace, default_now = drive_scenario(None)
        fifo_fired, fifo_trace, fifo_now = drive_scenario(FifoPolicy())
        assert fifo_fired == default_fired
        assert fifo_now == default_now
        assert fifo_trace.encode() == default_trace.encode()

    def test_scenario_actually_exercises_choice_points(self):
        policy = FifoPolicy()
        drive_scenario(policy)
        # The byte-compare above is only meaningful if the run hit real
        # choice points (several events enabled at once).
        assert len(policy.decisions) >= 3
        assert any(decision.arity >= 2 for decision in policy.decisions)
