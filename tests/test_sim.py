"""Tests for the simulation kernel: clock, stopwatch, scheduler, costs."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import CostLedger, CostModel, Scheduler, SimClock, Stopwatch, charger
from repro.transport.wallclock import WallClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == 1.5

    def test_advance_returns_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(2.0) == 3.0

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_zero_is_noop(self):
        clock = SimClock(2.0)
        clock.advance(0.0)
        assert clock.now == 2.0

    def test_advance_to_jumps(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_rejects_past(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_advance_to_current_time_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_advance_rejects_nonfinite(self, bad):
        # NaN < 0 is false, so without the explicit finiteness check a
        # single NaN cost would silently poison every later timestamp.
        clock = SimClock(1.0)
        with pytest.raises(ValueError):
            clock.advance(bad)
        assert clock.now == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_advance_to_rejects_nonfinite(self, bad):
        clock = SimClock(1.0)
        with pytest.raises(ValueError):
            clock.advance_to(bad)
        assert clock.now == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_start(self, bad):
        with pytest.raises(ValueError):
            SimClock(bad)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
    def test_clock_is_monotonic(self, increments):
        clock = SimClock()
        previous = clock.now
        for increment in increments:
            clock.advance(increment)
            assert clock.now >= previous
            previous = clock.now


class TestStopwatch:
    def test_measures_elapsed(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(2.5)
        assert watch.stop() == 2.5

    def test_context_manager(self):
        clock = SimClock()
        with Stopwatch(clock) as watch:
            clock.advance(1.0)
        assert watch.elapsed == 1.0

    def test_stop_without_start_raises(self):
        watch = Stopwatch(SimClock())
        with pytest.raises(RuntimeError):
            watch.stop()


class TestScheduler:
    def test_schedule_and_step(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.step()
        assert fired == ["a"]
        assert scheduler.clock.now == 1.0

    def test_events_fire_in_timestamp_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(2.0, fired.append, "late")
        scheduler.schedule_at(1.0, fired.append, "early")
        scheduler.drain()
        assert fired == ["early", "late"]

    def test_fifo_among_equal_timestamps(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "first")
        scheduler.schedule_at(1.0, fired.append, "second")
        scheduler.drain()
        assert fired == ["first", "second"]

    def test_schedule_after_is_relative(self):
        scheduler = Scheduler()
        scheduler.clock.advance(5.0)
        event = scheduler.schedule_after(2.0, lambda: None)
        assert event.timestamp == 7.0

    def test_schedule_in_past_raises(self):
        scheduler = Scheduler()
        scheduler.clock.advance(5.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            Scheduler().schedule_after(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        scheduler = Scheduler()
        fired = []
        event = scheduler.schedule_at(1.0, fired.append, "x")
        event.cancel()
        scheduler.drain()
        assert fired == []

    def test_step_on_empty_returns_none(self):
        assert Scheduler().step() is None

    def test_run_until_fires_only_due_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(3.0, fired.append, "b")
        count = scheduler.run_until(2.0)
        assert count == 1
        assert fired == ["a"]
        assert scheduler.clock.now == 2.0

    def test_run_until_includes_boundary(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(2.0, fired.append, "a")
        scheduler.run_until(2.0)
        assert fired == ["a"]

    def test_len_counts_pending(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None)
        event = scheduler.schedule_at(2.0, lambda: None)
        event.cancel()
        assert len(scheduler) == 1

    def test_drain_guards_runaway(self):
        scheduler = Scheduler()

        def reschedule():
            scheduler.schedule_after(1.0, reschedule)

        scheduler.schedule_after(1.0, reschedule)
        with pytest.raises(RuntimeError):
            scheduler.drain(max_events=10)

    def test_event_callback_args(self):
        scheduler = Scheduler()
        results = []
        scheduler.schedule_at(1.0, lambda a, b: results.append(a + b), 1, 2)
        scheduler.drain()
        assert results == [3]


class TestCostModel:
    def test_defaults_are_positive(self):
        costs = CostModel()
        for name in costs.__dataclass_fields__:
            assert getattr(costs, name) > 0, name

    def test_scaled(self):
        costs = CostModel().scaled(2.0)
        assert costs.db_read == pytest.approx(CostModel().db_read * 2)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModel().scaled(0)

    def test_with_overrides(self):
        costs = CostModel().with_overrides(db_read=0.5)
        assert costs.db_read == 0.5
        assert costs.db_write == CostModel().db_write

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().db_read = 1.0  # type: ignore[misc]


class TestCostLedger:
    """The ledger is written through its charge function only."""

    @staticmethod
    def bound(ledger, clock=None, costs=None):
        return charger(clock or SimClock(), costs or CostModel(), ledger)

    def test_charge_accumulates(self):
        ledger = CostLedger()
        charge = self.bound(ledger)
        charge("db_read", 0.5)
        charge("db_read", 0.25)
        assert ledger.totals["db_read"] == 0.75
        assert ledger.counts["db_read"] == 2

    def test_total_sums_categories(self):
        ledger = CostLedger()
        charge = self.bound(ledger)
        charge("a", 1.0)
        charge("b", 2.0)
        assert ledger.total() == 3.0

    def test_summary_shape(self):
        ledger = CostLedger()
        self.bound(ledger)("x", 0.5)
        assert ledger.summary() == {"x": {"count": 1, "seconds": 0.5}}

    def test_bit_identical_to_the_three_step_reference(self):
        """``getattr`` the seconds, ``dict.get``-accumulate, ``+=`` the
        clock: what a charge did as three calls, kept here as the
        specification of the one function."""
        costs = CostModel().scaled(1 / 3)  # seconds with busy mantissas
        names = sorted(costs.__dataclass_fields__)
        rng = random.Random(20)
        recorded = []
        for _ in range(1500):
            if rng.random() < 0.7:
                recorded.append((rng.choice(names), None))
            else:  # a duration the caller computed
                recorded.append((rng.choice(["multicast", "fault_delay", "db_read"]), rng.random() / 7))

        totals, counts, now = {}, {}, 0.0
        for category, seconds in recorded:
            if seconds is None:
                seconds = getattr(costs, category)
            totals[category] = totals.get(category, 0.0) + seconds
            counts[category] = counts.get(category, 0) + 1
            now += seconds

        ledger, clock = CostLedger(), SimClock()
        charge = self.bound(ledger, clock, costs)
        for category, seconds in recorded:
            if seconds is None:
                charge(category)
            else:
                charge(category, seconds)
        assert clock.now.hex() == now.hex()
        assert {k: v.hex() for k, v in ledger.totals.items()} == {
            k: v.hex() for k, v in totals.items()
        }
        assert list(ledger.totals) == list(totals)  # first-charge order
        assert ledger.counts == counts and list(ledger.counts) == list(counts)
        assert ledger.summary() == {
            name: {"count": counts[name], "seconds": totals[name]}
            for name in sorted(totals)
        }

    @pytest.mark.parametrize("clock_type", [SimClock, WallClock])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_durations_are_rejected(self, clock_type, bad):
        charge = self.bound(CostLedger(), clock_type())
        with pytest.raises(ValueError):
            charge("multicast", bad)
        with pytest.raises(ValueError):
            self.bound(CostLedger(), clock_type(), CostModel(db_read=bad))("db_read")

    def test_unknown_category_is_rejected(self):
        ledger = CostLedger()
        with pytest.raises(AttributeError, match="not_a_cost"):
            self.bound(ledger)("not_a_cost")
        assert not ledger.totals and not ledger.counts


@pytest.mark.parametrize("clock_type", [SimClock, WallClock])
@pytest.mark.parametrize(
    "bad, message",
    [
        (float("nan"), "cannot advance clock by non-finite time: nan"),
        (float("inf"), "cannot advance clock by non-finite time: inf"),
        (float("-inf"), "cannot advance clock by non-finite time: -inf"),
        (-0.5, "cannot advance clock by negative time: -0.5"),
    ],
)
def test_every_clock_rejects_a_bad_advance(clock_type, bad, message):
    """A NaN cost must surface on the wall clock as on the simulated one
    (``nan < 0`` is false, so a sign test alone lets it through)."""
    clock = clock_type()
    with pytest.raises(ValueError, match=f"^{message}$"):
        clock.advance(bad)
    assert clock.advance(0.0) >= 0.0
