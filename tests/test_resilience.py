"""Tests for the client-side resilience layer.

Retry policy math, the circuit-breaker state machine, and the
:class:`ResilienceInterceptor` wired into a full cluster: retries riding
out scripted transients, per-invocation deadlines, breaker fast-fails,
and the replication manager's redirect retries.
"""

import random

import pytest

from repro.apps.counter import Record, counter_constraint_registration
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import AcceptAllHandler
from repro.faults import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    DropKinds,
    FaultInjector,
    ResilienceConfig,
    RetryPolicy,
)
from repro.net import DeadlineExceededError, UnreachableError
from repro.obs import Observability
from repro.sim import SimClock

NODES = ("n1", "n2", "n3")


def make_cluster(resilience=None, obs=None, replication=True, injector=None):
    cluster = DedisysCluster(
        ClusterConfig(
            node_ids=NODES,
            enable_replication=replication,
            resilience=resilience,
            obs=obs,
            fault_injector=injector,
        )
    )
    cluster.deploy(Record)
    cluster.register_constraint(counter_constraint_registration())
    return cluster


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_for(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, max_delay=10.0)
        first = [policy.delay_for(1, random.Random(9)) for _ in range(5)]
        second = [policy.delay_for(1, random.Random(9)) for _ in range(5)]
        assert first == second
        for delay in first:
            assert 0.1 <= delay <= 0.15

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0, random.Random(0))

    def test_jitter_sequence_deterministic_over_shared_rng(self):
        """One seeded rng drawn across a whole retry ladder replays exactly.

        This is the shape the interceptor actually uses: a single rng
        consumed by consecutive attempts — not a fresh rng per call — so
        same-seed runs must produce the same delay *sequence*.
        """
        policy = RetryPolicy(base_delay=0.05, jitter=0.3, max_delay=5.0)

        def ladder(seed):
            rng = random.Random(seed)
            return [policy.delay_for(attempt, rng) for attempt in range(1, 7)]

        assert ladder(42) == ladder(42)
        assert ladder(42) != ladder(43)

    def test_zero_jitter_consumes_no_randomness(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        rng = random.Random(5)
        before = rng.getstate()
        policy.delay_for(3, rng)
        assert rng.getstate() == before


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout=0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)


class TestCircuitBreaker:
    def make(self, threshold=3, timeout=5.0):
        clock = SimClock()
        breaker = CircuitBreaker(
            clock,
            BreakerConfig(failure_threshold=threshold, reset_timeout=timeout),
            destination="x",
        )
        return clock, breaker

    def test_opens_after_threshold_consecutive_failures(self):
        clock, breaker = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_at == pytest.approx(5.0)

    def test_success_resets_failure_count(self):
        clock, breaker = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_success_closes(self):
        clock, breaker = self.make(threshold=1, timeout=2.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(2.0)
        assert breaker.allow()  # first probe admitted
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # only one outstanding probe
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock, breaker = self.make(threshold=1, timeout=2.0)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at == pytest.approx(4.0)

    def test_half_open_admits_at_most_configured_concurrent_probes(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            clock,
            BreakerConfig(failure_threshold=1, reset_timeout=2.0, half_open_probes=2),
            destination="x",
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        assert breaker.allow()  # second concurrent probe admitted
        assert not breaker.allow()  # third refused while both outstanding
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_race_failure_wins_over_outstanding_probe(self):
        """Two probes in flight: the failing one re-opens the circuit, and
        the straggler's success must not flip it closed again."""
        clock = SimClock()
        breaker = CircuitBreaker(
            clock,
            BreakerConfig(failure_threshold=3, reset_timeout=2.0, half_open_probes=2),
            destination="x",
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow() and breaker.allow()
        breaker.record_failure()  # probe A fails → OPEN again
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at == pytest.approx(4.0)
        breaker.record_success()  # probe B straggles in
        assert breaker.state is BreakerState.OPEN
        # The late success reset the consecutive-failure count but did not
        # close the circuit; the reset timeout still gates re-entry.
        assert not breaker.allow()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_reopened_circuit_clears_outstanding_probe_budget(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            clock,
            BreakerConfig(failure_threshold=1, reset_timeout=1.0, half_open_probes=1),
            destination="x",
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # half-open probe fails → OPEN
        clock.advance(1.0)
        # The fresh half-open window admits a probe again: the previous
        # window's outstanding count did not leak.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_transition_callback(self):
        transitions = []
        clock = SimClock()
        breaker = CircuitBreaker(
            clock,
            BreakerConfig(failure_threshold=1, reset_timeout=1.0),
            destination="d",
            on_transition=lambda b, old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert transitions == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]


class TestRetriesInCluster:
    def lossy_transient_scenario(self, resilience, clear_after=0.15):
        """Invoke from n1 against an entity homed on n2 while a kind
        filter drops every invocation on the n1->n2 link; the fault
        clears ``clear_after`` simulated seconds later — during the retry
        backoff, which advances time through the scheduler.

        Uses a non-replicated deployment: P4 would otherwise promote a
        temporary primary in the caller's partition and (correctly) hide
        the transient entirely.
        """
        injector = FaultInjector()
        injector.set_link_model(
            "n1", "n2", DropKinds(["invocation"]), bidirectional=False
        )
        obs = Observability()
        cluster = make_cluster(
            resilience=resilience, obs=obs, replication=False, injector=injector
        )
        ref = cluster.create_entity("n2", "Record", "r")
        if clear_after is not None:
            cluster.scheduler.schedule_after(
                clear_after, injector.clear, label="fault-clears"
            )
        result = cluster.invoke(
            "n1", ref, "set_counter", 42, negotiation_handler=AcceptAllHandler()
        )
        return cluster, obs, result, ref

    def test_retry_rides_out_transient_loss(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.0)
        )
        cluster, obs, result, ref = self.lossy_transient_scenario(resilience)
        # the write reached the home node once the fault cleared mid-backoff
        assert cluster.entity_on("n2", ref).get_counter() == 42
        retries = [e for e in obs.events() if e.type == "retry"]
        assert retries, "expected at least one client-side retry"
        counters = obs.snapshot()["metrics"]
        assert "resilience_retries_total" in counters

    def test_without_resilience_the_same_scenario_fails_fast(self):
        with pytest.raises(UnreachableError):
            self.lossy_transient_scenario(None)

    def test_retries_exhaust_when_nothing_heals(self):
        injector = FaultInjector()
        injector.set_link_model(
            "n1", "n2", DropKinds(["invocation"]), bidirectional=False
        )
        obs = Observability()
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0),
            breaker=None,
        )
        cluster = make_cluster(
            resilience=resilience, obs=obs, replication=False, injector=injector
        )
        ref = cluster.create_entity("n2", "Record", "r")
        with pytest.raises(UnreachableError):
            cluster.invoke("n1", ref, "get_counter")
        assert len([e for e in obs.events() if e.type == "retry"]) == 2
        assert "resilience_retries_exhausted_total" in obs.snapshot()["metrics"]


class TestDeadlines:
    def test_deadline_bounds_retrying(self):
        injector = FaultInjector()
        injector.set_link_model(
            "n1", "n2", DropKinds(["invocation"]), bidirectional=False
        )
        obs = Observability()
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=50, base_delay=0.5, jitter=0.0),
            breaker=None,
            default_deadline=1.0,
        )
        cluster = make_cluster(
            resilience=resilience, obs=obs, replication=False, injector=injector
        )
        ref = cluster.create_entity("n2", "Record", "r")
        started = cluster.clock.now
        with pytest.raises(DeadlineExceededError):
            cluster.invoke("n1", ref, "get_counter")
        # gave up within the deadline budget, far before 50 retries
        assert cluster.clock.now - started <= 1.0 + 0.5
        assert [e for e in obs.events() if e.type == "deadline_exceeded"]

    def test_deadline_error_carries_times(self):
        error = DeadlineExceededError("ref", 1.0, 2.5)
        assert error.deadline == 1.0
        assert error.now == 2.5
        assert "deadline" in str(error)


class TestCircuitBreakerInCluster:
    def lossy_cluster(self, resilience):
        # n2 is reachable but every invocation to it is dropped by a kind
        # filter: the scenario where a breaker (not routing) must step in.
        injector = FaultInjector()
        injector.set_link_model(
            "n1", "n2", DropKinds(["invocation"]), bidirectional=False
        )
        obs = Observability()
        cluster = make_cluster(
            resilience=resilience, obs=obs, replication=False, injector=injector
        )
        ref = cluster.create_entity("n2", "Record", "r")
        return cluster, obs, ref

    def test_breaker_opens_and_fast_fails(self):
        resilience = ResilienceConfig(
            retry=None,
            breaker=BreakerConfig(failure_threshold=3, reset_timeout=5.0),
        )
        cluster, obs, ref = self.lossy_cluster(resilience)
        for _ in range(3):
            with pytest.raises(UnreachableError):
                cluster.invoke("n1", ref, "get_counter")
        assert cluster.breaker_states()["n1"]["n2"] is BreakerState.OPEN
        sends_before = cluster.network.delivered_count
        with pytest.raises(CircuitOpenError) as excinfo:
            cluster.invoke("n1", ref, "get_counter")
        assert excinfo.value.destination == "n2"
        # fast fail: no network attempt was paid
        assert cluster.network.delivered_count == sends_before
        assert [e for e in obs.events() if e.type == "breaker_fast_fail"]

    def test_breaker_recovers_through_half_open(self):
        resilience = ResilienceConfig(
            retry=None,
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=1.0),
        )
        cluster, obs, ref = self.lossy_cluster(resilience)
        for _ in range(2):
            with pytest.raises(UnreachableError):
                cluster.invoke("n1", ref, "get_counter")
        assert cluster.breaker_states()["n1"]["n2"] is BreakerState.OPEN
        cluster.network.injector.clear()  # the fault condition passes
        cluster.scheduler.run_until(cluster.clock.now + 1.0)
        assert cluster.invoke("n1", ref, "get_counter") == 0
        assert cluster.breaker_states()["n1"]["n2"] is BreakerState.CLOSED
        transitions = [e for e in obs.events() if e.type == "breaker_transition"]
        states = [(e.data["previous"], e.data["current"]) for e in transitions]
        assert ("closed", "open") in states
        assert ("half_open", "closed") in states

    def test_local_invocations_bypass_the_breaker(self):
        resilience = ResilienceConfig(
            retry=None, breaker=BreakerConfig(failure_threshold=1)
        )
        cluster, obs, ref = self.lossy_cluster(resilience)
        with pytest.raises(UnreachableError):
            cluster.invoke("n1", ref, "get_counter")
        assert cluster.breaker_states()["n1"]["n2"] is BreakerState.OPEN
        # n2's own calls run locally and never consult a circuit
        assert cluster.invoke("n2", ref, "get_counter") == 0
        assert cluster.breaker_states().get("n2", {}) == {}


class TestRedirectRetries:
    def lossy_redirect(self, resilience):
        """A redirect from n2 to the primary n1 while a kind filter drops
        invocations on the n2->n1 link (the link itself stays up, so P4
        keeps routing writes to n1)."""
        injector = FaultInjector()
        injector.set_link_model(
            "n2", "n1", DropKinds(["invocation"]), bidirectional=False
        )
        obs = Observability()
        cluster = make_cluster(resilience=resilience, obs=obs, injector=injector)
        ref = cluster.create_entity("n1", "Record", "r")

        from repro.objects import Invocation

        invocation = Invocation(ref, "get_counter", (), "n2")
        invocation.redirected = True
        return cluster, obs, injector, invocation

    def test_send_redirect_retries_through_transient_loss(self):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0)
        )
        cluster, obs, injector, invocation = self.lossy_redirect(resilience)
        assert cluster.replication.retry_policy is not None
        cluster.scheduler.schedule_after(0.15, injector.clear, label="fault-clears")
        result = cluster.txmgr.run(
            lambda tx: cluster.replication.send_redirect("n2", invocation)
        )
        assert result == 0
        snapshot = obs.snapshot()["metrics"]
        assert "repl_redirect_retries_total" in snapshot

    def test_without_policy_redirect_fails_fast(self):
        cluster, obs, injector, invocation = self.lossy_redirect(None)
        assert cluster.replication.retry_policy is None
        with pytest.raises(UnreachableError):
            cluster.txmgr.run(
                lambda tx: cluster.replication.send_redirect("n2", invocation)
            )


class TestServerSideDeadline:
    def test_stale_deadline_rejected_at_the_server(self):
        cluster = make_cluster()
        ref = cluster.create_entity("n1", "Record", "r")

        from repro.objects import Invocation

        invocation = Invocation(ref, "get_counter", (), "n1")
        invocation.deadline = cluster.clock.now  # expires immediately
        cluster.clock.advance(0.1)
        with pytest.raises(DeadlineExceededError):
            cluster.txmgr.run(
                lambda tx: cluster.nodes["n1"].invocation_service.run_server_chain(
                    invocation
                )
            )
