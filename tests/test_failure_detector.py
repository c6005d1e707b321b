"""Tests for the heartbeat failure detector."""

import pytest

from repro.membership import HeartbeatFailureDetector
from repro.membership.failure_detector import EVENT_TAIL
from repro.net import SimNetwork
from repro.transport.asyncio_backend import AsyncioTransport

NODES = ("a", "b", "c")


def make_detector(period=0.5, timeout=1.6):
    network = SimNetwork(NODES)
    detector = HeartbeatFailureDetector(network, period=period, timeout=timeout)
    return network, detector


class TestHealthyOperation:
    def test_no_suspicions_without_failures(self):
        network, detector = make_detector()
        detector.run_for(10.0)
        for observer in NODES:
            assert detector.suspects(observer) == frozenset()

    def test_invalid_parameters(self):
        network = SimNetwork(NODES)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(network, period=0)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(network, period=1.0, timeout=0.5)


class TestDetection:
    def test_crash_detected_after_timeout(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        network.crash_node("c")
        detector.run_for(0.5)
        assert not detector.is_suspected("a", "c")  # not yet overdue
        detector.run_for(2.0)
        assert detector.is_suspected("a", "c")
        assert detector.is_suspected("b", "c")

    def test_partition_makes_suspicion_mutual(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        network.partition({"a"}, {"b", "c"})
        detector.run_for(3.0)
        assert detector.suspects("a") == frozenset({"b", "c"})
        assert detector.suspects("b") == frozenset({"a"})
        assert not detector.is_suspected("b", "c")

    def test_detection_latency_bounded(self):
        # suspicion can take at most timeout + one period
        network, detector = make_detector(period=0.5, timeout=1.6)
        detector.run_for(2.0)
        network.crash_node("b")
        detector.run_for(4.0)
        latency = detector.detection_latency("a", "b")
        assert latency is not None
        assert detector.timeout < latency <= detector.timeout + detector.period + 1e-9

    def test_suspicion_cleared_on_recovery(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        network.crash_node("b")
        detector.run_for(3.0)
        assert detector.is_suspected("a", "b")
        network.recover_node("b")
        detector.run_for(3.0)
        assert not detector.is_suspected("a", "b")

    def test_listener_events(self):
        network, detector = make_detector()
        events = []
        detector.add_listener(lambda observer, subject, suspected: events.append(
            (observer, subject, suspected)
        ))
        detector.run_for(2.0)
        network.crash_node("c")
        detector.run_for(3.0)
        network.recover_node("c")
        detector.run_for(3.0)
        assert ("a", "c", True) in events
        assert ("a", "c", False) in events

    def test_crashed_observer_observes_nothing(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        network.crash_node("a")
        detector.run_for(3.0)
        # a's suspicion state is frozen while crashed
        assert detector.suspects("a") == frozenset()

    def test_never_suspected_latency_none(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        assert detector.detection_latency("a", "b") is None

    def test_detection_latency_stable_after_heal(self):
        # Regression: the latency must come from the last-seen time
        # snapshotted in the suspicion event.  Reading the *live*
        # bookkeeping after the subject heals (and heartbeats refresh it)
        # produced wrong — even negative — latencies.
        network, detector = make_detector(period=0.5, timeout=1.6)
        detector.run_for(2.0)
        network.crash_node("b")
        detector.run_for(4.0)
        before_heal = detector.detection_latency("a", "b")
        assert before_heal is not None
        network.recover_node("b")
        detector.run_for(5.0)  # fresh heartbeats refresh _last_seen["a"]["b"]
        after_heal = detector.detection_latency("a", "b")
        assert after_heal == before_heal
        assert after_heal > 0

    def test_detection_latency_outlives_the_event_tail(self):
        # The retained events are a short tail; the latency of a
        # suspicion older than the tail is still answered.
        network, detector = make_detector(period=0.5, timeout=1.6)
        detector.run_for(2.0)
        network.crash_node("b")
        detector.run_for(4.0)
        latency = detector.detection_latency("a", "b")
        for _ in range(10):  # four more events per cycle, b still down
            network.fail_link("a", "c")
            detector.run_for(3.0)
            network.heal_link("a", "c")
            detector.run_for(3.0)
        assert detector.recorded == 2 + 10 * 4
        assert len(detector.events) == EVENT_TAIL
        assert all(event.subject != "b" for event in detector.events)
        assert detector.detection_latency("a", "b") == latency

    def test_suspicion_events_snapshot_last_seen(self):
        network, detector = make_detector(period=0.5, timeout=1.6)
        detector.run_for(2.0)
        network.crash_node("c")
        detector.run_for(4.0)
        raised = [e for e in detector.events if e.suspected and e.subject == "c"]
        assert raised
        for event in raised:
            assert event.last_seen <= event.timestamp
            assert event.timestamp - event.last_seen > detector.timeout

    def test_stop_halts_rounds(self):
        network, detector = make_detector()
        detector.run_for(2.0)
        detector.stop()
        network.crash_node("b")
        # advancing the clock without rounds changes nothing
        detector.scheduler.run_until(detector.scheduler.clock.now + 10.0)
        assert not detector.is_suspected("a", "b")


class TestOnTheThreadedBackend:
    """The detector's rounds are scheduler events, and the threaded
    backend's scheduler is the simulator's: timeouts count simulated
    seconds there too, and a run takes no wall-clock wait."""

    @staticmethod
    def crash_run(network):
        detector = HeartbeatFailureDetector(network, period=0.5, timeout=1.6)
        detector.run_for(2.0)
        network.crash_node("b")
        detector.run_for(0.5)
        early = detector.is_suspected("a", "b")
        detector.run_for(3600.0)
        return early, detector.detection_latency("a", "b"), network.scheduler.clock.now

    def test_crash_detected_with_the_simulators_latency(self):
        with AsyncioTransport(NODES) as transport:
            threaded = self.crash_run(transport.network)
        early, latency, now = threaded
        assert not early and latency is not None
        assert now == 2.0 + 0.5 + 3600.0
        assert threaded == self.crash_run(SimNetwork(NODES))

    def test_suspicion_cleared_on_recovery(self):
        with AsyncioTransport(NODES) as transport:
            network = transport.network
            detector = HeartbeatFailureDetector(network, period=0.5, timeout=1.6)
            detector.run_for(2.0)
            network.partition({"a"}, {"b", "c"})
            detector.run_for(3.0)
            assert detector.suspects("b") == frozenset({"a"})
            network.heal_all()
            detector.run_for(3.0)
            for observer in NODES:
                assert detector.suspects(observer) == frozenset()
