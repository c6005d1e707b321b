"""Regression tests for the races the CONC analyzer surfaced (PR 10).

Each test here pins a concrete fix in the transport backends:

* member join/leave churn vs. ``member_nodes``/``multicast`` — the
  handler table is copy-on-write, so readers never iterate a dict that
  is being mutated (pre-fix: ``RuntimeError: dictionary changed size``);
* concurrent ``close()`` — check-then-act on ``_closed`` now happens
  under ``_close_lock``, so exactly one caller runs the teardown;
* ``WorkerNode`` status vs. invoke — ``handle_status`` answers from an
  immutable snapshot published under ``_mutex``, so a loop-thread status
  read can never observe a half-updated threat store or liveness dict,
  and the temp-primary flag flips only inside the mutex;
* the observability hub — node workers and client threads share one
  registry and one tracer, whose read-modify-writes (``Counter.inc``,
  ``Gauge.add``, ``Histogram.observe``, the tracer's sequence number) now
  happen under a lock (pre-fix: lost increments and duplicate ``seq``);
  registering one new name from several threads yields one instrument
  (pre-fix: two, one of which lost its counts), and a reader snapshots
  the ring buffer while others emit (pre-fix: ``RuntimeError: deque
  mutated during iteration``).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import ClusterConfig, DedisysCluster, Observability
from repro.transport.asyncio_backend import AsyncioTransport
from repro.transport.procnode import WorkerNode

NODES = ("a", "b", "c")


def run_threads(targets):
    failures: list[BaseException] = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == [], failures


def run_threads_switching_fast(targets):
    """``run_threads`` with the interpreter switching threads every
    microsecond, so that an unlocked read-modify-write is interrupted."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(targets)
    finally:
        sys.setswitchinterval(interval)


class TestHandlerTableChurn:
    def test_member_churn_vs_reads(self):
        transport = AsyncioTransport(NODES)
        channel = transport.make_channel()
        try:
            channel.join("a", lambda message: "ack-a")

            def churn():
                for _ in range(300):
                    channel.join("b", lambda message: "ack-b")
                    channel.leave("b")

            def read():
                for _ in range(300):
                    members = transport.network.member_nodes()
                    assert "a" in members

            def cast():
                for _ in range(100):
                    replies = channel.multicast("a", "noop", {})
                    assert set(replies) <= {"b", "c"}

            run_threads([churn, read, cast])
        finally:
            transport.close()

    def test_handler_table_swap_is_visible(self):
        transport = AsyncioTransport(NODES)
        try:
            seen: list[str] = []
            transport.network.register_handler(
                "b", lambda message: seen.append(message.kind)
            )
            transport.network.send("a", "b", "hello", {})
            assert seen == ["hello"]
        finally:
            transport.close()


class TestConcurrentClose:
    def test_double_close_races_cleanly(self):
        transport = AsyncioTransport(NODES)
        run_threads([transport.close] * 4)
        # And an idempotent follow-up close on the same thread.
        transport.close()
        with pytest.raises(RuntimeError):
            transport.network.send("a", "b", "late", {})


class TestWorkerNodeStatus:
    def make_worker(self) -> WorkerNode:
        # No peers: the worker is its own primary and never dials out.
        return WorkerNode("a", port=0, peers={})

    def test_status_served_from_snapshot_before_any_op(self):
        worker = self.make_worker()
        status = worker.handle_status({"kind": "status"})
        assert status["ok"] is True
        assert status["degraded"] is False
        assert status["threats"] == 0
        assert status["peer_up"] == {}

    def test_status_vs_invoke_threads(self):
        worker = self.make_worker()
        create = worker.handle_create(
            {
                "kind": "create",
                "cls": "Flight",
                "oid": "F1",
                "attrs": {"flight_number": "F1", "seats": 5000, "sold": 0},
            }
        )
        assert create["ok"] is True

        def invoke():
            for _ in range(60):
                reply = worker.handle_invoke(
                    {
                        "kind": "invoke",
                        "cls": "Flight",
                        "oid": "F1",
                        "method": "sell_tickets",
                        "args": [1],
                    }
                )
                assert reply["ok"] is True

        def status():
            for _ in range(200):
                reply = worker.handle_status({"kind": "status"})
                assert reply["ok"] is True
                assert isinstance(reply["degraded"], bool)
                assert isinstance(reply["threats"], int)

        run_threads([invoke, status])

    def test_promotion_and_demotion_update_snapshot(self):
        # An unreachable peer port: promotion happens after the forward
        # fails, and must be visible in the published status.
        worker = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
        assert worker._forward_to_acting_primary({"kind": "invoke"}) is None
        assert worker.staleness.flag is True
        status = worker.handle_status({"kind": "status"})
        assert status["temp_primary"] is True
        assert status["degraded"] is True
        assert status["peer_up"] == {"a": False}

        reply = worker.handle_revalidate({"kind": "revalidate"})
        assert reply["ok"] is True
        assert worker.staleness.flag is False
        status = worker.handle_status({"kind": "status"})
        assert status["temp_primary"] is False

    def test_unchanged_liveness_rebuilds_nothing(self):
        worker = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
        peer_up, published = worker.peer_up, worker._published
        worker._set_peer_up("a", True)  # already believed up
        assert worker.peer_up is peer_up and worker._published is published

        worker._set_peer_up("a", False)
        assert worker.peer_up == {"a": False} and worker.peer_up is not peer_up
        assert worker.handle_status({"kind": "status"})["peer_up"] == {"a": False}
        assert peer_up == {"a": True}, "copy-on-write: old snapshots never mutate"


class TestSharedObservabilityHub:
    THREADS = 8
    ROUNDS = 2000

    def test_no_update_and_no_sequence_number_is_lost(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, transport="asyncio", obs=Observability())
        )
        obs = cluster.obs
        counter = obs.registry.counter("stress_total")
        gauge = obs.registry.gauge("stress_level")
        histogram = obs.registry.histogram("stress_seconds")
        before = obs.tracer.emitted

        def hammer():
            for _ in range(self.ROUNDS):
                counter.inc(node="a")
                gauge.add(1.0)
                histogram.observe(0.001)
                obs.emit("stress", node="a")

        try:
            run_threads_switching_fast([hammer] * self.THREADS)
        finally:
            cluster.close()
        expected = self.THREADS * self.ROUNDS
        assert counter.value(node="a") == expected
        assert gauge.value() == expected
        assert histogram.count() == expected
        assert obs.tracer.emitted == before + expected
        assert [event.seq for event in obs.events()] == list(range(before + expected))

    def test_a_reader_snapshots_the_ring_while_threads_emit(self):
        obs = Observability(ring_capacity=4096)
        reader_done = threading.Event()
        emitted = []

        def emit():
            count = 0
            while not reader_done.is_set() and count < 100 * self.ROUNDS:
                obs.emit("stress", node="a")
                count += 1
            emitted.append(count)

        def read():
            try:
                while len(obs.ring) < 4096 and len(emitted) < self.THREADS:
                    pass
                for _ in range(50):
                    assert sum(obs.event_counts().values()) <= 4096
                    assert len(list(obs.ring)) <= 4096
                    assert obs.snapshot()["events"]["dropped"] >= 0
                    assert "events:" in obs.summary()
            finally:
                reader_done.set()

        run_threads_switching_fast([emit] * self.THREADS + [read])
        assert obs.tracer.emitted == sum(emitted) > 4096
        assert obs.ring.dropped == sum(emitted) - 4096

    def test_one_name_registered_by_many_threads_is_one_instrument(self):
        registry = Observability().registry
        names = [f"race_{number}_total" for number in range(300)]
        barrier = threading.Barrier(self.THREADS)

        def register():
            for name in names:
                barrier.wait(timeout=30)
                registry.counter(name).inc()

        run_threads_switching_fast([register] * self.THREADS)
        assert {name: registry.get(name).value() for name in names} == dict.fromkeys(
            names, self.THREADS
        )
