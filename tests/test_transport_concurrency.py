"""Regression tests for the races the CONC analyzer surfaced (PR 10).

Each test here pins a concrete fix in the transport backends:

* member join churn vs. ``member_nodes``/``multicast`` — the
  handler table is copy-on-write, so readers never iterate a dict that
  is being mutated (pre-fix: ``RuntimeError: dictionary changed size``);
* concurrent ``close()`` — check-then-act on ``_closed`` now happens
  under ``_close_lock``, so exactly one caller runs the teardown;
* ``WorkerNode`` status vs. invoke — ``handle_status`` answers from an
  immutable snapshot published under ``_mutex``, so a status read can
  never observe a half-updated threat store or view, and the
  temp-primary flag flips only inside the mutex; a worker's liveness is
  its cluster's membership view, reported to only when a peer's
  outcome changes;
* the observability hub — node workers and client threads share one
  tracer, whose read-modify-writes (the sequence number, the emitted
  count, the per-type tally) happen under its lock (unlocked: lost
  counts and duplicate ``seq``); the first events of one new type from
  several threads make one tally entry with every count, and a reader
  snapshots the ring buffer while others emit (pre-fix: ``RuntimeError:
  deque mutated during iteration``).
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, DedisysCluster, Observability
from repro.objects import ObjectRef
from repro.transport import frames
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
        # Every churn step joins a fresh member, so the table changes size
        # while the readers iterate it.  The fresh members are crashed:
        # they sit in the table without ever being delivered to.
        fresh = tuple(f"m{i}" for i in range(1000))
        transport = AsyncioTransport(NODES + fresh)
        channel = transport.make_channel()
        start = threading.Barrier(3)
        churned = threading.Event()
        try:
            for node in fresh:
                transport.network.crash_node(node)
            channel.join("a", lambda message: "ack-a")
            channel.join("b", lambda message: "ack-b")

            def churn():
                start.wait()
                for node in fresh:
                    channel.join(node, lambda message: "ack")
                churned.set()

            def read():
                start.wait()
                while not churned.is_set():
                    assert "a" in transport.network.member_nodes()
                    # A table once read is never written again.
                    table = transport.network._handlers["member"]
                    size = len(table)
                    assert sum(1 for _ in table) == size == len(table)

            def cast():
                start.wait()
                while not churned.is_set():
                    replies = channel.multicast("a", "noop", {})
                    assert set(replies) == {"b"}

            run_threads_switching_fast([churn, read, cast])
            assert len(transport.network.member_nodes()) == 2 + len(fresh)
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

    def test_unchanged_liveness_rebuilds_nothing(self, monkeypatch):
        worker = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
        gms = worker.cluster.gms
        reports = []
        observe = gms.observe
        monkeypatch.setattr(gms, "observe", lambda reach: reports.append(reach) or observe(reach))
        monkeypatch.setattr(frames, "request", lambda *args, **kwargs: {"ok": True})
        view, epoch, published = gms.view_of("b"), gms.epoch, worker._published
        assert worker._peer_request("a", {"kind": "ping"}) == {"ok": True}  # already in the view
        assert reports == [] and gms.epoch == epoch
        assert gms.view_of("b") is view and worker._published is published

        monkeypatch.setattr(frames, "request", mock.Mock(side_effect=OSError("refused")))
        assert worker._peer_request("a", {"kind": "ping"}) is None
        assert reports == [{"b": frozenset("b")}] and gms.epoch == epoch + 1
        assert worker.handle_status({"kind": "status"})["peer_up"] == {"a": False}
        assert published["peer_up"] == {"a": True}, "old snapshots never mutate"

    @settings(max_examples=40, deadline=None)
    @given(
        outcomes=st.lists(st.tuples(st.sampled_from("acd"), st.booleans()), max_size=16),
        promoted=st.booleans(),
    )
    def test_the_view_holds_each_peer_last_seen_up(self, outcomes, promoted):
        peers = {peer: ("127.0.0.1", 1) for peer in "acd"}
        worker = WorkerNode("b", port=0, peers=peers, primary="a")
        if promoted:
            with worker._mutex:
                worker.staleness.flag = True
                worker._publish_status_locked()
        last = dict.fromkeys(peers, True)
        with mock.patch.object(frames, "request", return_value={"ok": True}) as request:
            for peer, up in outcomes:
                request.side_effect = None if up else OSError("refused")
                worker._peer_request(peer, {"kind": "ping"})
                last[peer] = up
        assert worker.cluster.gms.view_of("b").members == {"b"} | {
            peer for peer, up in last.items() if up
        }
        status = worker.handle_status({"kind": "status"})
        assert status["peer_up"] == last
        assert status["degraded"] == (promoted or not all(last.values()))

    def test_the_gate_stays_open_while_promoted_though_the_primary_answers(self, monkeypatch):
        worker = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
        attrs = {"flight_number": "K9", "seats": 80, "sold": 70}
        worker.handle_replica_create(
            {"cls": "Flight", "oid": "K9", "state": attrs, "version": 1, "origin": "a"}
        )
        monkeypatch.setattr(frames, "request", mock.Mock(side_effect=OSError("refused")))
        assert worker._forward_to_acting_primary({"kind": "invoke"}) is None
        assert worker.staleness.flag and worker.staleness.may_be_stale("b")

        monkeypatch.setattr(frames, "request", lambda *args, **kwargs: {"ok": True})
        worker._peer_request("a", {"kind": "ping"})
        assert "a" in worker.cluster.gms.view_of("b")
        assert worker.staleness.may_be_stale("b")
        status = worker.handle_status({"kind": "status"})
        assert status["peer_up"] == {"a": True} and status["degraded"]
        with worker._mutex:
            worker.cluster.invoke("b", ObjectRef("Flight", "K9"), "sell_tickets", 1)
        assert worker.cluster.threat_stores["b"].count_identities() == 1

        worker.handle_revalidate({"kind": "revalidate"})
        assert not worker.staleness.may_be_stale("b")
        assert not worker.handle_status({"kind": "status"})["degraded"]


class TestSharedObservabilityHub:
    THREADS = 8
    ROUNDS = 2000

    def test_no_event_and_no_sequence_number_is_lost(self):
        cluster = DedisysCluster(
            ClusterConfig(node_ids=NODES, transport="asyncio", obs=Observability())
        )
        obs = cluster.obs
        before = obs.event_counts()

        def hammer():
            for _ in range(self.ROUNDS):
                obs.emit("stress", node="a")
                obs.emit("stress_echo", node="a")

        try:
            run_threads_switching_fast([hammer] * self.THREADS)
        finally:
            cluster.close()
        expected = self.THREADS * self.ROUNDS
        emitted = sum(before.values()) + 2 * expected
        assert obs.tracer.emitted == emitted
        assert obs.event_counts() == {**before, "stress": expected, "stress_echo": expected}
        assert [event.seq for event in obs.events()] == list(range(emitted))

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
                while len(obs.events()) < 4096 and len(emitted) < self.THREADS:
                    pass
                for _ in range(50):
                    counted = sum(obs.event_counts().values())
                    assert counted <= obs.snapshot()["events"]["emitted"]
                    assert len(obs.events()) <= 4096
                    assert obs.snapshot()["events"]["dropped"] >= 0
                    assert "events:" in obs.summary()
            finally:
                reader_done.set()

        run_threads_switching_fast([emit] * self.THREADS + [read])
        events = obs.snapshot()["events"]
        assert events["emitted"] == sum(emitted) > 4096
        assert events["dropped"] == sum(emitted) - 4096
        assert obs.event_counts() == {"stress": sum(emitted)}

    def test_every_snapshot_agrees_with_itself_while_threads_emit(self):
        # The four numbers of a snapshot are read together: every event
        # emitted is either buffered or dropped, and tallied once by type.
        obs = Observability(ring_capacity=64)
        reader_done = threading.Event()
        torn = []

        def emit():
            types = ("stress", "stress_echo")
            count = 0
            while not reader_done.is_set():
                obs.emit(types[count % 2], node="a")
                count += 1

        def read():
            try:
                for _ in range(2000):
                    events = obs.snapshot()["events"]
                    total = sum(events["by_type"].values())
                    if not events["emitted"] == events["buffered"] + events["dropped"] == total:
                        torn.append(events)
            finally:
                reader_done.set()

        run_threads_switching_fast([emit] * self.THREADS + [read])
        assert torn == []

    def test_one_type_first_emitted_by_many_threads_is_one_tally(self):
        obs = Observability(ring_capacity=1)
        types = [f"race_{number}" for number in range(300)]
        barrier = threading.Barrier(self.THREADS)

        def emit():
            for event_type in types:
                barrier.wait(timeout=30)
                obs.emit(event_type)

        run_threads_switching_fast([emit] * self.THREADS)
        assert obs.event_counts() == dict.fromkeys(sorted(types), self.THREADS)
        assert obs.tracer.emitted == len(types) * self.THREADS
