"""The delivery contract of the in-process threaded ("asyncio") backend.

A message goes onto the destination node's mailbox, one of that node's
worker threads runs the handler, and the sender wakes on the request's
own reply lock; there is no relay in between.  These tests pin what that
path promises:

* one sender's messages reach a node's handler in send order;
* a handler exception reaches the sender with its type and message;
* a node that crashes after a message was queued but before it was
  dispatched never runs the handler — the sender sees ``UnreachableError``;
* nested A→B→A→B sends complete (re-entrant depth < ``_NODE_WORKERS``);
* a handler outliving ``request_timeout`` costs the sender exactly one
  ``timeout`` drop event and an ``UnreachableError``;
* a reply that arrives after its sender timed out reaches nobody: the
  next send to that node returns its own result;
* ``close()`` never strands a sender: a racing send returns its result or
  raises ``RuntimeError("network is closed")``, promptly — also when
  ``close()`` starts while its put is still in flight;
* only ``repro-node-*`` threads exist, and they exit after ``close()``.
"""

from __future__ import annotations

import queue
import threading
import time

import pytest

from repro.net import UnreachableError
from repro.obs import Observability
from repro.transport.asyncio_backend import _NODE_WORKERS, AsyncioTransport

NODES = ("a", "b", "c")


@pytest.fixture
def transport():
    transport = AsyncioTransport(NODES)
    yield transport
    transport.close()


def in_threads(targets, timeout=5.0):
    """Run each target on its own thread; return ``(outcomes, elapsed)``.

    An outcome is the target's return value or the exception it raised.
    """
    outcomes: list = [None] * len(targets)

    def runner(index, fn):
        try:
            outcomes[index] = fn()
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcomes[index] = exc

    threads = [
        threading.Thread(target=runner, args=(index, fn))
        for index, fn in enumerate(targets)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads), "a sender is stranded"
    return outcomes, time.monotonic() - started


def occupy_workers(network, node, gate):
    """Park ``_NODE_WORKERS`` senders inside ``node``'s handler.

    Returns the sender threads and their result list; every worker of
    ``node`` is blocked on ``gate`` when this returns, so the next message
    for ``node`` stays queued until the gate opens.
    """
    entered = threading.Semaphore(0)
    ran: list[str] = []

    def handler(message):
        ran.append(message.payload)
        entered.release()
        assert gate.wait(timeout=5.0)
        return message.payload

    network.register_handler(node, handler)
    results: list = [None] * _NODE_WORKERS

    def send(index):
        results[index] = network.send("a", node, "work", f"parked-{index}")

    threads = [
        threading.Thread(target=send, args=(index,)) for index in range(_NODE_WORKERS)
    ]
    for thread in threads:
        thread.start()
    for _ in range(_NODE_WORKERS):
        assert entered.acquire(timeout=5.0)
    return threads, results, ran


def send_behind_parked(network, node, payload):
    """Send to ``node`` from a new thread; return once the message sits
    undispatched in the node's mailbox.

    Returns the sender thread and the one-slot list its outcome (result or
    raised exception) lands in.
    """
    outcome: list = []

    def send():
        try:
            outcome.append(network.send("a", node, "work", payload))
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcome.append(exc)

    sender = threading.Thread(target=send)
    sender.start()
    deadline = time.monotonic() + 5.0
    while network._mailboxes[node].empty():
        assert time.monotonic() < deadline, "the message never reached the mailbox"
        time.sleep(0.001)
    return sender, outcome


def test_one_senders_messages_arrive_in_send_order(transport):
    seen: list[int] = []
    handler_threads: set[str] = set()

    def handler(message):
        seen.append(message.payload)
        handler_threads.add(threading.current_thread().name)
        return message.payload * 2

    transport.network.register_handler("b", handler)
    replies = [transport.network.send("a", "b", "count", n) for n in range(200)]
    assert seen == list(range(200))
    assert replies == [n * 2 for n in range(200)]
    # Never inline on the sender: the handler ran on b's own threads.
    assert handler_threads
    assert all(name.startswith("repro-node-b") for name in handler_threads)


def test_handler_exception_reaches_the_sender(transport):
    class Refused(Exception):
        pass

    def handler(message):
        raise Refused(f"no {message.payload} today")

    transport.network.register_handler("b", handler)
    with pytest.raises(Refused, match="no seats today"):
        transport.network.send("a", "b", "book", "seats")
    # The worker survives the exception and serves the next message.
    transport.network.register_handler("b", lambda message: "ok")
    assert transport.network.send("a", "b", "book", "seats") == "ok"


def test_node_without_handler_answers_none(transport):
    assert transport.network.send("a", "c", "anything", 1) is None


def test_crash_between_submit_and_dispatch_is_unreachable(transport):
    network = transport.network
    gate = threading.Event()
    parked, parked_results, ran = occupy_workers(network, "b", gate)
    sender, late = send_behind_parked(network, "b", "late")
    network.crash_node("b")
    gate.set()
    sender.join(timeout=5.0)
    for thread in parked:
        thread.join(timeout=5.0)
    assert len(late) == 1 and isinstance(late[0], UnreachableError)
    assert "late" not in ran
    assert sorted(parked_results) == [f"parked-{i}" for i in range(_NODE_WORKERS)]


def test_nested_sends_reenter_on_another_worker(transport):
    network = transport.network
    path: list[tuple[str, int]] = []

    def handler_for(node, peer):
        def handler(message):
            depth = message.payload
            path.append((node, depth))
            if depth == 0:
                return [node]
            return [node, *network.send(node, peer, "nest", depth - 1)]

        return handler

    network.register_handler("a", handler_for("a", "b"))
    network.register_handler("b", handler_for("b", "a"))
    # client → B → A → B: three frames deep, two of them inside B.
    assert 3 < _NODE_WORKERS
    assert network.send("a", "b", "nest", 2) == ["b", "a", "b"]
    assert path == [("b", 2), ("a", 1), ("b", 0)]


def test_handler_outliving_the_timeout_is_one_timeout_drop():
    obs = Observability()
    transport = AsyncioTransport(NODES, obs=obs, request_timeout=0.05)
    release = threading.Event()
    try:
        transport.network.register_handler(
            "b", lambda message: release.wait(timeout=5.0)
        )
        with pytest.raises(UnreachableError):
            transport.network.send("a", "b", "slow", None)
        drops = obs.events("message_drop")
        assert [event.data["reason"] for event in drops] == ["timeout"]
        assert len(obs.events("message_send")) == 1
    finally:
        release.set()
        transport.close()


def test_a_late_reply_reaches_nobody():
    transport = AsyncioTransport(NODES, request_timeout=0.05)
    network = transport.network
    release = threading.Event()
    returning = threading.Event()

    def handler(message):
        if message.payload == "slow":
            assert release.wait(timeout=5.0)
            returning.set()
            return "late"
        return message.payload

    try:
        network.register_handler("b", handler)
        with pytest.raises(UnreachableError):
            network.send("a", "b", "work", "slow")
        network.request_timeout = 5.0  # the sends below must not time out
        release.set()
        assert returning.wait(timeout=5.0)
        time.sleep(0.05)  # let the worker hand the late reply back
        # Same sending thread: a reply slot shared between its requests
        # would now hold "late".
        assert network.send("a", "b", "work", "first") == "first"
        assert network.send("a", "b", "work", "second") == "second"
    finally:
        release.set()
        transport.close()


def test_close_cancels_queued_messages_and_lets_running_ones_answer():
    transport = AsyncioTransport(NODES)
    network = transport.network
    gate = threading.Event()
    try:
        parked, parked_results, ran = occupy_workers(network, "b", gate)
        sender, late = send_behind_parked(network, "b", "late")
        closed_at = time.monotonic()
        transport.close()
        sender.join(timeout=5.0)
        stranded_for = time.monotonic() - closed_at
        # The gate is still shut: close() itself released the queued
        # frame's sender, while the handlers ahead of it are still running.
        assert isinstance(late[0], RuntimeError) and str(late[0]) == "network is closed"
        assert stranded_for < 1.0
        assert "late" not in ran
    finally:
        gate.set()
        transport.close()
    for thread in parked:
        thread.join(timeout=5.0)
    # In-flight handlers finished and answered their senders.
    assert sorted(parked_results) == [f"parked-{i}" for i in range(_NODE_WORKERS)]
    with pytest.raises(RuntimeError, match="network is closed"):
        network.send("a", "b", "work", "after")


def test_senders_racing_close_finish_promptly():
    obs = Observability()
    transport = AsyncioTransport(NODES, obs=obs)
    network = transport.network

    def handler(message):
        time.sleep(0.002)
        return message.payload

    network.register_handler("b", handler)
    sending = threading.Barrier(5)

    def sender(tag):
        def run():
            sending.wait(timeout=5.0)
            answered = 0
            try:
                while True:
                    assert network.send("a", "b", "work", tag) == tag
                    answered += 1
            except RuntimeError as exc:
                assert str(exc) == "network is closed"
            return answered

        return run

    def closer():
        sending.wait(timeout=5.0)
        time.sleep(0.05)
        transport.close()
        transport.close()  # idempotent
        return "closed"

    outcomes, elapsed = in_threads([*(sender(tag) for tag in "wxyz"), closer])
    assert elapsed < 1.0
    assert outcomes[-1] == "closed"
    assert all(isinstance(count, int) for count in outcomes[:-1]), outcomes
    assert sum(outcomes[:-1]) > 0
    # Nobody sat out request_timeout: no spurious timeout drop.
    assert obs.events("message_drop") == []


class PutAfterDrain:
    """A node's mailbox whose put of one payload waits for ``close()`` to
    drain the mailbox before landing — the interleaving a send that
    passed the closed check while ``close()`` ran would produce."""

    def __init__(self, inner, payload):
        self.inner = inner
        self.payload = payload
        self.putting = threading.Event()
        self.drained = threading.Event()

    def put(self, request):
        if request is not None and request[0].payload == self.payload:
            self.putting.set()
            # A close() that cannot start before this put returns has no
            # drain to wait for.
            self.drained.wait(timeout=0.3)
        self.inner.put(request)

    def get_nowait(self):
        try:
            return self.inner.get_nowait()
        except queue.Empty:
            self.drained.set()
            raise

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_a_send_racing_close_past_the_drain_is_refused_promptly():
    transport = AsyncioTransport(NODES, request_timeout=5.0)
    network = transport.network
    gate = threading.Event()
    try:
        # Busy workers keep the racing message queued until close() runs.
        parked, _, ran = occupy_workers(network, "b", gate)
        mailbox = PutAfterDrain(network._mailboxes["b"], "late")
        network._mailboxes["b"] = mailbox
        outcome: list = []

        def send():
            try:
                outcome.append(network.send("a", "b", "work", "late"))
            except BaseException as exc:  # noqa: BLE001 - the outcome under test
                outcome.append(exc)

        sender = threading.Thread(target=send)
        sender.start()
        assert mailbox.putting.wait(timeout=5.0)
        closing_at = time.monotonic()
        transport.close()
        sender.join(timeout=5.0)
        assert time.monotonic() - closing_at < 2.0, "the sender sat out request_timeout"
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError) and str(outcome[0]) == "network is closed"
        assert "late" not in ran
    finally:
        gate.set()
        transport.close()
    for thread in parked:
        thread.join(timeout=5.0)


def test_thread_census():
    nodes = ("census-a", "census-b", "census-c")

    def census():
        return [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-node-census-")
        ]

    transport = AsyncioTransport(nodes)
    network = transport.network
    try:

        def handler_for(node):
            def handler(message):
                hops, peers = message.payload
                if hops:
                    for peer in peers:
                        if peer != node:
                            network.send(node, peer, "fan", (hops - 1, peers))
                return node

            return handler

        for node in nodes:
            network.register_handler(node, handler_for(node))
        # Warm-up: concurrent clients, each fanning out from b to a and c
        # (one hop, so no node is re-entered and no pool can fill up with
        # frames waiting on each other).
        in_threads(
            [lambda: network.send("census-a", "census-b", "fan", (1, nodes))] * 4
        )
        names = [thread.name for thread in threading.enumerate()]
        # No relay loop and no timer thread: only the nodes' own workers.
        assert not {"repro-transport-loop", "repro-transport-timer"} & set(names)
        assert 0 < len(census()) <= len(nodes) * _NODE_WORKERS
    finally:
        transport.close()
    deadline = time.monotonic() + 2.0
    while census() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert census() == []



def test_the_group_channel_keeps_members_only_in_the_networks_table(transport):
    channel = transport.make_channel()
    channel.join("a", lambda message: "ack-a")
    channel.join("b", lambda message: "ack-b")
    assert channel.members == ("a", "b") == transport.network.member_nodes()
    assert not {"_handlers", "_members"} & set(vars(channel))
    assert channel.multicast("c", "noop", {}) == {"a": "ack-a", "b": "ack-b"}
