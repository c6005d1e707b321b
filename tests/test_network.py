"""Tests for the simulated network: links, partitions, crashes, multicast."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.net import GroupChannel, NodeCrashedError, SimNetwork, UnreachableError
from repro.net.topology import Topology

NODES = ("a", "b", "c", "d")


@pytest.fixture
def network():
    return SimNetwork(NODES)


class TestTopology:
    def test_initially_fully_connected(self, network):
        assert network.is_healthy()
        assert network.partitions() == [frozenset(NODES)]

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork(("a", "a"))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork(())

    def test_fail_link_splits_nothing_with_routing(self, network):
        # a-b fails but a can still reach b via c (routing through peers).
        network.fail_link("a", "b")
        assert network.reachable("a", "b")
        assert network.is_healthy()

    def test_partition_two_groups(self, network):
        network.partition({"a"}, {"b", "c", "d"})
        assert not network.reachable("a", "b")
        assert network.reachable("b", "d")
        parts = network.partitions()
        assert frozenset({"a"}) in parts
        assert frozenset({"b", "c", "d"}) in parts

    def test_partition_largest_first(self, network):
        network.partition({"a"}, {"b", "c", "d"})
        assert network.partitions()[0] == frozenset({"b", "c", "d"})

    def test_partition_implicit_remainder(self, network):
        network.partition({"a", "b"})
        assert network.partition_of("c") == frozenset({"c", "d"})

    def test_partition_rejects_double_assignment(self, network):
        with pytest.raises(ValueError):
            network.partition({"a"}, {"a", "b"})

    def test_heal_all_restores(self, network):
        network.partition({"a"}, {"b", "c", "d"})
        network.heal_all()
        assert network.is_healthy()

    def test_heal_link(self, network):
        network.partition({"a"}, {"b", "c", "d"})
        network.heal_link("a", "b")
        assert network.reachable("a", "d")  # via b

    def test_self_link_rejected(self, network):
        with pytest.raises(ValueError):
            network.fail_link("a", "a")

    def test_unknown_node_rejected(self, network):
        with pytest.raises(KeyError):
            network.reachable("a", "nope")

    def test_reachable_self(self, network):
        assert network.reachable("a", "a")


class TestCrashes:
    def test_crashed_node_unreachable(self, network):
        network.crash_node("b")
        assert not network.reachable("a", "b")
        assert network.is_crashed("b")

    def test_crash_looks_like_singleton_partition(self, network):
        # §1.1: node failures are initially indistinguishable from
        # partitions with a single node.
        network.crash_node("b")
        assert network.partition_of("b") == frozenset()
        assert network.partitions() == [frozenset({"a", "c", "d"})]

    def test_crashed_node_cannot_send(self, network):
        network.crash_node("a")
        with pytest.raises(NodeCrashedError):
            network.send("a", "b", "ping")

    def test_recover_node(self, network):
        network.crash_node("b")
        network.recover_node("b")
        assert network.reachable("a", "b")

    def test_crash_does_not_route_through(self, network):
        # only path a-b via direct links; crash every intermediate
        network.partition({"a", "b"}, {"c", "d"})
        network.crash_node("b")
        assert network.partition_of("a") == frozenset({"a"})


class TestMessaging:
    def test_send_delivers_to_handler(self, network):
        received = []
        network.register_handler("b", lambda msg: received.append(msg.payload))
        network.send("a", "b", "data", {"x": 1})
        assert received == [{"x": 1}]

    def test_send_returns_handler_result(self, network):
        network.register_handler("b", lambda msg: "pong")
        assert network.send("a", "b", "ping") == "pong"

    def test_send_unreachable_raises(self, network):
        network.partition({"a"}, {"b", "c", "d"})
        with pytest.raises(UnreachableError):
            network.send("a", "b", "ping")

    def test_send_charges_latency(self, network):
        before = network.scheduler.clock.now
        network.send("a", "b", "ping")
        assert network.scheduler.clock.now == before + network.costs.network_latency

    def test_local_send_is_free(self, network):
        before = network.scheduler.clock.now
        network.send("a", "a", "ping")
        assert network.scheduler.clock.now == before

    def test_lossy_link_drops(self):
        network = SimNetwork(("a", "b"), loss_probability=0.999999, seed=1)
        with pytest.raises(UnreachableError):
            network.send("a", "b", "ping")

    def test_invalid_loss_probability(self):
        with pytest.raises(ValueError):
            SimNetwork(("a",), loss_probability=1.0)

    def test_delivered_messages_recorded(self, network):
        network.send("a", "b", "ping", 1)
        assert network.delivered_count == 1
        recorded = network.record_deliveries()
        assert recorded == []  # nothing was retained before anyone asked
        network.send("b", "c", "pong", 2)
        network.send("c", "a", "ping", 3)
        assert [(m.source, m.kind, m.payload) for m in recorded] == [
            ("b", "pong", 2),
            ("c", "ping", 3),
        ]
        assert network.delivered_count == 3

    def test_topology_listener_fired(self, network):
        events = []
        network.on_topology_change(lambda: events.append(1))
        network.fail_link("a", "b")
        network.heal_all()
        assert len(events) == 2


class TestGroupChannel:
    def test_multicast_reaches_all_members(self, network):
        channel = GroupChannel(network)
        received = {}
        for node in NODES:
            channel.join(node, lambda msg, n=node: received.setdefault(n, msg.payload))
        replies = channel.multicast("a", "update", {"v": 1})
        assert set(replies) == {"b", "c", "d"}
        assert received == {"b": {"v": 1}, "c": {"v": 1}, "d": {"v": 1}}

    def test_multicast_respects_partitions(self, network):
        channel = GroupChannel(network)
        for node in NODES:
            channel.join(node, lambda msg: "ack")
        network.partition({"a", "b"}, {"c", "d"})
        replies = channel.multicast("a", "update")
        assert set(replies) == {"b"}

    def test_multicast_from_crashed_raises(self, network):
        channel = GroupChannel(network)
        for node in NODES:
            channel.join(node, lambda msg: "ack")
        network.crash_node("a")
        with pytest.raises(NodeCrashedError):
            channel.multicast("a", "update")

    def test_multicast_charges_per_recipient(self, network):
        channel = GroupChannel(network)
        for node in NODES:
            channel.join(node, lambda msg: "ack")
        before = network.scheduler.clock.now
        channel.multicast("a", "update")
        expected = 2 * (network.costs.multicast_base + 3 * network.costs.multicast_per_node)
        assert network.scheduler.clock.now == pytest.approx(before + expected)

    def test_multicast_no_recipients_is_free(self, network):
        channel = GroupChannel(network)
        channel.join("a", lambda msg: "ack")
        before = network.scheduler.clock.now
        assert channel.multicast("a", "update") == {}
        assert network.scheduler.clock.now == before

    def test_leave_removes_member(self, network):
        channel = GroupChannel(network)
        channel.join("a", lambda msg: "ack")
        channel.join("b", lambda msg: "ack")
        channel.leave("b")
        assert channel.members == ("a",)
        # The tuple is rebuilt by join / leave only, not per read.
        assert channel.members is channel.members
        channel.leave("zzz")
        channel.join("a", lambda msg: "again")
        assert channel.members == ("a",)

    def test_join_unknown_node_rejected(self, network):
        channel = GroupChannel(network)
        with pytest.raises(KeyError):
            channel.join("zzz", lambda msg: None)

    def test_handler_leaving_later_recipient_skips_it(self, network):
        # Regression: a delivery handler making a *later* recipient leave
        # the group mid-round must not blow up the delivery loop; the
        # departed member is skipped and absent from the replies.
        channel = GroupChannel(network)
        delivered = []
        channel.join("a", lambda msg: "ack")

        def evict_d(msg):
            delivered.append("b")
            channel.leave("d")
            return "ack"

        channel.join("b", evict_d)
        channel.join("c", lambda msg: delivered.append("c") or "ack")
        channel.join("d", lambda msg: delivered.append("d") or "ack")
        replies = channel.multicast("a", "update")
        assert delivered == ["b", "c"]
        assert set(replies) == {"b", "c"}
        assert channel.members == ("a", "b", "c")

    def test_handler_leaving_itself_still_replies(self, network):
        channel = GroupChannel(network)
        channel.join("a", lambda msg: "ack")

        def leave_self(msg):
            channel.leave("b")
            return "bye"

        channel.join("b", leave_self)
        channel.join("c", lambda msg: "ack")
        replies = channel.multicast("a", "update")
        assert replies == {"b": "bye", "c": "ack"}

    def test_crash_mid_round_keeps_full_charge(self, network):
        # The round's cost is reserved up front (the Spread analogue hands
        # the whole synchronous round to the toolkit), so a handler raising
        # NodeCrashedError partway does not refund undelivered recipients.
        channel = GroupChannel(network)
        channel.join("a", lambda msg: "ack")
        channel.join("b", lambda msg: "ack")

        def crashed(msg):
            raise NodeCrashedError("c")

        channel.join("c", crashed)
        channel.join("d", lambda msg: "ack")
        before = network.scheduler.clock.now
        with pytest.raises(NodeCrashedError):
            channel.multicast("a", "update")
        expected = 2 * (network.costs.multicast_base + 3 * network.costs.multicast_per_node)
        assert network.scheduler.clock.now == pytest.approx(before + expected)


def uncached(network):
    """Every node's partition from a fresh search, bypassing the cache."""
    return {
        node: frozenset() if network.is_crashed(node) else network._search(node)
        for node in network.nodes
    }


def cached(network):
    return {node: network.partition_of(node) for node in network.nodes}


# Set-up before the cache is warmed, then the mutator under test.
MUTATORS = [
    pytest.param(
        lambda n: (n.fail_link("a", "b"), n.fail_link("a", "c")),
        lambda n: n.fail_link("a", "d"),
        id="fail_link",
    ),
    pytest.param(
        lambda n: n.partition({"a"}, {"b", "c", "d"}),
        lambda n: n.heal_link("a", "b"),
        id="heal_link",
    ),
    pytest.param(
        lambda n: None, lambda n: n.partition({"a"}, {"b", "c", "d"}), id="partition"
    ),
    pytest.param(
        lambda n: n.partition({"a", "b"}, {"c", "d"}), lambda n: n.heal_all(), id="heal_all"
    ),
    pytest.param(lambda n: None, lambda n: n.crash_node("a"), id="crash_node"),
    pytest.param(
        lambda n: n.crash_node("a"), lambda n: n.recover_node("a"), id="recover_node"
    ),
]


class TestComponentCache:
    @pytest.mark.parametrize("setup, mutate", MUTATORS)
    def test_every_mutator_invalidates(self, network, setup, mutate):
        setup(network)
        before = cached(network)
        assert before == uncached(network)
        mutate(network)
        after = cached(network)
        assert after == uncached(network)
        assert after != before, "the case must change some component"
        assert set(network.partitions()) == {c for c in after.values() if c}
        for source in NODES:
            for destination in NODES:
                assert network.reachable(source, destination) == (
                    destination in after[source]
                )

    def test_a_listener_already_sees_the_new_components(self, network):
        seen = []
        network.on_topology_change(lambda: seen.append(cached(network)))
        cached(network)
        network.partition({"a"}, {"b", "c", "d"})
        network.crash_node("b")
        network.heal_all()
        assert [view["c"] for view in seen] == [
            frozenset("bcd"),
            frozenset("cd"),
            frozenset("abcd"),
        ]

    def test_answers_are_searched_once_per_topology(self, network, monkeypatch):
        searches = []
        search = Topology._search
        monkeypatch.setattr(
            Topology,
            "_search",
            lambda self, start: searches.append(start) or search(self, start),
        )
        for _ in range(3):
            cached(network)
            network.partitions()
            assert network.reachable("a", "d")
        assert sorted(searches) == list(NODES)
        # Mutators that change nothing have nothing to invalidate.
        network.heal_link("a", "b")
        network.recover_node("c")
        network.heal_all()
        network.partition(NODES)
        cached(network)
        assert sorted(searches) == list(NODES)
        network.partition({"a"}, {"b", "c", "d"})
        cached(network)
        assert len(searches) == 2 * len(NODES)
        network.partition({"a"}, {"b", "c", "d"})
        cached(network)
        assert len(searches) == 2 * len(NODES)

    def test_crashed_node_has_no_partition(self, network):
        assert network.partition_of("b") == frozenset(NODES)
        network.crash_node("b")
        assert network.partition_of("b") == frozenset()
        assert network.partition_of("a") == frozenset("acd")
        network.recover_node("b")
        assert network.partition_of("b") == frozenset(NODES)

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("fail_link"), st.sampled_from(NODES), st.sampled_from(NODES)),
                st.tuples(st.just("heal_link"), st.sampled_from(NODES), st.sampled_from(NODES)),
                st.tuples(st.just("partition"), st.sets(st.sampled_from(NODES), min_size=1)),
                st.tuples(st.just("heal_all")),
                st.tuples(st.just("crash_node"), st.sampled_from(NODES)),
                st.tuples(st.just("recover_node"), st.sampled_from(NODES)),
            ),
            max_size=12,
        )
    )
    def test_cached_equals_uncached_after_any_history(self, steps):
        network = SimNetwork(NODES)
        for name, *arguments in steps:
            if name.endswith("_link") and arguments[0] == arguments[1]:
                continue
            getattr(network, name)(*arguments)
            # The first look-up searches, the second is served from the cache.
            assert cached(network) == cached(network) == uncached(network)

    def test_a_search_that_overlapped_a_mutation_is_not_stored(self, network, monkeypatch):
        search = Topology._search

        def search_then_partition(self, start):
            component = search(self, start)
            monkeypatch.undo()
            self.partition({"a"}, {"b", "c", "d"})
            return component

        monkeypatch.setattr(Topology, "_search", search_then_partition)
        # The overlapping call may answer with either topology ...
        assert network.partition_of("b") in (frozenset("abcd"), frozenset("bcd"))
        # ... but nobody after it is served what it searched.
        assert cached(network) == uncached(network)
        assert network.partition_of("b") == frozenset("bcd")

    def test_readers_racing_a_mutator_end_up_with_the_true_components(self, monkeypatch):
        """One thread flips the topology while four read it.  A search that
        overlapped a flip must never be what later readers are served: once
        the mutator has stopped, every answer equals an uncached search."""
        search = Topology._search

        def slow_search(self, start):
            # Hand the interpreter to the mutator between searching and
            # storing, so that searches do overlap flips.
            component = search(self, start)
            time.sleep(0.0002)
            return component

        monkeypatch.setattr(Topology, "_search", slow_search)
        network = Topology(("a", "b", "c"))
        mutator_done = threading.Event()
        stop = threading.Event()
        wrong: list[tuple] = []
        settled_reads = [0] * 4

        def mutate():
            for _ in range(200):
                network.partition(("a",), ("b", "c"))
                time.sleep(0.00005)  # long enough for readers to start searching
                network.heal_all()
                time.sleep(0.00005)
            network.partition(("a",), ("b", "c"))
            mutator_done.set()

        def read(index):
            rng = random.Random(index)
            while not stop.is_set():
                settled = mutator_done.is_set()
                node, other = rng.choice(network.nodes), rng.choice(network.nodes)
                component = network.partition_of(node)
                reachable = network.reachable(node, other)
                if settled:
                    settled_reads[index] += 1
                    truth = search(network, node)
                    if component != truth or reachable != (other in truth):
                        wrong.append((node, other, component, reachable, truth))
                    if settled_reads[index] >= 200:
                        return

        threads = [threading.Thread(target=mutate)] + [
            threading.Thread(target=read, args=(index,)) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mutator_done.is_set()
        assert min(settled_reads) >= 200
        assert wrong == []
        monkeypatch.undo()
        assert cached(network) == uncached(network) == {
            "a": frozenset("a"),
            "b": frozenset("bc"),
            "c": frozenset("bc"),
        }


@given(
    groups=st.lists(
        st.sets(st.sampled_from(list(NODES)), min_size=1),
        min_size=1,
        max_size=3,
    )
)
def test_partitions_form_a_partition_of_live_nodes(groups):
    """Property: connected components always partition the node set."""
    seen: set[str] = set()
    disjoint = []
    for group in groups:
        fresh = group - seen
        if fresh:
            disjoint.append(fresh)
            seen |= fresh
    network = SimNetwork(NODES)
    network.partition(*disjoint)
    components = network.partitions()
    union = set()
    for component in components:
        assert not (union & component), "components must be disjoint"
        union |= component
    assert union == set(NODES)
