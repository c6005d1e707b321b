"""Tests for the fault-injection subsystem: models, injector, schedules.

Covers the per-link fault models (Gilbert-Elliott burst loss, extra
delay, duplication, kind filters), the injector's determinism guarantees,
scheduled fault scripts on either backend's scheduler, the network-level
integration — including the state-change-only topology notifications and
the loss-path determinism the observability trace depends on, and
calls that fail fast when a fault drops them.
"""

import io
import random
from contextlib import contextmanager

import pytest

from repro.faults import (
    ACTIONS,
    PASS,
    CompositeFault,
    DropKinds,
    Duplicate,
    ExtraDelay,
    FaultDecision,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    GilbertElliottLoss,
    LinkFaultModel,
)
from repro.core import AcceptAllHandler
from repro.net import GroupChannel, SimNetwork, UnreachableError
from repro.obs import Observability
from repro.sim import COSTS
from repro.transport.asyncio_backend import AsyncioGroupChannel, AsyncioTransport

NODES = ("a", "b", "c")


def echo_handlers(network):
    for node in NODES:
        network.register_handler(node, lambda message: ("ok", message.kind))
    return network


def make_network(**kwargs):
    return echo_handlers(SimNetwork(NODES, **kwargs))


class TestFaultDecision:
    def test_pass_is_neutral(self):
        assert not PASS.drop
        assert PASS.extra_delay == 0.0
        assert PASS.duplicates == 0

    def test_merge_drop_wins(self):
        drop = FaultDecision(drop=True, reason="burst-loss")
        delay = FaultDecision(extra_delay=0.5)
        assert drop.merge(delay) is drop
        assert delay.merge(drop) is drop

    def test_merge_delays_add_duplicates_max(self):
        first = FaultDecision(extra_delay=0.2, duplicates=1)
        second = FaultDecision(extra_delay=0.3, duplicates=3)
        merged = first.merge(second)
        assert merged.extra_delay == pytest.approx(0.5)
        assert merged.duplicates == 3

    def test_merge_with_neutral_returns_self(self):
        decision = FaultDecision(extra_delay=0.2)
        assert decision.merge(PASS) is decision


class TestGilbertElliott:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(loss_bad=-0.1)

    def test_rejects_absorbing_dead_link(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=0.5, p_bad_to_good=0.0, loss_bad=1.0)

    def test_chain_is_deterministic_per_rng_seed(self):
        def run(seed):
            model = GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.3)
            rng = random.Random(seed)
            return [
                model.decide(rng, "a", "b", "invocation", None).drop
                for _ in range(200)
            ]

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_losses_cluster_in_bursts(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.2, loss_good=0.0, loss_bad=1.0
        )
        rng = random.Random(7)
        drops = [
            model.decide(rng, "a", "b", "k", None).drop for _ in range(2000)
        ]
        losses = sum(drops)
        assert 0 < losses < len(drops)
        # Every loss happens in the bad state; with loss_bad=1.0 the drops
        # come in runs, so the number of distinct loss runs is well below
        # the loss count — the signature of burstiness.
        runs = sum(
            1 for i, d in enumerate(drops) if d and (i == 0 or not drops[i - 1])
        )
        assert runs < losses


class TestSimpleModels:
    def test_extra_delay(self):
        model = ExtraDelay(0.25)
        decision = model.decide(random.Random(0), "a", "b", "k", None)
        assert decision.extra_delay == pytest.approx(0.25)
        assert not decision.drop

    def test_extra_delay_jitter_bounded(self):
        model = ExtraDelay(0.1, jitter=0.05)
        rng = random.Random(1)
        for _ in range(50):
            extra = model.decide(rng, "a", "b", "k", None).extra_delay
            assert 0.1 <= extra <= 0.15

    def test_extra_delay_validation(self):
        with pytest.raises(ValueError):
            ExtraDelay(-1.0)

    def test_duplicate(self):
        always = Duplicate(1.0, copies=2)
        assert always.decide(random.Random(0), "a", "b", "k", None).duplicates == 2
        never = Duplicate(0.0)
        assert never.decide(random.Random(0), "a", "b", "k", None) is PASS

    def test_duplicate_validation(self):
        with pytest.raises(ValueError):
            Duplicate(0.5, copies=0)

    def test_drop_kinds_filters(self):
        model = DropKinds(["invocation"])
        rng = random.Random(0)
        dropped = model.decide(rng, "a", "b", "invocation", None)
        assert dropped.drop
        assert dropped.reason == "kind-filter:invocation"
        assert model.decide(rng, "a", "b", "heartbeat", None) is PASS

    def test_drop_kinds_validation(self):
        with pytest.raises(ValueError):
            DropKinds([])

    def test_composite_merges_and_advances_all(self):
        ge = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_bad=0.0)
        composite = CompositeFault([ge, ExtraDelay(0.1), Duplicate(1.0)])
        decision = composite.decide(random.Random(0), "a", "b", "k", None)
        # the chain advanced even though another model decided the effect
        assert ge.bad
        assert decision.extra_delay == pytest.approx(0.1)
        assert decision.duplicates == 1

    def test_composite_needs_models(self):
        with pytest.raises(ValueError):
            CompositeFault([])


class TestFaultInjector:
    def test_bidirectional_shares_model_instance(self):
        injector = FaultInjector()
        consulted = []

        class Recording(LinkFaultModel):
            def decide(self, rng, source, destination, kind, payload):
                consulted.append((source, destination))
                return PASS

        injector.set_link_model("a", "b", Recording())
        injector.on_send("a", "b", "k", None)
        injector.on_send("b", "a", "k", None)
        assert consulted == [("a", "b"), ("b", "a")]

    def test_rejects_self_link(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.set_link_model("a", "a", GilbertElliottLoss())

    def test_unidirectional(self):
        injector = FaultInjector()
        injector.set_link_model("a", "b", DropKinds(["k"]), bidirectional=False)
        assert injector.on_send("a", "b", "k", None).drop
        assert injector.on_send("b", "a", "k", None) is PASS

    def test_default_factory_creates_per_link_instances(self):
        injector = FaultInjector()
        created = []

        def factory():
            model = GilbertElliottLoss()
            created.append(model)
            return model

        injector.set_default_model(factory)
        injector.on_send("a", "b", "k", None)
        injector.on_send("b", "a", "k", None)
        injector.on_send("a", "b", "k", None)
        assert len(created) == 2  # one per directed link, created lazily

    def test_disabled_injector_passes_everything(self):
        injector = FaultInjector()
        injector.set_link_model("a", "b", DropKinds(["k"]))
        injector.enabled = False
        assert injector.on_send("a", "b", "k", None) is PASS

    def test_same_seed_same_decisions(self):
        def run(seed):
            injector = FaultInjector(seed=seed)
            injector.set_default_model(
                lambda: GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.3)
            )
            return [
                injector.on_send(src, dst, "k", None).drop
                for _ in range(100)
                for src, dst in (("a", "b"), ("b", "c"))
            ]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_link_streams_are_independent_of_first_traffic_order(self):
        # String-seeded per-link RNGs: the a->b stream must not depend on
        # whether b->c saw traffic first.
        def stream(warm_other_link_first):
            injector = FaultInjector(seed=3)
            injector.set_default_model(
                lambda: GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.3)
            )
            if warm_other_link_first:
                injector.on_send("b", "c", "k", None)
            return [injector.on_send("a", "b", "k", None).drop for _ in range(100)]

        assert stream(True) == stream(False)

    def test_clear_removes_every_model(self):
        injector = FaultInjector(seed=1)
        injector.set_default_model(
            lambda: GilbertElliottLoss(p_good_to_bad=0.4, p_bad_to_good=0.2)
        )
        injector.set_link_model("a", "c", DropKinds(["k"]))
        assert injector.on_send("a", "c", "k", None).drop
        injector.clear()
        assert injector.on_send("a", "c", "k", None) is PASS
        assert injector.on_send("a", "b", "k", None) is PASS


class ScheduleInstallContract:
    """A fault script installed on a network fires on that network's
    scheduler at its scripted simulated times; the subclasses run it on
    each substrate."""

    def test_install_fires_at_scripted_times(self, network):
        schedule = (
            FaultSchedule().fail_link(1.0, "a", "b").heal_link(2.0, "a", "b")
        )
        schedule.install(network)
        network.scheduler.run_until(1.5)
        assert not network.link_up("a", "b")
        network.scheduler.run_until(2.5)
        assert network.link_up("a", "b")

    def test_install_rejects_past_events(self, network):
        network.scheduler.run_until(5.0)
        with pytest.raises(ValueError, match="past"):
            FaultSchedule().fail_link(1.0, "a", "b").install(network)

    def test_cancel_prevents_pending_events(self, network):
        schedule = FaultSchedule().crash_node(1.0, "c")
        schedule.install(network)
        assert schedule.cancel() == 1
        network.scheduler.run_until(2.0)
        assert not network.is_crashed("c")

    def test_partition_event_applies_groups(self, network):
        FaultSchedule().partition(1.0, ("a",), ("b", "c")).install(network)
        network.scheduler.run_until(1.0)
        assert network.partition_of("a") == frozenset({"a"})
        assert network.partition_of("b") == frozenset({"b", "c"})


class TestFaultSchedule(ScheduleInstallContract):
    @pytest.fixture
    def network(self):
        return make_network()

    def test_builders_keep_events_sorted(self):
        schedule = (
            FaultSchedule()
            .heal_all(5.0)
            .fail_link(1.0, "a", "b")
            .crash_node(2.0, "c")
        )
        assert [event.action for event in schedule] == [
            "fail_link",
            "crash_node",
            "heal_all",
        ]
        assert len(schedule) == 3

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "explode")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "fail_link", ("a",))  # wrong arity
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "heal_all")
        assert set(ACTIONS) == {
            "fail_link",
            "heal_link",
            "crash_node",
            "recover_node",
            "partition",
            "heal_all",
        }


class TestFaultScheduleThreaded(ScheduleInstallContract):
    """Same script on the threaded backend, whose scheduler is the
    simulator's: events fire when the caller drives it, in simulated
    seconds."""

    @pytest.fixture
    def network(self):
        with AsyncioTransport(NODES) as transport:
            yield echo_handlers(transport.network)


class TestNetworkIntegration:
    """The admission contract, on ``SimNetwork`` + ``GroupChannel``; the
    subclass below re-runs every case on the threaded backend."""

    @pytest.fixture
    def substrate(self):
        network = make_network(obs=Observability())
        yield network, GroupChannel(network)

    def test_injected_drop_surfaces_as_unreachable(self, substrate):
        network, _ = substrate
        injector = network.install_fault_injector(FaultInjector())
        injector.set_link_model("a", "b", DropKinds(["invocation"]))
        with pytest.raises(UnreachableError):
            network.send("a", "b", "invocation", "payload")
        drops = [e for e in network.obs.events() if e.type == "message_drop"]
        assert [e.data["reason"] for e in drops] == ["kind-filter:invocation"]
        # other kinds and other links still work
        assert network.send("a", "b", "heartbeat", None) == ("ok", "heartbeat")
        assert network.send("a", "c", "invocation", None) == ("ok", "invocation")

    def test_extra_delay_advances_clock_and_charges_ledger(self, substrate):
        network, _ = substrate
        injector = network.install_fault_injector(FaultInjector())
        injector.set_link_model("a", "b", ExtraDelay(0.05))
        before = network.scheduler.clock.now
        network.send("a", "b", "k", None)
        # One clock on every substrate: the delay's charge moves it, as
        # does the send's own one-way latency.
        moved = network.scheduler.clock.now - before
        assert moved == pytest.approx(0.05 + COSTS["network_latency"])
        assert network.ledger.totals["fault_delay"] == pytest.approx(0.05)

    def test_duplicate_delivers_extra_copies(self, substrate):
        network, _ = substrate
        injector = network.install_fault_injector(FaultInjector())
        injector.set_link_model("a", "b", Duplicate(1.0, copies=2))
        calls = []
        network.register_handler("b", lambda message: calls.append(message) or "r")
        network.send("a", "b", "before", "p")
        recorded = network.record_deliveries()
        result = network.send("a", "b", "k", "p")
        assert result == "r"  # sender sees the first result only
        assert len(calls) == 6
        # Counted from the start (the same on either substrate), retained
        # only since a recorder asked — duplicates included.
        assert network.delivered_count == 6
        assert [message.kind for message in recorded] == ["k", "k", "k"]

    def test_injector_drop_counts_in_obs(self, substrate):
        network, _ = substrate
        obs = network.obs
        injector = network.install_fault_injector(FaultInjector())
        injector.set_link_model("a", "b", DropKinds(["k"], probability=1.0))
        with pytest.raises(UnreachableError):
            network.send("a", "b", "k", None)
        drops = [e for e in obs.events() if e.type == "message_drop"]
        assert drops and drops[0].data["reason"] == "kind-filter:k"
        injected = [e for e in obs.events() if e.type == "fault_injected"]
        assert injected and injected[0].data["effect"] == "drop"
        assert sum(e.data["reason"] == "kind-filter:k" for e in drops) == 1

    def test_group_channel_unaffected_by_injector(self, substrate):
        # The injector models link faults; the Spread-style channel
        # provides reliable delivery within the reachable membership —
        # on every backend: no drop, no extra copy, no per-member send.
        network, channel = substrate
        injector = network.install_fault_injector(FaultInjector())
        injector.set_default_model(
            lambda: CompositeFault([DropKinds(["update"]), Duplicate(1.0)])
        )
        received = []
        for node in NODES:
            channel.join(
                node, lambda message: received.append(message.destination) or "ack"
            )
        replies = channel.multicast("a", "update", "payload")
        assert replies == {"b": "ack", "c": "ack"}
        assert sorted(received) == ["b", "c"]
        assert "network_latency" not in network.ledger.totals
        types = [e.type for e in network.obs.events()]
        assert types.count("multicast") == 1 and "message_send" not in types

    def test_a_multicast_round_charges_the_clock(self, substrate):
        # The shared round prologue charges the whole synchronous round up
        # front, so both substrates' clocks move by the same amount.
        network, channel = substrate
        for node in NODES:
            channel.join(node, lambda message: "ack")
        before = network.scheduler.clock.now
        channel.multicast("a", "update", "payload")
        expected = 2 * (COSTS["multicast_base"] + COSTS["multicast_per_node"] * 2)
        assert network.scheduler.clock.now - before == pytest.approx(expected)
        assert network.ledger.totals["multicast"] == pytest.approx(expected)


class TestNetworkIntegrationThreaded(TestNetworkIntegration):
    """Same contract on ``AsyncioNetwork`` + ``AsyncioGroupChannel``."""

    @pytest.fixture
    def substrate(self):
        with AsyncioTransport(NODES, obs=Observability()) as transport:
            channel = transport.make_channel()
            assert isinstance(channel, AsyncioGroupChannel)
            yield echo_handlers(transport.network), channel


class TestTopologyNotifications:
    """Listeners fire only on actual state changes (no spurious GMS work)."""

    def setup_method(self):
        self.network = make_network()
        self.notifications = []
        self.network.on_topology_change(lambda: self.notifications.append(1))

    def test_redundant_fail_link_is_silent(self):
        self.network.fail_link("a", "b")
        self.network.fail_link("a", "b")
        self.network.fail_link("b", "a")  # same link, either order
        assert len(self.notifications) == 1

    def test_redundant_heal_link_is_silent(self):
        self.network.heal_link("a", "b")  # nothing failed yet
        assert self.notifications == []
        self.network.fail_link("a", "b")
        self.network.heal_link("a", "b")
        self.network.heal_link("a", "b")
        assert len(self.notifications) == 2

    def test_redundant_crash_and_recover_are_silent(self):
        self.network.recover_node("a")  # not crashed
        self.network.crash_node("a")
        self.network.crash_node("a")
        self.network.recover_node("a")
        self.network.recover_node("a")
        assert len(self.notifications) == 2

    def test_heal_all_on_healthy_network_is_silent(self):
        self.network.heal_all()
        assert self.notifications == []
        self.network.fail_link("a", "c")
        self.network.heal_all()
        self.network.heal_all()
        assert len(self.notifications) == 2

    def test_identical_partition_is_silent(self):
        self.network.partition({"a"}, {"b", "c"})
        self.network.partition({"a"}, {"b", "c"})
        assert len(self.notifications) == 1
        self.network.partition({"a", "b"}, {"c"})
        assert len(self.notifications) == 2

    def test_trivial_partition_of_healthy_network_is_silent(self):
        self.network.partition({"a", "b", "c"})
        assert self.notifications == []


class TestLossDeterminism:
    """Seeded loss is reproducible, on a bare network and on a cluster."""

    def test_burst_loss_drops_deterministically(self):
        def drops(seed):
            network = make_network()
            network.install_fault_injector(FaultInjector.burst_loss(0.3, seed=seed))
            outcomes = []
            for _ in range(100):
                try:
                    network.send("a", "b", "k", None)
                    outcomes.append(False)
                except UnreachableError:
                    outcomes.append(True)
            return outcomes

        first = drops(11)
        assert first == drops(11)
        assert first != drops(12)
        assert 0 < sum(first) < 100

    def test_a_scenarios_seed_param_seeds_its_burst_loss(self):
        from repro.check.scenario import Scenario

        def injector(params):
            cluster, _ = Scenario(name="s", params=params).build()
            return cluster.network.injector

        assert injector({"seed": 5}) is None
        assert injector({"burst_loss": 0.1}).seed == 0
        assert injector({"burst_loss": 0.1, "seed": 5}).seed == 5

    def test_two_clusters_same_seed_byte_identical_traces(self):
        from repro.cluster import ClusterConfig, DedisysCluster
        from repro.core import AcceptAllHandler
        from repro.faults import GilbertElliottLoss
        from repro.obs import Observability

        def run(seed):
            obs = Observability()
            injector = FaultInjector(seed=seed)
            injector.set_default_model(
                lambda: GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.3)
            )
            cluster = DedisysCluster(
                ClusterConfig(
                    node_ids=("n1", "n2", "n3"),
                    obs=obs,
                )
            )
            cluster.network.install_fault_injector(injector)
            from repro.apps.counter import Record, counter_constraint_registration

            cluster.deploy(Record)
            cluster.register_constraint(counter_constraint_registration())
            ref = cluster.create_entity("n1", "Record", "r")
            handler = AcceptAllHandler()
            for value in range(40):
                try:
                    cluster.invoke(
                        "n2", ref, "set_counter", value, negotiation_handler=handler
                    )
                except UnreachableError:
                    pass
            stream = io.StringIO()
            cluster.export_trace(stream)
            return stream.getvalue().encode("utf-8")

        first = run(21)
        assert first == run(21)
        assert first != run(22)
        assert b"message_drop" in first  # the loss path actually fired


@pytest.mark.parametrize("transport", ["sim", "asyncio"])
@pytest.mark.parametrize(
    "model",
    [
        lambda: DropKinds(["replica-update"]),
        lambda: Duplicate(1.0),
        lambda: ExtraDelay(0.01),
    ],
    ids=["drop", "duplicate", "delay"],
)
def test_replica_update_multicast_ignores_link_faults(transport, model):
    """Whatever an injector does to ``replica-update`` on the links, a
    healthy-topology write reaches every backup exactly once — on every
    backend, because propagation is group multicast, not a link send."""
    from repro.apps.flightbooking import Flight, ticket_constraint_registration
    from repro.cluster import ClusterConfig, DedisysCluster

    injector = FaultInjector()
    injector.set_default_model(model)
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, transport=transport))
    cluster.network.install_fault_injector(injector)
    try:
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity(
            "a", "Flight", "F1", {"flight_number": "F1", "seats": 50, "sold": 0}
        )
        assert cluster.invoke("a", ref, "sell_tickets", 5) == 5
        assert [cluster.entity_on(node, ref).get_sold() for node in NODES] == [5, 5, 5]
        for node, store in cluster.threat_stores.items():
            assert store.count_identities() == 0, f"threat stored on {node}"
        # One remote transaction association per backup: applied once each.
        assert cluster.ledger.counts["tx_remote_association"] == 2
        assert "fault_delay" not in cluster.ledger.counts
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", ["sim", "asyncio"])
class TestCallsFailFast:
    """The middleware never retries a call: a lost invocation surfaces
    to the caller as ``UnreachableError`` even when the fault would
    clear moments later — on every backend."""

    @staticmethod
    @contextmanager
    def lossy(transport):
        """An unreplicated cluster whose ``a -> b`` link drops every
        invocation, and a record homed on ``b``.  Unreplicated: P4 would
        promote a temporary primary on the caller's side and hide the
        lost send."""
        from repro.apps.counter import Record, counter_constraint_registration
        from repro.cluster import ClusterConfig, DedisysCluster

        injector = FaultInjector()
        injector.set_link_model("a", "b", DropKinds(["invocation"]), bidirectional=False)
        config = ClusterConfig(
            node_ids=NODES, enable_replication=False, obs=Observability(), transport=transport
        )
        with DedisysCluster(config) as cluster:
            cluster.network.install_fault_injector(injector)
            cluster.deploy(Record)
            cluster.register_constraint(counter_constraint_registration())
            yield cluster, injector, cluster.create_entity("b", "Record", "r")

    def test_a_lost_invocation_fails_fast(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            cluster.scheduler.schedule_after(0.15, injector.clear, label="fault-clears")
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "set_counter", 42, negotiation_handler=AcceptAllHandler())
            assert cluster.entity_on("b", ref).get_counter() == 0

    def test_a_lost_read_fails_fast(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "get_counter")

    def test_the_error_names_the_lost_link(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            with pytest.raises(UnreachableError) as excinfo:
                cluster.invoke("a", ref, "get_counter")
            assert (excinfo.value.source, excinfo.value.destination) == ("a", "b")

    def test_a_failed_call_is_one_send(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            delivered = cluster.network.delivered_count
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "get_counter")
            drops = cluster.obs.events("message_drop")
            assert sum(e.data["reason"] == "kind-filter:invocation" for e in drops) == 1
            assert cluster.network.delivered_count == delivered

    def test_the_next_call_after_the_fault_clears_is_served(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            cluster.scheduler.schedule_after(0.15, injector.clear, label="fault-clears")
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "get_counter")
            # The failed call fired nothing due later; the caller's own
            # scheduler drive does.
            assert len(cluster.scheduler) == 1
            cluster.scheduler.run_until(cluster.clock.now + 0.15)
            assert len(cluster.scheduler) == 0
            cluster.invoke("a", ref, "set_counter", 42, negotiation_handler=AcceptAllHandler())
            assert cluster.entity_on("b", ref).get_counter() == 42

    def test_a_local_call_is_served_while_the_link_drops(self, transport):
        with self.lossy(transport) as (cluster, injector, ref):
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "get_counter")
            cluster.invoke("b", ref, "set_counter", 7, negotiation_handler=AcceptAllHandler())
            assert cluster.invoke("b", ref, "get_counter") == 7
            # Another caller's link to the home node is untouched.
            assert cluster.invoke("c", ref, "get_counter") == 7


def test_a_failed_call_takes_the_same_simulated_time_on_every_backend():
    def failed_call(transport):
        with TestCallsFailFast.lossy(transport) as (cluster, injector, ref):
            started = cluster.clock.now
            with pytest.raises(UnreachableError):
                cluster.invoke("a", ref, "get_counter")
            return cluster.clock.now - started

    seconds = failed_call("sim")
    assert seconds > 0
    assert failed_call("asyncio") == seconds


class TestCustomModel:
    def test_base_model_passes(self):
        model = LinkFaultModel()
        assert model.decide(random.Random(0), "a", "b", "k", None) is PASS
