"""Throughput engine: the compiled constraint dispatch table.

Covers the opt-in :class:`CompiledConstraintRepository` end to end: the
dispatch table (correctness against linear search, runtime invalidation
via register/remove/enable/disable and the §6.3 ``on_change`` hook, live
``enabled``/tradeability), the CCMgr integration (same outcomes, fewer
repository charges), the one write-propagation path under every
repository (one ``replica-update`` round per write, acked by each backup,
undone on rollback, stale only across a partition), and byte-identical
same-seed traces.
"""

import io

import pytest

from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import (
    CompiledConstraintRepository,
    ConstraintPriority,
    ConstraintRepository,
    ConstraintType,
    PredicateConstraint,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.obs import Observability

ALL_TYPES = tuple(ConstraintType)


def make_registration(name, cls="Flight", method="sell", ctype=ConstraintType.INVARIANT_HARD):
    constraint = PredicateConstraint(name, lambda ctx: True, constraint_type=ctype)
    return ConstraintRegistration(constraint, (AffectedMethod(cls, method),))


def populate(repository):
    for index, ctype in enumerate(ALL_TYPES):
        repository.register(make_registration(f"sell-{ctype.name.lower()}", ctype=ctype))
        repository.register(
            make_registration(f"cancel-{index}", method="cancel", ctype=ctype)
        )


class TestCompiledDispatch:
    def test_matches_linear_search_for_every_type(self):
        linear = ConstraintRepository()
        compiled = CompiledConstraintRepository()
        populate(linear)
        populate(compiled)
        for method in ("sell", "cancel", "unknown"):
            for ctype in (None,) + ALL_TYPES:
                expected = [
                    r.name for r in linear.affected_constraints("Flight", method, ctype)
                ]
                got = [
                    r.name for r in compiled.affected_constraints("Flight", method, ctype)
                ]
                assert got == expected, (method, ctype)

    def test_dispatch_groups_every_constraint_type(self):
        compiled = CompiledConstraintRepository()
        populate(compiled)
        dispatch = compiled.method_dispatch("Flight", "sell")
        for ctype in ALL_TYPES:
            assert [r.name for r in dispatch.registrations(ctype)] == [
                f"sell-{ctype.name.lower()}"
            ]
        assert len(dispatch) == len(ALL_TYPES)

    def test_unknown_method_yields_empty_dispatch(self):
        compiled = CompiledConstraintRepository()
        populate(compiled)
        dispatch = compiled.method_dispatch("Flight", "unknown")
        assert len(dispatch) == 0
        assert dispatch.registrations() == ()
        assert not dispatch.any_tradeable()

    def test_register_invalidates_table(self):
        compiled = CompiledConstraintRepository()
        compiled.register(make_registration("c1"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 1
        compiled.register(make_registration("c2"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 2

    def test_remove_invalidates_table(self):
        compiled = CompiledConstraintRepository()
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 2
        compiled.remove("c1")
        assert [r.name for r in compiled.method_dispatch("Flight", "sell").registrations()] == [
            "c2"
        ]

    def test_enable_disable_reflected_in_dispatch(self):
        compiled = CompiledConstraintRepository()
        compiled.register(make_registration("c1"))
        compiled.disable("c1")
        assert compiled.method_dispatch("Flight", "sell").registrations() == ()
        compiled.enable("c1")
        assert len(compiled.method_dispatch("Flight", "sell").registrations()) == 1

    def test_rebuild_is_lazy_and_counted(self):
        compiled = CompiledConstraintRepository()
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        assert compiled.rebuilds == 0
        compiled.method_dispatch("Flight", "sell")
        compiled.method_dispatch("Flight", "sell")
        # Registering twice above marked dirty twice but built nothing;
        # the two lookups share a single rebuild.
        assert compiled.rebuilds == 1
        compiled.remove("c2")
        compiled.method_dispatch("Flight", "sell")
        assert compiled.rebuilds == 2

    def test_on_change_listener_fires_for_all_mutations(self):
        compiled = CompiledConstraintRepository()
        fired = []
        compiled.on_change(lambda: fired.append(True))
        compiled.register(make_registration("c1"))
        compiled.disable("c1")
        compiled.enable("c1")
        compiled.remove("c1")
        assert len(fired) == 4

    def test_listener_query_during_invalidation_sees_fresh_table(self):
        # An on_change listener (adaptive instrumentation, §6.3) may query
        # the repository immediately; it must see the post-change state.
        compiled = CompiledConstraintRepository()
        observed = []
        compiled.on_change(
            lambda: observed.append(len(compiled.method_dispatch("Flight", "sell")))
        )
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        compiled.remove("c1")
        assert observed == [1, 2, 1]

    def test_direct_enabled_toggle_honoured_without_rebuild(self):
        # Satellite regression (mirrors the caching-repository fix): a
        # toggle on the Constraint object itself bypasses the on_change
        # hook, so the compiled table cannot rebuild — ``enabled`` must be
        # filtered at access time instead.
        compiled = CompiledConstraintRepository()
        registration = make_registration("c1")
        compiled.register(registration)
        dispatch = compiled.method_dispatch("Flight", "sell")
        rebuilds = compiled.rebuilds
        registration.constraint.enabled = False
        assert dispatch.registrations() == ()
        assert compiled.affected_constraints("Flight", "sell") == []
        registration.constraint.enabled = True
        assert len(dispatch.registrations()) == 1
        assert compiled.rebuilds == rebuilds

    def test_tradeability_evaluated_live(self):
        # The adaptation actuator flips priorities directly on the
        # Constraint; any_tradeable() must follow without a rebuild.
        compiled = CompiledConstraintRepository()
        registration = make_registration("c1")
        compiled.register(registration)
        dispatch = compiled.method_dispatch("Flight", "sell")
        assert not dispatch.any_tradeable()
        registration.constraint.priority = ConstraintPriority.RELAXABLE
        assert dispatch.any_tradeable()
        registration.constraint.priority = ConstraintPriority.CRITICAL
        assert not dispatch.any_tradeable()

    def test_duplicate_affected_method_triggers_once(self):
        compiled = CompiledConstraintRepository()
        constraint = PredicateConstraint("dup", lambda ctx: True)
        compiled.register(
            ConstraintRegistration(
                constraint,
                (AffectedMethod("Flight", "sell"), AffectedMethod("Flight", "sell")),
            )
        )
        assert len(compiled.method_dispatch("Flight", "sell")) == 1

    def test_charge_categories(self):
        charges = []
        compiled = CompiledConstraintRepository(charge=charges.append)
        compiled.register(make_registration("c1"))
        compiled.method_dispatch("Flight", "sell")
        compiled.affected_constraints("Flight", "sell")
        assert charges == ["repository_dispatch", "repository_dispatch"]


def build_cluster(repository="compiled", obs=None, nodes=3):
    cluster = DedisysCluster(
        ClusterConfig(
            node_ids=tuple(f"node-{i + 1}" for i in range(nodes)),
            repository=repository,
            obs=obs,
        )
    )
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def sell_pair(cluster, client="node-1", refs=None):
    def body(proxy):
        for ref in refs:
            proxy.invoke(ref, "sell_tickets", 1)

    cluster.run_in_tx(client, body)


class TestCompiledClusterIntegration:
    def test_same_outcomes_as_cached(self):
        states = {}
        for kind in ("cached", "compiled"):
            cluster = build_cluster(repository=kind)
            ref = cluster.create_entity(
                "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 5, "sold": 0}
            )
            cluster.invoke("node-1", ref, "sell_tickets", 3)
            with pytest.raises(Exception):
                # Overbooking must still be rejected by the hard invariant.
                cluster.invoke("node-2", ref, "sell_tickets", 9)
            states[kind] = {
                node: cluster.entity_on(node, ref).state()
                for node in cluster.config.node_ids
            }
        assert states["cached"] == states["compiled"]

    def test_compiled_charges_dispatch_not_lookups(self):
        cluster = build_cluster(repository="compiled")
        ref = cluster.create_entity(
            "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 5, "sold": 0}
        )
        cluster.invoke("node-1", ref, "sell_tickets", 1)
        counts = cluster.ledger.counts
        assert counts.get("repository_dispatch", 0) > 0
        assert "repository_lookup_cached" not in counts
        assert "repository_search" not in counts

    def test_compiled_is_not_slower_than_cached(self):
        elapsed = {}
        for kind in ("linear", "cached", "compiled"):
            cluster = build_cluster(repository=kind)
            ref = cluster.create_entity(
                "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 50, "sold": 0}
            )
            start = cluster.network.scheduler.clock.now
            for _ in range(5):
                cluster.invoke("node-1", ref, "sell_tickets", 1)
            elapsed[kind] = cluster.network.scheduler.clock.now - start
        assert elapsed["compiled"] < elapsed["cached"] < elapsed["linear"]


class TestPerWritePropagation:
    """Every write reaches the backups in its own ``replica-update`` round
    (§4.3), whichever repository dispatches the constraints."""

    def two_flights_one_primary(self, cluster):
        return [
            cluster.create_entity(
                "node-1", "Flight", f"f{i}", {"flight_number": f"OS{i}", "seats": 9, "sold": 0}
            )
            for i in (1, 2)
        ]

    def test_one_replica_update_round_per_write(self):
        obs = Observability()
        cluster = build_cluster(obs=obs)
        refs = self.two_flights_one_primary(cluster)
        before = len(obs.events("multicast"))
        sell_pair(cluster, refs=refs)
        kinds = [event.data["kind"] for event in obs.events("multicast")[before:]]
        assert kinds == ["replica-update", "replica-update"]
        for node in cluster.config.node_ids:
            for ref in refs:
                assert cluster.entity_on(node, ref).state()["sold"] == 1

    @pytest.mark.parametrize("repository", ["linear", "cached", "compiled"])
    def test_each_write_pays_one_multicast_round(self, repository):
        cluster = build_cluster(repository=repository)
        refs = self.two_flights_one_primary(cluster)
        before = cluster.ledger.counts["multicast"]
        sell_pair(cluster, refs=refs)
        assert cluster.ledger.counts["multicast"] - before == len(refs)

    def test_every_backup_acks_every_write(self, monkeypatch):
        cluster = build_cluster()
        refs = self.two_flights_one_primary(cluster)
        channel = cluster.replication.channel
        multicast = channel.multicast
        rounds = []

        def recording(source, kind, payload, *args, **kwargs):
            replies = multicast(source, kind, payload, *args, **kwargs)
            rounds.append((kind, replies))
            return replies

        monkeypatch.setattr(channel, "multicast", recording)
        sell_pair(cluster, refs=refs)
        assert rounds == [("replica-update", {"node-2": "ack", "node-3": "ack"})] * 2

    def test_repeated_writes_in_one_transaction_each_reach_the_backups(self):
        obs = Observability()
        cluster = build_cluster(obs=obs)
        ref = cluster.create_entity(
            "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 9, "sold": 0}
        )
        before = len(obs.events("multicast"))

        def body(proxy):
            for _ in range(3):
                proxy.invoke(ref, "sell_tickets", 1)

        cluster.run_in_tx("node-1", body)
        kinds = [event.data["kind"] for event in obs.events("multicast")[before:]]
        assert kinds == ["replica-update"] * 3
        primary = cluster.entity_on("node-1", ref)
        for node in cluster.config.node_ids:
            backup = cluster.entity_on(node, ref)
            assert backup.state()["sold"] == 3
            assert backup.version == primary.version

    def test_a_rolled_back_write_is_undone_on_every_backup(self):
        obs = Observability()
        cluster = build_cluster(obs=obs)
        refs = self.two_flights_one_primary(cluster)
        before = len(obs.events("multicast"))

        def body(proxy):
            proxy.invoke(refs[0], "sell_tickets", 1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cluster.run_in_tx("node-1", body)
        # The write was shipped before the abort ...
        kinds = [event.data["kind"] for event in obs.events("multicast")[before:]]
        assert kinds == ["replica-update"]
        # ... and every backup's undo log took it back.
        for node in cluster.config.node_ids:
            assert cluster.entity_on(node, refs[0]).state()["sold"] == 0

    def test_a_partition_leaves_only_the_minority_backup_stale(self):
        cluster = build_cluster()
        refs = self.two_flights_one_primary(cluster)
        cluster.partition({"node-1", "node-2"}, {"node-3"})
        sell_pair(cluster, refs=refs)
        sold = {
            node: [cluster.entity_on(node, ref).state()["sold"] for ref in refs]
            for node in cluster.config.node_ids
        }
        assert sold == {"node-1": [1, 1], "node-2": [1, 1], "node-3": [0, 0]}

    def test_update_rounds_are_counted(self):
        obs = Observability()
        cluster = build_cluster(obs=obs)
        refs = self.two_flights_one_primary(cluster)
        sell_pair(cluster, refs=refs)
        sell_pair(cluster, client="node-2", refs=refs)
        series = obs.snapshot()["metrics"]["repl_updates_total"]["series"]
        assert series == {"kind=create": 2, "kind=state": 4}


def run_traced_scenario(seed=0):
    obs = Observability()
    cluster = build_cluster(repository="compiled", obs=obs)
    refs = [
        cluster.create_entity(
            "node-1", "Flight", f"f{i}", {"flight_number": f"OS{i}", "seats": 9, "sold": 0}
        )
        for i in (1, 2)
    ]
    sell_pair(cluster, refs=refs)
    cluster.partition({"node-1", "node-2"}, {"node-3"})
    sell_pair(cluster, client="node-2", refs=refs)
    cluster.heal()
    cluster.reconcile()
    return obs


def test_compiled_trace_is_deterministic():
    first, second = run_traced_scenario(), run_traced_scenario()
    streams = []
    for obs in (first, second):
        stream = io.StringIO()
        obs.export_jsonl(stream)
        streams.append(stream.getvalue().encode("utf-8"))
    assert streams[0] == streams[1]
