"""Tests for the group membership service: views learned from
reachability reports, listeners, weights, and the topology adapter."""

import pytest
from hypothesis import given, strategies as st

from repro.membership import GroupMembershipService, reach_sets, topology_gms
from repro.net import SimNetwork

from conftest import partition_fraction

NODES = ("a", "b", "c", "d")


@pytest.fixture
def network():
    return SimNetwork(NODES)


@pytest.fixture
def gms(network):
    return topology_gms(network)


class TestViews:
    def test_initial_view_is_whole_system(self, gms):
        for node in NODES:
            assert gms.view_of(node).members == frozenset(NODES)

    def test_view_updates_on_partition(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        assert gms.view_of("a").members == frozenset({"a"})
        assert gms.view_of("b").members == frozenset({"b", "c", "d"})

    def test_view_id_increases_on_change(self, network, gms):
        old = gms.view_of("a").view_id
        network.partition({"a"}, {"b", "c", "d"})
        assert gms.view_of("a").view_id > old

    def test_view_unchanged_keeps_id(self, network, gms):
        # Failing a redundant link changes no component, hence no view.
        old = gms.view_of("a").view_id
        network.fail_link("a", "b")
        assert gms.view_of("a").view_id == old

    def test_view_contains_and_len(self, gms):
        view = gms.view_of("a")
        assert "a" in view
        assert len(view) == 4

    def test_joined_and_left(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        degraded = gms.view_of("b")
        network.heal_all()
        healed = gms.view_of("b")
        assert healed.joined(degraded) == frozenset({"a"})
        assert healed.left(degraded) == frozenset()
        assert degraded.joined(healed) == frozenset()

    def test_unknown_node(self, gms):
        with pytest.raises(KeyError):
            gms.view_of("zzz")

    def test_crashed_node_has_empty_view(self, network, gms):
        network.crash_node("a")
        assert len(gms.view_of("a")) == 0


_node = st.sampled_from(NODES)
FAULT_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("fail_link"), _node, _node),
        st.tuples(st.just("heal_link"), _node, _node),
        st.tuples(st.just("crash_node"), _node),
        st.tuples(st.just("recover_node"), _node),
        st.tuples(st.just("partition"), st.sets(_node, min_size=1)),
        st.tuples(st.just("heal_all")),
    ),
    max_size=12,
)


class TestTheViewIsTheTopology:
    """The middleware asks the view and nothing else, so after any fault
    history the views must say what the network's own bookkeeping says."""

    @given(FAULT_STEPS)
    def test_groups_views_and_epoch_track_the_network(self, steps):
        network = SimNetwork(NODES)
        gms = topology_gms(network)
        notifications = []
        network.on_topology_change(lambda: notifications.append(1))
        assert gms.epoch == 0
        for name, *arguments in steps:
            if name.endswith("_link") and arguments[0] == arguments[1]:
                continue
            getattr(network, name)(*arguments)
            assert gms.groups() == network.partitions()
            for node in NODES:
                assert gms.view_of(node).members == network.partition_of(node)
            assert gms.epoch == len(notifications)

    def test_a_crashed_node_names_no_group(self, network, gms):
        network.crash_node("a")
        assert gms.groups() == [frozenset("bcd")]
        network.partition({"b"}, {"c", "d"})
        assert gms.groups() == [frozenset("cd"), frozenset("b")]


class TestListeners:
    def test_listener_notified_with_old_and_new(self, network, gms):
        changes = []
        gms.add_listener(lambda node, old, new: changes.append((node, old.members, new.members)))
        network.partition({"a"}, {"b", "c", "d"})
        changed_nodes = {node for node, _, _ in changes}
        assert changed_nodes == set(NODES)
        for node, old, new in changes:
            assert old == frozenset(NODES)

    def test_listener_not_notified_without_change(self, network, gms):
        changes = []
        gms.add_listener(lambda *args: changes.append(args))
        network.fail_link("a", "b")  # still connected via c/d
        assert changes == []

    def test_a_repeated_report_changes_nothing(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        changes = []
        gms.add_listener(lambda *args: changes.append(args))
        epoch = gms.epoch
        assert gms.observe(reach_sets(network)) == [] and changes == []
        assert gms.epoch == epoch + 1

    def test_rejoin_notifies(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        changes = []
        gms.add_listener(lambda node, old, new: changes.append((node, new.joined(old))))
        network.heal_all()
        joined_for_a = dict(changes)["a"]
        assert joined_for_a == frozenset({"b", "c", "d"})


class TestWeights:
    def test_default_weights_are_uniform(self, gms):
        assert gms.total_weight() == 4.0
        assert partition_fraction(gms, "a") == 1.0

    def test_a_partitions_weight_fraction(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        assert partition_fraction(gms, "a") == pytest.approx(0.25)
        assert partition_fraction(gms, "b") == pytest.approx(0.75)

    def test_custom_weights(self, network):
        gms = topology_gms(network, weights={"a": 5.0})
        network.partition({"a"}, {"b", "c", "d"})
        assert partition_fraction(gms, "a") == pytest.approx(5.0 / 8.0)

    def test_set_weight_validates(self, gms):
        with pytest.raises(ValueError):
            gms.set_weight("a", 0)
        with pytest.raises(KeyError):
            gms.set_weight("zzz", 1.0)

    def test_crashed_node_weight_fraction_zero(self, network, gms):
        network.crash_node("a")
        assert partition_fraction(gms, "a") == 0.0

    def test_weight_of(self, gms):
        assert gms.weight_of(["a", "b"]) == 2.0

    def test_a_fraction_follows_weight_and_view_changes(self, network, gms):
        # weight_fraction remembers its answers; a new weight or a new
        # view must not be answered from memory.
        assert partition_fraction(gms, "a") == 1.0
        network.partition({"a"}, {"b", "c", "d"})
        assert partition_fraction(gms, "a") == 0.25
        gms.set_weight("a", 5.0)
        assert partition_fraction(gms, "a") == 5.0 / 8.0
        assert partition_fraction(gms, "b") == 3.0 / 8.0
        network.heal_all()
        assert partition_fraction(gms, "b") == 1.0


class TestReports:
    """The GMS holds no network: it learns views from reports alone."""

    def test_a_partial_report_changes_only_the_nodes_it_names(self):
        gms = GroupMembershipService(NODES)
        changes = gms.observe({"b": frozenset("bc"), "c": frozenset("bc"), "d": frozenset("d")})
        assert [node for node, _, _ in changes] == ["b", "c", "d"]
        assert gms.view_of("a").members == frozenset(NODES)
        assert gms.view_of("b").members == frozenset("bc")
        assert gms.groups() == [frozenset(NODES), frozenset("bc"), frozenset("d")]
        assert gms.epoch == 1

    def test_a_first_named_node_joins_at_weight_one(self):
        gms = GroupMembershipService(("a",), weights={"a": 3.0})
        assert partition_fraction(gms, "a") == 1.0
        gms.observe({"a": frozenset({"a", "z", "b"})})
        assert gms.nodes == ("a", "b", "z")
        assert gms.total_weight() == 5.0
        assert partition_fraction(gms, "a") == 1.0
        assert gms.view_of("z").members == frozenset()
        gms.observe({"a": frozenset({"a", "b"})})
        assert partition_fraction(gms, "a") == pytest.approx(4.0 / 5.0)
        assert gms.nodes == ("a", "b", "z") and gms.epoch == 2

    def test_the_adapter_reports_faults_made_before_it_attached(self, network):
        network.crash_node("d")
        gms = topology_gms(network)
        assert gms.view_of("d").members == frozenset()
        assert gms.view_of("a").members == frozenset("abc")
        assert gms.epoch == 1

    def test_the_gms_keeps_no_reference_to_a_network(self, network, gms):
        assert not any(isinstance(value, SimNetwork) for value in vars(gms).values())
        assert gms.nodes == NODES
