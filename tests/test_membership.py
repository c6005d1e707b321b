"""Tests for the group membership service: views, listeners, weights."""

import pytest
from hypothesis import given, strategies as st

from repro.membership import GroupMembershipService
from repro.net import SimNetwork

NODES = ("a", "b", "c", "d")


@pytest.fixture
def network():
    return SimNetwork(NODES)


@pytest.fixture
def gms(network):
    return GroupMembershipService(network)


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
        gms = GroupMembershipService(network)
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

    def test_refresh_returns_changes(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        # refresh is idempotent afterwards
        assert gms.refresh() == []

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
        assert gms.partition_weight_fraction("a") == 1.0

    def test_partition_weight_fraction(self, network, gms):
        network.partition({"a"}, {"b", "c", "d"})
        assert gms.partition_weight_fraction("a") == pytest.approx(0.25)
        assert gms.partition_weight_fraction("b") == pytest.approx(0.75)

    def test_custom_weights(self, network):
        gms = GroupMembershipService(network, weights={"a": 5.0})
        network.partition({"a"}, {"b", "c", "d"})
        assert gms.partition_weight_fraction("a") == pytest.approx(5.0 / 8.0)

    def test_set_weight_validates(self, gms):
        with pytest.raises(ValueError):
            gms.set_weight("a", 0)
        with pytest.raises(KeyError):
            gms.set_weight("zzz", 1.0)

    def test_crashed_node_weight_fraction_zero(self, network, gms):
        network.crash_node("a")
        assert gms.partition_weight_fraction("a") == 0.0

    def test_weight_of(self, gms):
        assert gms.weight_of(["a", "b"]) == 2.0
