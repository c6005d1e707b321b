"""Property-based convergence tests for replication + reconciliation.

The eventual-consistency obligation of the system (§1.1): after all
failures are repaired and reconciliation has run, every replica of every
logical object holds the same state, no matter what sequence of writes,
partitions, and heals happened in between.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler, ThreatStoragePolicy
from repro.objects import Entity

NODES = ("a", "b", "c")

PARTITION_PATTERNS = [
    [{"a"}, {"b", "c"}],
    [{"a", "b"}, {"c"}],
    [{"a", "c"}, {"b"}],
    [{"a"}, {"b"}, {"c"}],
]


class Cell(Entity):
    fields = {"value": 0, "tag": ""}


def command_strategy():
    write = st.tuples(
        st.just("write"),
        st.integers(0, 2),   # issuing node index
        st.integers(0, 2),   # target object index
        st.integers(0, 999), # value
    )
    partition = st.tuples(st.just("partition"), st.integers(0, 3))
    heal = st.tuples(st.just("heal"), st.just(0))
    return st.lists(st.one_of(write, partition, heal), max_size=25)


def run_commands(commands, protocol="p4"):
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, protocol=protocol))
    cluster.deploy(Cell)
    refs = [cluster.create_entity(NODES[i], "Cell", f"cell-{i}") for i in range(3)]
    for command in commands:
        kind = command[0]
        if kind == "write":
            _, node_index, ref_index, value = command
            node = NODES[node_index]
            try:
                cluster.invoke(node, refs[ref_index], "set_value", value)
            except Exception:
                # write access denied (non-P4 protocols) is acceptable
                pass
        elif kind == "partition":
            cluster.partition(*PARTITION_PATTERNS[command[1]])
        else:
            cluster.heal()
            cluster.reconcile()
    cluster.heal()
    cluster.reconcile()
    return cluster, refs


@given(commands=command_strategy())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_replicas_converge_under_p4(commands):
    cluster, refs = run_commands(commands, protocol="p4")
    for ref in refs:
        states = {
            node: cluster.entity_on(node, ref).state() for node in NODES
        }
        values = list(states.values())
        assert all(state == values[0] for state in values), (ref, states)


@given(commands=command_strategy())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_replicas_converge_under_primary_partition(commands):
    cluster, refs = run_commands(commands, protocol="primary-partition")
    for ref in refs:
        states = [cluster.entity_on(node, ref).state() for node in NODES]
        assert all(state == states[0] for state in states)


@given(commands=command_strategy())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_update_records_left_after_reconciliation(commands):
    cluster, refs = run_commands(commands, protocol="p4")
    assert cluster.replication.pending_update_records() == []


@given(
    values_a=st.lists(st.integers(0, 100), min_size=1, max_size=5),
    values_b=st.lists(st.integers(0, 100), min_size=1, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_latest_write_wins_deterministically(values_a, values_b):
    """Writes in two partitions: the last write (in simulated time) wins
    everywhere after reconciliation."""
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Cell)
    ref = cluster.create_entity("a", "Cell", "cell")
    cluster.partition({"a"}, {"b", "c"})
    for value in values_a:
        cluster.invoke("a", ref, "set_value", value)
    for value in values_b:
        cluster.invoke("b", ref, "set_value", value)
    cluster.heal()
    cluster.reconcile()
    expected = values_b[-1]  # partition B wrote later in simulated time
    for node in NODES:
        assert cluster.entity_on(node, ref).get_value() == expected


STORE_NODES = ("a", "b", "c", "d")
STORE_PATTERNS = [
    [{"a"}, {"b", "c", "d"}],
    [{"a", "b"}, {"c", "d"}],
    [{"a"}, {"b"}, {"c", "d"}],
    [{"a", "b", "c"}, {"d"}],
    [{"a"}, {"b"}, {"c"}, {"d"}],
]


def store_script_strategy():
    sell = st.tuples(st.just("sell"), st.integers(0, 3), st.integers(0, 2), st.integers(1, 4))
    cancel = st.tuples(st.just("cancel"), st.integers(0, 3), st.integers(0, 2), st.integers(1, 4))
    partition = st.tuples(st.just("partition"), st.integers(0, len(STORE_PATTERNS) - 1))
    heal = st.tuples(st.just("heal"))
    reconcile = st.tuples(st.just("reconcile"))
    return st.lists(st.one_of(sell, cancel, partition, heal, reconcile), max_size=20)


def store_contents(store):
    """``identity -> {record id}`` of one threat store."""
    return {
        identity: {threat.threat_id for threat in store.occurrences_of(identity)}
        for identity in store.identities()
    }


@pytest.mark.parametrize("policy", list(ThreatStoragePolicy))
@given(script=store_script_strategy())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_reconciled_group_holds_the_union_of_its_stores_minus_what_it_resolved(policy, script):
    """After ``reconcile()`` every merged group's stores hold the union of
    their earlier identities minus the ones the group resolved (and, under
    full history, the union of the kept identities' record ids); the stores
    of nodes outside every merged group do not change."""
    cluster = DedisysCluster(ClusterConfig(node_ids=STORE_NODES, threat_policy=policy))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    refs = [
        cluster.create_entity(STORE_NODES[i], "Flight", f"F{i}", {"seats": 10}) for i in range(3)
    ]
    handler = AcceptAllHandler()
    for command in script + [("heal",), ("reconcile",)]:
        kind = command[0]
        if kind in ("sell", "cancel"):
            _, node, ref, count = command
            try:
                cluster.invoke(
                    STORE_NODES[node], refs[ref], f"{kind}_tickets", count,
                    negotiation_handler=handler,
                )
            except Exception:
                pass  # a violation or an unreachable primary refuses the op
            continue
        if kind == "partition":
            cluster.partition(*STORE_PATTERNS[command[1]])
            continue
        if kind == "heal":
            cluster.heal()
            continue
        before = {node: store_contents(store) for node, store in cluster.threat_stores.items()}
        report = cluster.reconcile()
        after = {node: store_contents(store) for node, store in cluster.threat_stores.items()}
        merged = set()
        for group in report.groups:
            merged |= group.merged_partition
            union = {}
            for node in group.merged_partition:
                for identity, ids in before[node].items():
                    union.setdefault(identity, set()).update(ids)
            kept = set(after[min(group.merged_partition)])
            resolved = group.satisfied_removed + group.resolved_by_rollback + group.resolved_by_handler
            assert kept <= set(union) and len(set(union) - kept) == resolved
            for node in group.merged_partition:
                assert set(after[node]) == kept, (node, group.merged_partition)
                if policy is ThreatStoragePolicy.FULL_HISTORY:
                    assert after[node] == {identity: union[identity] for identity in kept}
        for node in set(STORE_NODES) - merged:
            assert after[node] == before[node], node
