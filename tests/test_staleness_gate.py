"""The staleness gate: ``may_be_stale(node)`` is False only where no entity
can be possibly stale.

The CCMgr asks the gate once per notification and asks ``is_possibly_stale``
per entity only behind it, so the gate may say True too often but never
False too often.  The argument has two halves: every protocol answers "not
stale" when the partition holds every replica node, and a membership view
is a connected component, so one full view means every view is full.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler, SatisfactionDegree
from repro.replication import (
    AdaptiveVotingProtocol,
    PrimaryPartitionProtocol,
    PrimaryPerPartitionProtocol,
    ReplicationProtocol,
)

POOL = ("a", "b", "c", "d", "e")

#: One way to build each protocol from drawn parameters.
PROTOCOLS = {
    PrimaryPerPartitionProtocol: lambda draw: PrimaryPerPartitionProtocol(),
    PrimaryPartitionProtocol: lambda draw: PrimaryPartitionProtocol(
        draw(st.integers(1, 2 * len(POOL)))
    ),
    AdaptiveVotingProtocol: lambda draw: AdaptiveVotingProtocol(
        draw(st.dictionaries(st.sampled_from(POOL), st.integers(0, 3))),
        adaptive=draw(st.booleans()),
    ),
}


def test_every_protocol_is_covered():
    shipped = {
        cls
        for cls in ReplicationProtocol.__subclasses__()
        if cls.__module__.startswith("repro.")
    }
    assert set(PROTOCOLS) == shipped


@st.composite
def protocol_and_placement(draw):
    protocol = PROTOCOLS[draw(st.sampled_from(list(PROTOCOLS)))](draw)
    replicas = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True))
    primary = draw(st.sampled_from(POOL))
    extra = draw(st.frozensets(st.sampled_from(POOL)))
    return protocol, primary, tuple(replicas), frozenset(replicas) | extra


@settings(max_examples=300, deadline=None)
@given(protocol_and_placement())
def test_a_partition_holding_every_replica_node_is_not_stale(case):
    protocol, primary, replicas, partition = case
    assert not protocol.is_possibly_stale(primary, replicas, partition)


NODES = ("a", "b", "c", "d")
PAIRS = [(x, y) for index, x in enumerate(NODES) for y in NODES[index + 1:]]

faults = st.lists(
    st.one_of(
        st.tuples(st.just("fail_link"), st.sampled_from(PAIRS)),
        st.tuples(st.just("crash_node"), st.sampled_from(NODES).map(lambda n: (n,))),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(["p4", "primary-partition", "adaptive-voting"]),
    applied=faults,
)
def test_a_false_gate_means_no_entity_anywhere_is_stale(protocol, applied):
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, protocol=protocol))
    cluster.deploy(Flight)
    refs = [
        cluster.create_entity(node, "Flight", f"F{node}", {"seats": 10})
        for node in NODES
    ]
    for action, args in applied:
        getattr(cluster.network, action)(*args)
    replication = cluster.replication
    live = [node for node in NODES if not cluster.network.is_crashed(node)]
    for node in live:
        if replication.may_be_stale(node):
            continue
        for holder in live:
            for ref in refs:
                entity = cluster.entity_on(holder, ref)
                assert not replication.is_possibly_stale(entity), (node, holder, ref)
    # The gate opens exactly when some view is short.
    full = [len(cluster.gms.view_of(node)) == len(NODES) for node in NODES]
    assert [not replication.may_be_stale(node) for node in NODES] == full
    assert all(full) or not any(full)


def flight_cluster(protocol):
    cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c"), protocol=protocol))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    ref = cluster.create_entity("a", "Flight", "F1", {"seats": 100})
    cluster.partition({"a"}, {"b", "c"})
    return cluster, ref


@pytest.mark.parametrize("protocol, node", [("p4", "a"), ("p4", "b"), ("adaptive-voting", "a")])
def test_a_degraded_write_still_degrades_to_a_threat(protocol, node):
    cluster, ref = flight_cluster(protocol)
    cluster.invoke(node, ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
    (threat,) = cluster.threat_stores[node].pending()
    assert threat.degree is SatisfactionDegree.POSSIBLY_SATISFIED
    assert threat.affected_refs == (ref,)


def test_the_primary_partition_is_degraded_but_not_stale():
    cluster, ref = flight_cluster("primary-partition")
    assert cluster.replication.may_be_stale("b")
    cluster.invoke("b", ref, "sell_tickets", 1)
    assert cluster.threat_stores["b"].pending() == []


def test_a_healed_cluster_closes_the_gate():
    cluster, ref = flight_cluster("p4")
    cluster.invoke("a", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
    cluster.heal()
    assert not any(cluster.replication.may_be_stale(node) for node in ("a", "b", "c"))
    report = cluster.reconcile()
    assert report.satisfied_removed == 1 and report.postponed == 0
