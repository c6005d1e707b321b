"""Deterministic call-count guards for one healthy replicated invocation.

No timing: the counts say what a healthy op is allowed to recompute.  State
copies go through ``copy_value`` and never reach ``copy.deepcopy`` for the
flat states the flight app has; partition components are searched once per
topology, not once per call; object references are made with their entities,
not per access.
"""

import copy
from unittest.mock import Mock

import pytest

import repro.objects.entity
import repro.persistence.store
from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler
from repro.net.topology import Topology
from repro.objects import ObjectRef
from repro.objects.values import copy_value

NODES = ("n1", "n2", "n3")


@pytest.fixture
def counted(monkeypatch):
    """A warmed 3-node flight cluster plus counters for copies, deep copies
    and component searches."""
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES))
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    ref = cluster.create_entity(
        "n1", "Flight", "F1", {"flight_number": "F1", "seats": 10_000, "sold": 0}
    )
    for node in NODES:
        cluster.invoke(node, ref, "sell_tickets", 1)
        cluster.invoke(node, ref, "get_sold")

    copies = Mock(wraps=copy_value)
    deep = Mock(wraps=copy.deepcopy)
    monkeypatch.setattr(repro.objects.entity, "copy_value", copies)
    monkeypatch.setattr(repro.persistence.store, "copy_value", copies)
    monkeypatch.setattr(copy, "deepcopy", deep)
    searches = Mock(wraps=Topology._search)
    # A Mock does not bind as a method; the lambda passes ``self`` on.
    monkeypatch.setattr(Topology, "_search", lambda self, start: searches(self, start))
    return cluster, ref, copies, deep, searches


def test_healthy_ops_deep_copy_nothing_and_search_nothing(counted):
    cluster, ref, copies, deep, searches = counted
    sold = cluster.invoke("n1", ref, "get_sold")
    for index in range(100):
        node = NODES[index % len(NODES)]
        sold += 1
        assert cluster.invoke(node, ref, "sell_tickets", 1) == sold
        assert cluster.invoke(node, ref, "get_sold") == sold
    assert deep.call_count == 0
    assert searches.call_count == 0
    assert copies.call_count > 0


def test_a_replicated_write_copies_state_nine_times_and_a_read_never(counted):
    cluster, ref, copies, deep, searches = counted
    # state() + put() at the primary, state() to propagate, and
    # state() + apply_state() + put() on each of the two backups.
    for node in NODES:
        before = copies.call_count
        cluster.invoke(node, ref, "sell_tickets", 1)
        assert copies.call_count - before == 9
        before = copies.call_count
        cluster.invoke(node, ref, "get_sold")
        assert copies.call_count == before


def test_a_partition_costs_at_most_one_search_per_node(counted):
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1"}, {"n2", "n3"})
    for node in NODES:
        cluster.invoke(node, ref, "get_sold")
    for node in NODES:
        cluster.invoke(node, ref, "get_sold")
    assert 0 < searches.call_count <= len(NODES)


def test_degraded_writes_deep_copy_nothing_either(counted):
    """A threat row holds a list and a dict of leaves, one level down."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1"}, {"n2", "n3"})
    for node in NODES:
        for _ in range(2):  # the second occurrence rewrites the head row
            cluster.invoke(
                node, ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler()
            )
    assert sum(store.stored_records() for store in cluster.threat_stores.values()) > 0
    assert deep.call_count == 0


def test_healthy_ops_make_no_object_refs(counted, monkeypatch):
    cluster, ref, copies, deep, searches = counted
    made = Mock(wraps=ObjectRef)
    monkeypatch.setattr(repro.objects.entity, "ObjectRef", made)
    for node in NODES:
        cluster.invoke(node, ref, "sell_tickets", 1)
        cluster.invoke(node, ref, "get_sold")
    assert made.call_count == 0
    assert cluster.entity_on("n1", ref).ref is ref
