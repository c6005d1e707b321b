"""Deterministic call-count guards for one healthy replicated invocation.

No timing: the counts say what a healthy op is allowed to recompute.  State
copies go through ``copy_value`` and never reach ``copy.deepcopy`` for the
flat states the flight app has; partition components are searched once per
topology, not once per call; object references are made with their entities,
not per access.  A healthy read, a forwarded write, a degraded forwarded
write and an absorbed threat occurrence run a pinned number of the
package's Python frames, and none of ``enum``'s.  On the threaded backend
a forwarded write wakes each peer once per message and builds no lock.
"""

import copy
import os
import sys
import threading
from collections import Counter
from unittest.mock import Mock

import pytest

import repro.objects.entity
import repro.persistence.store
from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import (
    AcceptAllHandler,
    ConsistencyThreat,
    ConstraintType,
    PredicateConstraint,
    SatisfactionDegree,
    ThreatStore,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.net.topology import Topology
from repro.objects import ObjectRef
from repro.objects.values import copy_value
from repro.persistence import PersistenceEngine
from repro.replication.manager import ReplicationManager
from repro.sim import SimClock
from repro.transport.asyncio_backend import _Mailbox, _ReplyPipe

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


def test_a_replicated_write_copies_state_six_times_and_a_read_never(counted):
    cluster, ref, copies, deep, searches = counted
    # The primary's row (put() copies the attributes the entity hands it),
    # state() to propagate, and apply_state() + put() on each of the two
    # backups; a backup's undo keeps the dict apply_state() replaced.
    for node in NODES:
        before = copies.call_count
        cluster.invoke(node, ref, "sell_tickets", 1)
        assert copies.call_count - before == 6
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


class CountedViews:
    """The CCMgr's view of the GMS, counting the views it reads."""

    def __init__(self, gms):
        self._gms = gms
        self.reads = 0

    def view_of(self, node):
        self.reads += 1
        return self._gms.view_of(node)

    def __getattr__(self, name):
        return getattr(self._gms, name)


def test_a_healthy_invocation_reads_one_view_per_notification_and_asks_no_entity(
    counted, monkeypatch
):
    """Three validations, two notifications: the view is read once per
    notification, and a full view asks no entity whether it is stale."""
    cluster, ref, copies, deep, searches = counted
    sell = (AffectedMethod("Flight", "sell_tickets"),)
    cluster.register_constraint(
        ConstraintRegistration(
            PredicateConstraint(
                "PositiveCount",
                lambda ctx: ctx.get_method_arguments()[0] > 0,
                constraint_type=ConstraintType.PRECONDITION,
            ),
            sell,
        )
    )
    cluster.register_constraint(
        ConstraintRegistration(
            PredicateConstraint(
                "HasSeats", lambda ctx: ctx.get_context_object().get_seats() > 0
            ),
            sell,
        )
    )
    cluster.invoke("n1", ref, "sell_tickets", 1)  # warm the new registrations
    views = {node: CountedViews(cluster.gms) for node in NODES}
    for node, ccmgr in cluster.ccmgrs.items():
        monkeypatch.setattr(ccmgr, "gms", views[node])
    asked = Mock(wraps=ReplicationManager.is_possibly_stale)
    monkeypatch.setattr(
        ReplicationManager, "is_possibly_stale", lambda self, entity: asked(self, entity)
    )
    for node in NODES:
        validations = sum(ccmgr.stats["validations"] for ccmgr in cluster.ccmgrs.values())
        cluster.invoke(node, ref, "sell_tickets", 1)
        after = sum(ccmgr.stats["validations"] for ccmgr in cluster.ccmgrs.values())
        assert after - validations == 3
    assert [views[node].reads for node in NODES] == [2 * len(NODES), 0, 0]
    assert asked.call_count == 0


def test_a_degraded_invocation_still_asks_every_entity(counted, monkeypatch):
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1"}, {"n2", "n3"})
    asked = Mock(wraps=ReplicationManager.is_possibly_stale)
    monkeypatch.setattr(
        ReplicationManager, "is_possibly_stale", lambda self, entity: asked(self, entity)
    )
    cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
    assert asked.call_count == 1
    (threat,) = cluster.threat_stores["n2"].pending()
    assert threat.degree is SatisfactionDegree.POSSIBLY_SATISFIED


def test_healthy_ops_make_no_object_refs(counted, monkeypatch):
    cluster, ref, copies, deep, searches = counted
    made = Mock(wraps=ObjectRef)
    monkeypatch.setattr(repro.objects.entity, "ObjectRef", made)
    for node in NODES:
        cluster.invoke(node, ref, "sell_tickets", 1)
        cluster.invoke(node, ref, "get_sold")
    assert made.call_count == 0
    assert cluster.entity_on("n1", ref).ref is ref


PACKAGE = os.path.dirname(repro.__file__) + os.sep
# Python 3.12 inlines these into their caller; 3.10 and 3.11 give each a frame.
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _frames(action):
    """Run ``action``; return the Python frames it entered under
    ``src/repro`` (comprehensions left out) and those in ``enum.py``."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                if code.co_name not in COMPREHENSIONS:
                    counts["repro"] += 1
            elif os.path.basename(code.co_filename) == "enum.py":
                counts["enum"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return counts["repro"], counts["enum"]


def _charges(cluster):
    """Every charge booked so far, by category, over the cluster's ledger
    and each node's (one shared ledger today; counted once each)."""
    ledgers = {id(cluster.ledger): cluster.ledger}
    for node in cluster.nodes.values():
        ledgers.setdefault(id(node.persistence.ledger), node.persistence.ledger)
    counts = Counter()
    for ledger in ledgers.values():
        counts.update(ledger.counts)
    return counts


def _one_op(cluster, node, ref, method, *args):
    counts, started = _charges(cluster), cluster.clock.now
    cluster.invoke(node, ref, method, *args)
    return _charges(cluster) - counts, cluster.clock.now - started


def test_the_modelled_cost_of_one_whole_op_is_pinned(counted):
    """A healthy local read and a forwarded replicated write book exactly
    these charges and move the clock by exactly their seconds: speeding up
    the stack's Python may not add, drop or move a single one."""
    cluster, ref, copies, deep, searches = counted
    costs = cluster.config.costs
    assert cluster.replication.route_write(ref, "n2") == "n1"

    read, read_s = _one_op(cluster, "n2", ref, "get_sold")
    assert read == {
        "invocation_base": 1,
        "interceptor_hop": 2,  # client chain, then server chain (two hops each)
        "adapt_monitor": 1,
        "ccm_notification": 2,
        "db_read": 1,
        "repository_lookup_cached": 5,  # one per constraint type
    }
    assert read_s == pytest.approx(
        costs.invocation_base
        + 4 * costs.interceptor_hop
        + costs.adapt_monitor
        + 2 * costs.ccm_notification
        + costs.db_read
        + 5 * costs.repository_lookup_cached,
        rel=1e-12,
    )

    write, write_s = _one_op(cluster, "n2", ref, "sell_tickets", 1)
    lookups = write.pop("repository_lookup_cached")
    assert lookups == 5
    assert write == {
        "invocation_base": 1,
        "interceptor_hop": 2,
        "network_latency": 1,  # forwarded from n2 to the primary n1
        "adapt_monitor": 1,
        "ccm_notification": 2,
        "db_read": 1,
        "constraint_validate": 1,
        "db_write": 3,  # the primary's row, then one per backup
        "replica_detail_write": 1,
        "multicast": 1,
        "tx_remote_association": 2,
    }
    assert sum(write.values()) == 16
    assert write_s == pytest.approx(0.046352, rel=1e-12)


def test_the_modelled_cost_of_one_absorbed_occurrence_is_pinned():
    """An identical threat under ``IDENTICAL_ONCE`` books its dedup check
    and one row write, and moves the clock by exactly their seconds."""
    engine = PersistenceEngine(SimClock())
    store = ThreatStore(engine)
    ref = ObjectRef("Flight", "F1")
    store.record(ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_SATISFIED, ref))
    counts, started = Counter(engine.ledger.counts), engine.clock.now
    store.record(ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_VIOLATED, ref))
    assert Counter(engine.ledger.counts) - counts == {"threat_dedup_check": 1, "db_write": 1}
    assert engine.clock.now - started == pytest.approx(
        engine.costs.threat_dedup_check + engine.costs.db_write, rel=1e-12
    )


def test_the_python_frames_of_one_absorbed_occurrence_are_pinned():
    """Absorbing an identical threat enters exactly these many of the
    package's frames and no ``enum`` frame: the degree comparison and the
    row's degree name read the member's fields, not its properties."""
    store = ThreatStore(PersistenceEngine(SimClock()))
    ref = ObjectRef("Flight", "F1")
    store.record(ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_SATISFIED, ref))
    occurrence = ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_VIOLATED, ref)
    assert _frames(lambda: store.record(occurrence)) == (11, 0)


def test_the_modelled_cost_of_one_whole_degraded_write_is_pinned(counted):
    """A forwarded write inside the majority partition whose threat an
    earlier write already stored: it negotiates, absorbs the occurrence on
    the primary, keeps one history state, and propagates to the one
    reachable backup."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1", "n2"}, {"n3"})
    assert cluster.replication.route_write(ref, "n2") == "n1"
    accept = AcceptAllHandler()
    cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)  # stores it

    counts, started = _charges(cluster), cluster.clock.now
    cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)
    write, write_s = _charges(cluster) - counts, cluster.clock.now - started
    assert write.pop("repository_lookup_cached") == 5
    assert write == {
        "invocation_base": 1,
        "interceptor_hop": 2,
        "network_latency": 1,
        "adapt_monitor": 1,
        "ccm_notification": 2,
        "db_read": 1,
        "constraint_validate": 1,
        "threat_negotiate": 1,
        "threat_dedup_check": 1,  # absorbed: no threat_persist, no replication
        "state_history_write": 1,
        "db_write": 3,  # the primary's row, the threat row, the backup's row
        "replica_detail_write": 1,
        "multicast": 1,
        "tx_remote_association": 1,
    }
    assert write_s == pytest.approx(0.053952, rel=1e-12)
    (stored,) = cluster.threat_stores["n1"].pending()
    assert stored.occurrences == 2


def test_the_python_frames_of_one_whole_degraded_write_are_pinned(counted):
    """The degraded forwarded write of the charge pin above, counted in
    the package's Python frames; no ``enum`` frame either."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1", "n2"}, {"n3"})
    accept = AcceptAllHandler()
    cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)  # stores it
    assert _frames(
        lambda: cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)
    ) == (241, 0)


def test_the_python_frames_of_one_whole_op_are_pinned(counted):
    """A healthy local read and a forwarded replicated write enter exactly
    these many of the package's frames, and no ``enum`` frame at all: a
    change that adds Python work to either op has to move this pin."""
    cluster, ref, copies, deep, searches = counted
    assert cluster.replication.route_write(ref, "n2") == "n1"
    # The same on Python 3.10, 3.11 and 3.12.
    assert _frames(lambda: cluster.invoke("n2", ref, "get_sold")) == (88, 0)
    assert _frames(lambda: cluster.invoke("n2", ref, "sell_tickets", 1)) == (226, 0)


class CountedLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self.inner = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def test_a_threaded_forwarded_write_wakes_each_peer_once_and_builds_no_lock(monkeypatch):
    """On the threaded backend a write forwarded from ``b`` is three
    deliveries (the forward and one ``replica-update`` per backup); each
    wakes its node's worker once and its sender once, builds no lock and
    reads the handler table without its lock."""
    cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c"), transport="asyncio"))
    try:
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity(
            "a", "Flight", "F1", {"flight_number": "F1", "seats": 10_000, "sold": 0}
        )
        for node in ("a", "b", "c"):
            cluster.invoke(node, ref, "sell_tickets", 1)
        assert cluster.replication.route_write(ref, "b") == "a"

        network = cluster.network
        wakes = Counter()

        def counting(kind, wake):
            def counted_wake(pipe):
                wakes[kind] += 1
                wake(pipe)

            return counted_wake

        monkeypatch.setattr(_Mailbox, "wake", counting("mailbox", _Mailbox.wake))
        monkeypatch.setattr(_ReplyPipe, "wake", counting("reply", _ReplyPipe.wake))
        handlers_lock = CountedLock()
        monkeypatch.setattr(network, "_handlers_lock", handlers_lock)
        built = Mock(wraps=threading.Lock)
        monkeypatch.setattr(threading, "Lock", built)

        delivered = network.delivered_count
        cluster.invoke("b", ref, "sell_tickets", 1)
        assert network.delivered_count - delivered == 3
        assert wakes == {"mailbox": 3, "reply": 3}
        assert built.call_count == 0
        assert handlers_lock.taken == 0
    finally:
        cluster.close()
