"""Deterministic call-count guards for one healthy replicated invocation.

No timing: the counts say what a healthy op is allowed to recompute.  State
copies go through ``copy_value`` and never reach ``copy.deepcopy`` for the
flat states the flight app has; partition components are searched once per
topology, not once per call; object references are made with their entities,
not per access.  A healthy read, a forwarded write, a degraded forwarded
write, an absorbed threat occurrence and one more absorbed threat on a
degraded write run a pinned number of the package's Python frames, and
none of ``enum``'s; a read, a forwarded write, a refused write and three
degraded writes make a pinned sequence of charges, bit for bit on the
clock.  Each of those charges is a frame of its own, so a charge by
category is pinned in bytecode instructions too, per Python version: it
adds to the clock and books a count, and nothing else.  On the threaded backend
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
import repro.sim.costs
from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import (
    AcceptAllHandler,
    ConsistencyThreat,
    ConstraintPriority,
    ConstraintType,
    ConstraintViolated,
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
from repro.sim import COSTS, SimClock
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


def _instructions(function, *args):
    """Call ``function(*args)``; return the bytecode instructions executed
    in its own code object.  Python 3.12 and later count them with
    ``sys.monitoring``: on 3.12.1, ``f_trace_opcodes`` set from a trace
    function's call event reports no instruction at all."""
    code, count = function.__code__, 0

    def on_instruction(*_):
        nonlocal count
        count += 1

    if sys.version_info >= (3, 12):
        monitoring, tool = sys.monitoring, sys.monitoring.PROFILER_ID
        monitoring.use_tool_id(tool, "instruction-count")
        monitoring.register_callback(tool, monitoring.events.INSTRUCTION, on_instruction)
        monitoring.set_local_events(tool, code, monitoring.events.INSTRUCTION)
        try:
            function(*args)
        finally:
            monitoring.set_local_events(tool, code, 0)
            monitoring.register_callback(tool, monitoring.events.INSTRUCTION, None)
            monitoring.free_tool_id(tool)
        return count

    def local(frame, event, arg):
        if event == "opcode":
            on_instruction()
        return local

    def trace(frame, event, arg):
        if frame.f_code is code:
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return count


#: Instructions of one charge by category, per ``sys.version_info[:2]``
#: (bytecode differs by version).
TABLE_CHARGE_INSTRUCTIONS = {(3, 10): 27, (3, 11): 25, (3, 12): 23}


def test_a_charge_by_category_is_one_addition_and_one_count():
    """A table charge adds its seconds to the clock and books its count;
    its seconds reach the ledger's totals when they are read."""
    version = sys.version_info[:2]
    if version not in TABLE_CHARGE_INSTRUCTIONS:
        pytest.skip(f"no instruction pin for Python {version}")
    clock = SimClock()
    ledger = repro.sim.costs.CostLedger()
    charge = repro.sim.costs.charger(clock, ledger)
    charge("db_read")  # the category's first charge takes the same path
    assert _instructions(charge, "db_read") == TABLE_CHARGE_INSTRUCTIONS[version]
    assert ledger.counts == {"db_read": 2}
    assert clock.now == ledger.totals["db_read"] == COSTS["db_read"] + COSTS["db_read"]


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
        COSTS["invocation_base"]
        + 4 * COSTS["interceptor_hop"]
        + COSTS["adapt_monitor"]
        + 2 * COSTS["ccm_notification"]
        + COSTS["db_read"]
        + 5 * COSTS["repository_lookup_cached"],
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


def test_the_modelled_cost_of_one_refused_write_is_pinned(counted):
    """A forwarded write that the ticket constraint refuses books its
    charges up to the refusal and none for the rollback: the primary's
    row is put back uncharged, so it reads what the last commit wrote."""
    cluster, ref, copies, deep, searches = counted
    sold = cluster.invoke("n1", ref, "get_sold")
    counts, started = _charges(cluster), cluster.clock.now
    with pytest.raises(ConstraintViolated):
        cluster.invoke("n2", ref, "sell_tickets", 20_000)
    refused, refused_s = _charges(cluster) - counts, cluster.clock.now - started
    assert refused == {
        "invocation_base": 1,
        "interceptor_hop": 2,
        "network_latency": 1,
        "adapt_monitor": 1,
        "ccm_notification": 2,
        "db_read": 1,
        "constraint_validate": 1,
        "db_write": 1,  # the primary's row, which the rollback puts back
        "repository_lookup_cached": 3,
    }
    assert refused_s == pytest.approx(0.0129512, rel=1e-12)
    row = cluster.nodes["n1"].persistence.table("entities").get(("Flight", "F1"))
    assert row["sold"] == sold


#: The inner ``charge`` function every charger builds (one code object).
CHARGE_CODE = next(
    const
    for const in repro.sim.costs.charger.__code__.co_consts
    if getattr(const, "co_name", None) == "charge"
)


def _charge_sequence(cluster, action, *raises):
    """Run ``action``; return ``(category, clock.now.hex())`` after every
    charge it made, in order, whoever bound the charge function."""
    sequence = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is CHARGE_CODE:
            sequence.append((frame.f_locals["category"], cluster.clock.now.hex()))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    except raises:
        pass
    finally:
        sys.setprofile(previous)
    return sequence


def test_the_charge_sequence_of_three_ops_is_pinned_bit_for_bit(counted):
    """A healthy read, a forwarded write and a refused forwarded write make
    exactly these charges in exactly this order, and the clock reads
    exactly these bits after each: the clock is a float sum, so moving one
    charge past another changes the bits even where the count pins hold."""
    cluster, ref, copies, deep, searches = counted
    read = _charge_sequence(cluster, lambda: cluster.invoke("n2", ref, "get_sold"))
    assert read == [
        ("invocation_base", "0x1.274751ce28edbp-2"),
        ("interceptor_hop", "0x1.277bbf93ff263p-2"),
        ("interceptor_hop", "0x1.27b02d59d55ebp-2"),
        ("adapt_monitor", "0x1.29d6adf71eb03p-2"),
        ("ccm_notification", "0x1.2a0b1bbcf4e8bp-2"),
        ("repository_lookup_cached", "0x1.2a0b3694e7837p-2"),  # PRECONDITION
        ("repository_lookup_cached", "0x1.2a0b516cda1e3p-2"),  # POSTCONDITION
        ("db_read", "0x1.2c9aad95cfe0cp-2"),
        ("ccm_notification", "0x1.2ccf1b5ba6194p-2"),
        ("repository_lookup_cached", "0x1.2ccf363398b40p-2"),  # INVARIANT_HARD
        ("repository_lookup_cached", "0x1.2ccf510b8b4ecp-2"),  # INVARIANT_SOFT
        ("repository_lookup_cached", "0x1.2ccf6be37de98p-2"),  # INVARIANT_ASYNC
    ]
    write = _charge_sequence(cluster, lambda: cluster.invoke("n2", ref, "sell_tickets", 1))
    assert write == [
        ("invocation_base", "0x1.30e7ff583a540p-2"),
        ("interceptor_hop", "0x1.311c6d1e108c8p-2"),
        ("network_latency", "0x1.316b11c6d1e15p-2"),
        ("interceptor_hop", "0x1.319f7f8ca819dp-2"),
        ("adapt_monitor", "0x1.33c60029f16b5p-2"),
        ("ccm_notification", "0x1.33fa6defc7a3dp-2"),
        ("repository_lookup_cached", "0x1.33fa88c7ba3e9p-2"),
        ("repository_lookup_cached", "0x1.33faa39facd95p-2"),
        ("db_read", "0x1.3689ffc8a29bep-2"),
        ("db_write", "0x1.39d0dc2606244p-2"),
        ("ccm_notification", "0x1.3a0549ebdc5ccp-2"),
        ("repository_lookup_cached", "0x1.3a0564c3cef78p-2"),
        ("constraint_validate", "0x1.3a1280354485ap-2"),  # the hard invariant
        ("repository_lookup_cached", "0x1.3a129b0d37206p-2"),
        ("repository_lookup_cached", "0x1.3a12b5e529bb2p-2"),
        ("replica_detail_write", "0x1.3f316e3715404p-2"),
        ("multicast", "0x1.534373f316e3bp-2"),
        ("tx_remote_association", "0x1.547e06961c36dp-2"),
        ("db_write", "0x1.57c4e2f37fbf3p-2"),
        ("tx_remote_association", "0x1.58ff759685125p-2"),
        ("db_write", "0x1.5c4651f3e89abp-2"),
    ]
    refused = _charge_sequence(
        cluster,
        lambda: cluster.invoke("n2", ref, "sell_tickets", 20_000),
        ConstraintViolated,
    )
    assert refused == [
        ("invocation_base", "0x1.605ee568a5053p-2"),
        ("interceptor_hop", "0x1.6093532e7b3dbp-2"),
        ("network_latency", "0x1.60e1f7d73c928p-2"),
        ("interceptor_hop", "0x1.6116659d12cb0p-2"),
        ("adapt_monitor", "0x1.633ce63a5c1c8p-2"),
        ("ccm_notification", "0x1.6371540032550p-2"),
        ("repository_lookup_cached", "0x1.63716ed824efcp-2"),
        ("repository_lookup_cached", "0x1.637189b0178a8p-2"),
        ("db_read", "0x1.6600e5d90d4d1p-2"),
        ("db_write", "0x1.6947c23670d57p-2"),
        ("ccm_notification", "0x1.697c2ffc470dfp-2"),
        ("repository_lookup_cached", "0x1.697c4ad439a8bp-2"),
        ("constraint_validate", "0x1.69896645af36dp-2"),
    ]


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
        COSTS["threat_dedup_check"] + COSTS["db_write"], rel=1e-12
    )


def test_the_python_frames_of_one_absorbed_occurrence_are_pinned():
    """Absorbing an identical threat enters exactly these many of the
    package's frames and no ``enum`` frame: ``record``, its two charges,
    the moved fields, the row update and its journal entry.  The identity
    is a stored field, the degrees compare by value in C, and a row
    update of leaves copies nothing beyond the merged dict."""
    store = ThreatStore(PersistenceEngine(SimClock()))
    ref = ObjectRef("Flight", "F1")
    store.record(ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_SATISFIED, ref))
    occurrence = ConsistencyThreat("TicketConstraint", SatisfactionDegree.POSSIBLY_VIOLATED, ref)
    assert _frames(lambda: store.record(occurrence)) == (6, 0)


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
    the package's Python frames; no ``enum`` frame either.  Two of them
    note the threat store's image in the transaction's undo map."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1", "n2"}, {"n3"})
    accept = AcceptAllHandler()
    cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)  # stores it
    assert _frames(
        lambda: cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)
    ) == (132, 0)


def _bystanders(cluster, first, count):
    """Register ``count`` always-true invariants on ``Flight.sell_tickets``
    whose context object is the flight, as the ledger's corpus bystanders
    are: tradeable, statically acceptable down to ``UNCHECKABLE``."""
    for index in range(first, first + count):
        cluster.register_constraint(
            ConstraintRegistration(
                PredicateConstraint(
                    f"bystander-{index}",
                    lambda ctx: True,
                    priority=ConstraintPriority.RELAXABLE,
                    min_satisfaction_degree=SatisfactionDegree.UNCHECKABLE,
                    context_class="Flight",
                ),
                (AffectedMethod("Flight", "sell_tickets"),),
            )
        )


def test_the_charge_sequence_of_three_degraded_writes_is_pinned_bit_for_bit(counted):
    """Inside the majority partition, a forwarded write that stores a new
    threat (one ``threat-replicate`` round), one whose occurrence the
    stored threat absorbs, and an absorbed write with four bystander
    threats beside the ticket constraint's make exactly these charges in
    exactly this order, bit for bit on the clock."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1", "n2"}, {"n3"})
    accept = AcceptAllHandler()

    def write():
        cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)

    stored = _charge_sequence(cluster, write)
    assert stored == [
        ("invocation_base", "0x1.274751ce28edbp-2"),
        ("interceptor_hop", "0x1.277bbf93ff263p-2"),
        ("network_latency", "0x1.27ca643cc07b0p-2"),
        ("interceptor_hop", "0x1.27fed20296b38p-2"),
        ("adapt_monitor", "0x1.2a25529fe0050p-2"),
        ("ccm_notification", "0x1.2a59c065b63d8p-2"),
        ("repository_lookup_cached", "0x1.2a59db3da8d84p-2"),
        ("repository_lookup_cached", "0x1.2a59f6159b730p-2"),
        ("db_read", "0x1.2ce9523e91359p-2"),
        ("db_write", "0x1.30302e9bf4bdfp-2"),
        ("ccm_notification", "0x1.30649c61caf67p-2"),
        ("repository_lookup_cached", "0x1.3064b739bd913p-2"),
        ("constraint_validate", "0x1.3071d2ab331f5p-2"),
        ("threat_negotiate", "0x1.38a2f994abf45p-2"),
        ("threat_persist", "0x1.66b77475f3a26p-2"),  # the primary n1 stores it
        ("db_write", "0x1.69fe50d3572acp-2"),
        ("multicast", "0x1.7c387a9ad0d17p-2"),  # threat-replicate to n2
        ("threat_persist", "0x1.aa4cf57c187f8p-2"),
        ("db_write", "0x1.ad93d1d97c07ep-2"),
        ("repository_lookup_cached", "0x1.ad93ecb16ea2ap-2"),
        ("repository_lookup_cached", "0x1.ad940789613d6p-2"),
        ("replica_detail_write", "0x1.b2b2bfdb4cc28p-2"),
        ("multicast", "0x1.c4ece9a2c6693p-2"),
        ("tx_remote_association", "0x1.c6277c45cbbc5p-2"),
        ("db_write", "0x1.c96e58a32f44bp-2"),
        ("state_history_write", "0x1.cadd590c0ad06p-2"),
    ]
    absorbed = _charge_sequence(cluster, write)
    assert absorbed == [
        ("invocation_base", "0x1.cef5ec80c73aep-2"),
        ("interceptor_hop", "0x1.cf2a5a469d736p-2"),
        ("network_latency", "0x1.cf78feef5ec83p-2"),
        ("interceptor_hop", "0x1.cfad6cb53500bp-2"),
        ("adapt_monitor", "0x1.d1d3ed527e523p-2"),
        ("ccm_notification", "0x1.d2085b18548abp-2"),
        ("repository_lookup_cached", "0x1.d20875f047257p-2"),
        ("repository_lookup_cached", "0x1.d20890c839c03p-2"),
        ("db_read", "0x1.d497ecf12f82cp-2"),
        ("db_write", "0x1.d7dec94e930b2p-2"),
        ("ccm_notification", "0x1.d81337146943ap-2"),
        ("repository_lookup_cached", "0x1.d81351ec5bde6p-2"),
        ("constraint_validate", "0x1.d8206d5dd16c8p-2"),
        ("threat_negotiate", "0x1.e05194474a418p-2"),
        ("threat_dedup_check", "0x1.e18c26ea4f94ap-2"),  # absorbed: no round
        ("db_write", "0x1.e4d30347b31d0p-2"),
        ("repository_lookup_cached", "0x1.e4d31e1fa5b7cp-2"),
        ("repository_lookup_cached", "0x1.e4d338f798528p-2"),
        ("replica_detail_write", "0x1.e9f1f14983d7ap-2"),
        ("multicast", "0x1.fc2c1b10fd7e5p-2"),
        ("tx_remote_association", "0x1.fd66adb402d17p-2"),
        ("db_write", "0x1.0056c508b32cfp-1"),
        ("state_history_write", "0x1.010e453d20f2cp-1"),
    ]
    _bystanders(cluster, 0, 4)
    write()  # stores the four bystander threats
    bystanders = _charge_sequence(cluster, write)
    assert bystanders == [
        ("invocation_base", "0x1.0c9fb6134ce3ep+0"),
        ("interceptor_hop", "0x1.0cacd184c2720p+0"),
        ("network_latency", "0x1.0cc07aaef2c73p+0"),
        ("interceptor_hop", "0x1.0ccd962068555p+0"),
        ("adapt_monitor", "0x1.0d573647baa9bp+0"),
        ("ccm_notification", "0x1.0d6451b93037dp+0"),
        ("repository_lookup_cached", "0x1.0d64586f2cde8p+0"),
        ("repository_lookup_cached", "0x1.0d645f2529853p+0"),
        ("db_read", "0x1.0e08362f66f5dp+0"),
        ("db_write", "0x1.0ed9ed46bfd7fp+0"),
        ("ccm_notification", "0x1.0ee708b835661p+0"),
        ("repository_lookup_cached", "0x1.0ee70f6e320ccp+0"),
        ("constraint_validate", "0x1.0eea564a8f705p+0"),
        ("threat_negotiate", "0x1.10f6a004eda59p+0"),
        ("threat_dedup_check", "0x1.114544adaefa6p+0"),
        ("db_write", "0x1.1216fbc507dc8p+0"),
        ("constraint_validate", "0x1.121a42a165401p+0"),  # bystander-0
        ("threat_negotiate", "0x1.14268c5bc3755p+0"),
        ("threat_dedup_check", "0x1.1475310484ca2p+0"),
        ("db_write", "0x1.1546e81bddac4p+0"),
        ("constraint_validate", "0x1.154a2ef83b0fdp+0"),
        ("threat_negotiate", "0x1.175678b299451p+0"),
        ("threat_dedup_check", "0x1.17a51d5b5a99ep+0"),
        ("db_write", "0x1.1876d472b37c0p+0"),
        ("constraint_validate", "0x1.187a1b4f10df9p+0"),
        ("threat_negotiate", "0x1.1a8665096f14dp+0"),
        ("threat_dedup_check", "0x1.1ad509b23069ap+0"),
        ("db_write", "0x1.1ba6c0c9894bcp+0"),
        ("constraint_validate", "0x1.1baa07a5e6af5p+0"),
        ("threat_negotiate", "0x1.1db6516044e49p+0"),
        ("threat_dedup_check", "0x1.1e04f60906396p+0"),
        ("db_write", "0x1.1ed6ad205f1b8p+0"),
        ("repository_lookup_cached", "0x1.1ed6b3d65bc23p+0"),
        ("repository_lookup_cached", "0x1.1ed6ba8c5868ep+0"),
        ("replica_detail_write", "0x1.201e68a0d34a2p+0"),
        ("multicast", "0x1.24acf312b1b3dp+0"),
        ("tx_remote_association", "0x1.24fb97bb7308ap+0"),
        ("db_write", "0x1.25cd4ed2cbeacp+0"),
        ("state_history_write", "0x1.26290eed02cdbp+0"),
    ]
    assert [threat.occurrences for threat in cluster.threat_stores["n1"].pending()] == [
        4, 2, 2, 2, 2
    ]


def test_the_python_frames_of_one_more_absorbed_threat_are_pinned(counted):
    """One more bystander threat on an absorbed degraded write enters
    exactly this many more of the package's frames: validation, staleness,
    negotiation, the undo note and the absorbing row update, per threat."""
    cluster, ref, copies, deep, searches = counted
    cluster.partition({"n1", "n2"}, {"n3"})
    accept = AcceptAllHandler()

    def write():
        cluster.invoke("n2", ref, "sell_tickets", 1, negotiation_handler=accept)

    frames = []
    for first in range(3):
        _bystanders(cluster, first, 1)
        write()  # stores the new bystander's threat
        frames.append(_frames(write))
    per_threat = {(after[0] - before[0], after[1]) for before, after in zip(frames, frames[1:])}
    assert per_threat == {(27, 0)}


def test_the_python_frames_of_one_whole_op_are_pinned(counted):
    """A healthy local read and a forwarded replicated write enter exactly
    these many of the package's frames, and no ``enum`` frame at all: a
    change that adds Python work to either op has to move this pin."""
    cluster, ref, copies, deep, searches = counted
    assert cluster.replication.route_write(ref, "n2") == "n1"
    # The same on Python 3.10, 3.11 and 3.12.
    assert _frames(lambda: cluster.invoke("n2", ref, "get_sold")) == (43, 0)
    assert _frames(lambda: cluster.invoke("n2", ref, "sell_tickets", 1)) == (126, 0)


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
