"""The middleware's live heap does not grow with the number of operations.

Two logs used to keep about 1 KB per operation for the life of the
process — the persistence journal and each network's delivered-message
list — and the rollback history of §4.3 kept every degraded write.  Here
a run ten times as long must leave the heap where the short run left it,
on the simulator and on the threaded transport, healthy and through
partition → degraded writes → heal → reconcile cycles.  The system-mode
history and the failure detector's suspicion log grew by about 1 KB per
partition cycle each; they are a count plus a short tail too.  A
process-backend worker's liveness is its cluster's membership view, so
peers that come and go change views there, and its replication manager,
which never runs a replica phase, must not keep degraded-mode records.
``tracemalloc`` counts live bytes; nothing is timed.
"""

import gc
import tracemalloc
from collections import Counter
from unittest import mock

import pytest

from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import AcceptAllHandler
from repro.core.system_mode import SystemMode, SystemModeTracker
from repro.membership import HeartbeatFailureDetector, topology_gms
from repro.net import SimNetwork
from repro.transport import frames
from repro.transport.procnode import WorkerNode

NODES = ("a", "b", "c")
FLIGHTS = 4

#: What ten times the work may add to the live heap.  With the logs in
#: place 1,800 more healthy ops added 1.9–2.7 MB and nine more cycles
#: 0.5–0.65 MB; without them it is 4–5 KB and 14 KB.
SLACK = 64 * 1024


def healthy(cluster, refs, ops):
    for index in range(ops):
        ref = refs[index % FLIGHTS]
        node = NODES[index % len(NODES)]
        if index % 3:
            cluster.invoke(node, ref, "sell_tickets", 1)
        else:
            cluster.invoke(node, ref, "get_sold")


def cycles(cluster, refs, count):
    accept = AcceptAllHandler()
    for _ in range(count):
        baseline = {ref: cluster.entity_on("a", ref).get_sold() for ref in refs}
        cluster.partition({"a", "b"}, {"c"})
        for index in range(24):
            cluster.invoke(
                NODES[index % len(NODES)],
                refs[index % FLIGHTS],
                "sell_tickets",
                1,
                negotiation_handler=accept,
            )
        cluster.heal()
        report = cluster.reconcile(
            replica_handler=AdditiveSoldMerge(baseline),
            constraint_handler=RebookingReconciliationHandler(
                lambda ref: cluster.entity_on("a", ref)
            ),
        )
        assert report.deferred == report.postponed == 0
    sold = [cluster.entity_on(node, refs[0]).get_sold() for node in NODES]
    assert sold == [6 * count] * len(NODES)


def heap_growth(transport, workload, amount):
    """Live bytes ``workload`` adds to a deployed cluster that is still up."""
    tracemalloc.start()
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, transport=transport))
    try:
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        refs = [
            cluster.create_entity(
                NODES[index % len(NODES)],
                "Flight",
                f"F{index}",
                {"flight_number": f"F{index}", "seats": 10**6, "sold": 0},
            )
            for index in range(FLIGHTS)
        ]
        gc.collect()
        deployed = tracemalloc.get_traced_memory()[0]
        workload(cluster, refs, amount)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - deployed
    finally:
        tracemalloc.stop()
        cluster.close()


@pytest.mark.parametrize("transport", ["sim", "asyncio"])
@pytest.mark.parametrize("workload, amount", [(healthy, 200), (cycles, 1)])
def test_ten_times_the_work_leaves_the_heap_where_it_was(transport, workload, amount):
    short = heap_growth(transport, workload, amount)
    long = heap_growth(transport, workload, 10 * amount)
    assert long - short < SLACK, (
        f"{workload.__name__} x10 on {transport} grew the live heap by "
        f"{(long - short) / 1024:.0f} KiB ({short / 1024:.0f} -> {long / 1024:.0f})"
    )


def mode_cycles(network, count):
    """Partition, heal and reconcile ``count`` times under a mode tracker;
    each cycle is three transitions per node."""
    tracker = SystemModeTracker(topology_gms(network), network.scheduler.clock)
    entered = Counter()
    tracker.add_listener(lambda change: entered.update((change.current,)))
    for _ in range(count):
        network.partition({"a"}, {"b", "c"})
        network.heal_all()
        tracker.finish_reconciliation(frozenset(NODES), clean=True)
    assert set(entered.values()) == {len(NODES) * count}
    assert tracker.history("a")[-1].current is SystemMode.HEALTHY
    return tracker


def suspicion_cycles(network, count):
    """Partition and heal ``count`` times under a heartbeat detector; each
    cycle raises and clears four suspicions."""
    detector = HeartbeatFailureDetector(network)
    events = Counter()
    detector.add_listener(lambda observer, subject, suspected: events.update((suspected,)))
    detector.run_for(2.0)
    for _ in range(count):
        network.partition({"a"}, {"b", "c"})
        detector.run_for(3.0)
        network.heal_all()
        detector.run_for(3.0)
    assert events == {True: 4 * count, False: 4 * count}
    assert detector.timeout < detector.detection_latency("a", "b") <= (
        detector.timeout + detector.period
    )
    return detector


@pytest.mark.parametrize("workload", [mode_cycles, suspicion_cycles])
def test_partition_cycles_leave_the_membership_logs_bounded(workload):
    """Mode changes and suspicion events are a count plus a short tail."""

    def growth(count):
        tracemalloc.start()
        try:
            network = SimNetwork(NODES)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            kept = workload(network, count)
            gc.collect()
            assert kept is not None
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    short, long = growth(10), growth(100)
    assert long - short < SLACK // 4, (
        f"{workload.__name__}: 90 more cycles grew the live heap by "
        f"{(long - short) / 1024:.0f} KiB"
    )


def test_peer_flaps_on_a_worker_leave_no_degraded_history_and_the_heap_flat():
    """Each flap is a write on the primary worker while both its peers have
    just gone down or come back: the write's propagation reports them."""
    attrs = {"flight_number": "F1", "seats": 10**6, "sold": 0}
    sale = {"kind": "invoke", "cls": "Flight", "oid": "F1", "method": "sell_tickets", "args": [1]}

    peers_down = [False]

    def request(*args, **kwargs):  # a Mock would keep every call
        if peers_down[0]:
            raise OSError("refused")
        return {"ok": True}

    def growth(flaps):
        tracemalloc.start()
        try:
            worker = WorkerNode("a", port=0, peers={"b": ("127.0.0.1", 1), "c": ("127.0.0.1", 2)})
            with mock.patch.object(frames, "request", request):
                worker.handle_create({"cls": "Flight", "oid": "F1", "attrs": attrs})
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                epoch = worker.cluster.gms.epoch
                for index in range(flaps):
                    peers_down[0] = index % 2 == 0
                    assert worker.handle_invoke(sale)["degraded"] is peers_down[0]
                peers_down[0] = False
            assert worker.cluster.gms.epoch == epoch + 2 * flaps
            assert worker.cluster.replication.pending_update_records() == []
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    short, long = growth(100), growth(1000)
    assert long - short < SLACK // 4, (
        f"900 more peer flaps grew a worker's live heap by {(long - short) / 1024:.0f} KiB"
    )
