"""The middleware's live heap does not grow with the number of operations.

Two logs used to keep about 1 KB per operation for the life of the
process — the persistence journal and each network's delivered-message
list — and the rollback history of §4.3 kept every degraded write.  Here
a run ten times as long must leave the heap where the short run left it,
on the simulator and on the threaded transport, healthy and through
partition → degraded writes → heal → reconcile cycles.  ``tracemalloc``
counts live bytes; nothing is timed.
"""

import gc
import tracemalloc

import pytest

from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import AcceptAllHandler

NODES = ("a", "b", "c")
FLIGHTS = 4

#: What ten times the work may add to the live heap.  With the logs in
#: place 1,800 more healthy ops added 1.9–2.7 MB and nine more cycles
#: 0.5–0.65 MB; without them it is 4–5 KB and 14 KB (a cycle still leaves
#: ten ``ModeChange`` entries in the system-mode history).
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
