"""Real-concurrency stress: K client threads against the real backends.

The simulator can interleave schedules, but it cannot produce *actual*
simultaneity — two Python threads in one transaction guard, replica
propagation on node workers while other clients wait, two workers'
connection threads forwarding to one primary at once.  This suite drives
the threaded ("asyncio") backend and the process backend with concurrent
client threads and asserts the ledger-level guarantees the paper's
transaction chapter promises:

* no lost acks — every successful ``sell_tickets`` is visible in the
  final committed state;
* no duplicate commits — the returned running totals form exactly the
  sequence 1..N (each committed write observed a distinct predecessor);
* on the threaded backend, the shared simulated clock moves by exactly
  the costs charged during the concurrent run;
* replicas converge once the system quiesces;
* the model checker's invariant probes are clean after quiesce (on the
  process backend: no worker holds a threat or promoted itself).

A seeded fast variant of each runs in tier 1; the full-width variant is marked
``slow`` and runs when ``RUN_SLOW=1`` (the CI nightly-style flag).
"""

import os
import random
import threading

import pytest

from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.check.invariants import RunProbe, default_registry
from repro.cluster import ClusterConfig, DedisysCluster
from repro.transport.proccluster import ProcessCluster

NODES = ("a", "b", "c")


def drive_clients(clients: int, ops_each: int, seed: int, sell) -> None:
    """``clients`` threads, each making ``ops_each`` one-ticket sales through
    ``sell(rng)``, which returns the running total the sale committed."""
    totals: list[list[int]] = [[] for _ in range(clients)]
    failures: list[BaseException] = []

    def client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        try:
            for _ in range(ops_each):
                totals[index].append(sell(rng))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{thread.name} still running"
    assert not failures, f"client thread failed: {failures[0]!r}"
    all_totals = sorted(total for per_client in totals for total in per_client)
    expected = clients * ops_each
    assert all_totals == list(range(1, expected + 1)), (
        "running totals must be a gapless, duplicate-free 1..N sequence "
        f"(lost ack or duplicate commit otherwise); got {len(all_totals)} "
        f"ops, min {all_totals[:3]}, max {all_totals[-3:]}"
    )


def run_stress(clients: int, ops_each: int, seed: int) -> None:
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, transport="asyncio"))
    try:
        # Every message of the run, not a tail: the probes below check each
        # one against the topology.
        delivered = cluster.network.record_deliveries()
        cluster.deploy(Flight)
        cluster.register_constraint(ticket_constraint_registration())
        ref = cluster.create_entity(
            "a",
            "Flight",
            "STRESS",
            {"flight_number": "STRESS", "seats": clients * ops_each + 1, "sold": 0},
        )
        started, booked = cluster.clock.now, cluster.ledger.total()
        drive_clients(
            clients,
            ops_each,
            seed,
            lambda rng: cluster.invoke(rng.choice(NODES), ref, "sell_tickets", 1),
        )
        # One clock, moved only by charges: the transaction guard lets one
        # chain charge at a time, so concurrent clients lose no increment.
        assert cluster.clock.now - started == pytest.approx(
            cluster.ledger.total() - booked, rel=0, abs=1e-9
        )

        expected = clients * ops_each
        for node in NODES:
            assert cluster.entity_on(node, ref).get_sold() == expected
        for node, store in cluster.threat_stores.items():
            assert store.count_identities() == 0, f"healthy run left threats on {node}"

        assert len(delivered) == cluster.network.delivered_count > expected
        probe = RunProbe(
            cluster=cluster,
            refs=(ref,),
            step=0,
            delivered=delivered,
            topology_before=cluster.network.topology_version,
        )
        violations = default_registry().evaluate(probe)
        assert violations == [], [violation.to_dict() for violation in violations]
    finally:
        cluster.close()


def test_concurrent_clients_fast():
    run_stress(clients=4, ops_each=20, seed=7)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("RUN_SLOW") != "1",
    reason="full-width stress run; set RUN_SLOW=1 (CI nightly flag)",
)
def test_concurrent_clients_full():
    run_stress(clients=8, ops_each=100, seed=11)


def run_proc_stress(clients: int, ops_each: int, seed: int) -> None:
    """The same sales through random callers of three worker processes:
    the workers' connection threads run a forward, the primary's write
    and the replica-updates it sends side by side."""
    with ProcessCluster(NODES, primary="a") as cluster:
        seats = clients * ops_each + 1
        created = cluster.create("a", "Flight", "STRESS", {"flight_number": "STRESS", "seats": seats})
        assert created["ok"], created

        def sell(rng: random.Random) -> int:
            reply = cluster.invoke(rng.choice(NODES), "Flight", "STRESS", "sell_tickets", 1)
            assert reply["ok"] and reply["served_by"] == "a", reply
            return reply["result"]

        drive_clients(clients, ops_each, seed, sell)
        expected = clients * ops_each
        states = cluster.states("Flight", "STRESS")
        assert {node: state["sold"] for node, state in states.items()} == dict.fromkeys(
            NODES, expected
        )
        for node in NODES:
            status = cluster.status(node)
            assert (status["threats"], status["stored"], status["temp_primary"]) == (0, 0, False), status


def test_concurrent_clients_on_worker_processes_fast():
    run_proc_stress(clients=4, ops_each=25, seed=7)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("RUN_SLOW") != "1",
    reason="full-width process-backend stress run; set RUN_SLOW=1 (CI nightly flag)",
)
def test_concurrent_clients_on_worker_processes_full():
    run_proc_stress(clients=8, ops_each=100, seed=11)
