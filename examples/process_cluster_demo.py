"""Three OS processes survive a ``kill -9``: degrade, then reconcile.

The same flight-booking story as ``quickstart.py``, but each node is a
real operating-system process hosting the DeDiSys middleware and talking
length-prefixed JSON frames over local TCP.  The fault is not simulated:
the designated primary is killed with an uncatchable ``SIGKILL`` mid-run.
The survivors elect a temporary primary, keep selling tickets as
consistency threats per the tradeable-constraint model, and after the
primary restarts a reconciliation round re-merges the replicas and
re-validates every threat.

Run:  python examples/process_cluster_demo.py
"""

import signal
import time

from repro.transport.proccluster import ProcessCluster
from repro.transport.wallclock import read_perf_counter


def main() -> None:
    # 1. Spawn three worker processes; "vienna" is the designated primary.
    with ProcessCluster(("vienna", "graz", "linz"), primary="vienna") as cluster:
        pid = cluster.processes["vienna"].pid
        print("spawned 3 worker processes; primary =", cluster.primary)

        # 2. Healthy mode: create a flight and sell some seats.  Writes
        #    sent to a replica are forwarded to the primary (P4).
        cluster.create(
            "vienna", "Flight", "OS-101",
            {"flight_number": "OS 101", "seats": 80, "sold": 0},
        )
        cluster.invoke("vienna", "Flight", "OS-101", "sell_tickets", 70)
        reply = cluster.invoke("graz", "Flight", "OS-101", "sell_tickets", 5)
        print(
            f"healthy: sold {reply['result']} of 80 "
            f"(served by {reply['served_by']}, forwarded by {reply.get('forwarded_by')})"
        )
        baseline = reply["result"]

        # 3. kill -9 the primary process.  Nothing is flushed, nothing is
        #    handed over — the process is simply gone.
        cluster.kill("vienna", signal.SIGKILL)
        print(f"\nkill -9 {pid} (vienna, the designated primary)")

        # 4. The survivors keep selling.  The lowest live node id (graz)
        #    becomes temporary primary; its replica is possibly stale, so
        #    the CCMgr degrades the ticket constraint and accepts each
        #    sale as a consistency threat.
        start = read_perf_counter()
        degraded_ops = 0
        for count in (2, 1, 1):
            reply = cluster.invoke("linz", "Flight", "OS-101", "sell_tickets", count)
            degraded_ops += 1
            print(
                f"degraded sale of {count}: sold={reply['result']} "
                f"served_by={reply['served_by']} threats={reply['threats']}"
            )
        elapsed = read_perf_counter() - start
        status = cluster.status("graz")
        print(
            f"graz status: degraded={status['degraded']} "
            f"temp_primary={status['temp_primary']} threats={status['threats']}"
        )
        print(f"availability preserved: {degraded_ops / elapsed:.0f} degraded ops/sec")

        # 5. Restart the killed primary and run the reconciliation round:
        #    state-dump -> AdditiveSoldMerge -> state-apply -> revalidate.
        cluster.restart("vienna")
        report = cluster.reconcile(additive={"Flight|OS-101": {"sold": baseline}})
        print("\nreconciliation report:", report)
        time.sleep(1.0)  # let liveness probes notice vienna is back
        states = cluster.states("Flight", "OS-101")
        for node, state in states.items():
            print(f"  {node}: {state['sold']} sold")
        assert len({tuple(sorted(state.items())) for state in states.values()}) == 1
        assert cluster.status("graz")["threats"] == 0
        print("\nconsistent again — the partition was a real process death.")


if __name__ == "__main__":
    main()
