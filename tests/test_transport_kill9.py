"""kill -9 integration: real processes, real signal, degrade-then-reconcile.

Spawns the 3-process flight-booking cluster (the same machinery as
``examples/process_cluster_demo.py``), SIGKILLs the designated primary
while a client thread is issuing transactions, and asserts the
dissertation's availability story on actual OS processes:

* in-flight and subsequent writes keep succeeding, served by the
  deterministically elected temporary primary;
* degraded writes are accepted as consistency threats (tradeable
  constraints on possibly-stale replicas);
* after the primary restarts, driver-coordinated reconciliation merges
  the replicas, revalidates the threats, and every worker converges.

Connections between driver and workers are pooled and long-lived, and
only state changes propagate; the second half of this file pins what
that must not change: a respawned primary is reached on fresh sockets,
an acknowledged write is neither lost nor doubled across the kill, reads
send no replica traffic while writes still reach every replica, and
shutdown does not wait for idle connections.  Every worker is a fork of
its cluster's one template process: the cases in the middle pin what that
must keep true — one parent for every incarnation, exit codes reported,
nothing left behind, no page still shared for writing, and nothing
written to the driver's own stdout.
"""

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps.flightbooking import RebookingReconciliationHandler
from repro.core.reconciliation import MAX_HANDLER_RETRIES
from repro.transport import frames, proccluster
from repro.transport.proccluster import _EPHEMERAL_RANGE, ProcessCluster, WorkerDied, _free_ports
from repro.transport.procnode import PEER_TIMEOUT, ForwardExpired, WorkerNode

FLIGHT = ("Flight", "K9")


@pytest.fixture
def cluster():
    with ProcessCluster(("a", "b", "c"), primary="a") as cluster:
        cluster.create("a", *FLIGHT, {"flight_number": "K9", "seats": 80, "sold": 70})
        yield cluster


def test_kill9_mid_transaction_degrades_and_reconciles(cluster):
    reply = cluster.invoke("b", *FLIGHT, "sell_tickets", 5)
    assert reply["ok"] and reply["served_by"] == "a" and reply["forwarded_by"] == "b"
    baseline = reply["result"]

    # Background client traffic: zero-count sales are full write
    # transactions (undo map, version bump, propagation) without moving
    # the total — the kill lands somewhere inside this stream.
    replies: list[dict] = []
    stop = threading.Event()

    def client() -> None:
        while not stop.is_set():
            try:
                replies.append(cluster.invoke("b", *FLIGHT, "sell_tickets", 0))
            except (OSError, frames.FrameError) as exc:  # pragma: no cover
                replies.append({"ok": False, "error": type(exc).__name__})
            time.sleep(0.01)

    thread = threading.Thread(target=client, name="kill9-client")
    thread.start()
    try:
        time.sleep(0.15)
        cluster.kill("a", signal.SIGKILL)
        assert cluster.processes["a"].poll() is not None, "SIGKILL must be final"
        time.sleep(0.5)
    finally:
        stop.set()
        thread.join(timeout=30)

    # Every request during the kill was answered: either committed or
    # cleanly refused by the middleware — never dropped on the floor.
    assert replies, "client thread never completed a request"
    assert all("ok" in reply for reply in replies)
    assert not any(reply.get("error") in ("OSError", "FrameClosed") for reply in replies)
    served_by = {reply.get("served_by") for reply in replies if reply.get("ok")}
    assert "b" in served_by, f"temporary primary b never served; saw {served_by}"

    # Degraded writes proceed and are persisted as threats.
    degraded = cluster.invoke("c", *FLIGHT, "sell_tickets", 3)
    assert degraded["ok"] and degraded["served_by"] == "b"
    assert degraded["degraded"] and degraded["threats"] >= 1
    status = cluster.status("b")
    assert status["temp_primary"] and status["stored"] >= 1

    # Restart the killed process and reconcile: replicas converge, every
    # threat is re-validated on merged state and resolved.
    cluster.restart("a")
    report = cluster.reconcile(additive={"Flight|K9": {"sold": baseline}})
    assert set(report["participants"]) == {"a", "b", "c"}
    assert report["threats_reevaluated"] >= 1
    assert report["deferred"] == 0
    states = cluster.states(*FLIGHT)
    assert None not in states.values()
    assert len({str(sorted(state.items())) for state in states.values()}) == 1
    assert states["a"]["sold"] == baseline + 3
    for node in ("a", "b", "c"):
        assert cluster.status(node)["threats"] == 0


def test_kill9_replica_keeps_primary_healthy(cluster):
    """Killing a *replica* must not degrade the primary's writes."""
    cluster.kill("c", signal.SIGKILL)
    reply = cluster.invoke("a", *FLIGHT, "sell_tickets", 2)
    assert reply["ok"] and reply["served_by"] == "a"
    assert reply["threats"] == 0, "primary-side writes are not possibly stale"
    cluster.restart("c")
    cluster.reconcile()
    states = cluster.states(*FLIGHT)
    assert states["c"]["sold"] == states["a"]["sold"] == 72


# ----------------------------------------------------------------------
# pooled connections and propagation elision
# ----------------------------------------------------------------------
@pytest.fixture
def quiet_cluster():
    """Probe loop effectively off: after the start-up round only client
    requests touch the workers' pooled peer sockets, so a socket to a
    killed peer is still pooled when the next forward needs it."""
    with ProcessCluster(("a", "b", "c"), primary="a", probe_interval=60.0) as cluster:
        cluster.create("a", *FLIGHT, {"flight_number": "K9", "seats": 80, "sold": 70})
        yield cluster


def versions(cluster: ProcessCluster) -> dict[str, int]:
    key = "|".join(FLIGHT)
    return {
        node: cluster.request(node, {"kind": "state-dump"})["objects"][key]["version"]
        for node in cluster.node_ids
    }


def test_respawned_primary_is_reached_and_acknowledged_write_counts_once(quiet_cluster):
    cluster = quiet_cluster
    # Acknowledged before the kill; leaves c holding a pooled socket to a.
    ack = cluster.invoke("c", *FLIGHT, "sell_tickets", 5)
    assert ack["ok"] and ack["served_by"] == "a" and ack["forwarded_by"] == "c"
    baseline = ack["result"]
    assert baseline == 75

    cluster.kill("a", signal.SIGKILL)
    # Degraded traffic enters at b, so c never dials the dead primary and
    # its socket to the old incarnation stays pooled.
    degraded = cluster.invoke("b", *FLIGHT, "sell_tickets", 3)
    assert degraded["ok"] and degraded["served_by"] == "b" and degraded["threats"] >= 1

    cluster.restart("a")
    report = cluster.reconcile(additive={"Flight|K9": {"sold": baseline}})
    assert set(report["participants"]) == {"a", "b", "c"}
    states = cluster.states(*FLIGHT)
    # The 5 the dead primary acknowledged are neither lost nor doubled.
    assert {node: state["sold"] for node, state in states.items()} == {
        "a": 78, "b": 78, "c": 78,
    }

    # c must notice the stale socket *before* writing, connect to the new
    # incarnation and forward — not mistake it for a dead primary.
    forwarded = cluster.invoke("c", *FLIGHT, "sell_tickets", 1)
    assert forwarded["ok"] and forwarded["result"] == 79
    assert forwarded["served_by"] == "a" and forwarded["forwarded_by"] == "c"
    assert forwarded["threats"] == 0
    status = cluster.status("c")
    assert status["peer_up"]["a"] and not status["temp_primary"]
    states = cluster.states(*FLIGHT)
    assert {state["sold"] for state in states.values()} == {79}


def test_a_stalled_peer_does_not_make_one_partition_count_twice():
    """A forward that outlasts ``PEER_TIMEOUT`` although the peer is alive
    makes a second survivor promote itself; the two keep mirroring each
    other, and their partition's sales must still be merged once.

    The stalled peer finds the forwarded frame in its socket when it wakes
    up, after the sender has served that write itself: it must refuse the
    frame (``ForwardExpired``), or the one ticket is sold twice.
    """
    oracle = 0

    def sell(cluster: ProcessCluster, node: str, count: int = 1) -> dict:
        nonlocal oracle
        oracle += count
        reply = cluster.invoke(node, *FLIGHT, "sell_tickets", count)
        assert reply["ok"], reply
        return reply

    with ProcessCluster(("a", "b", "c"), primary="a") as cluster:
        cluster.create("a", *FLIGHT, {"flight_number": "K9", "seats": 10**6, "sold": 0})
        for index in range(30):
            sell(cluster, "abc"[index % 3])
        baseline = oracle
        cluster.kill("a")
        for index in range(10):
            sell(cluster, "bc"[index % 2])

        # b stops answering for longer than c is willing to wait.
        stalled = cluster.processes["b"]
        stalled.send_signal(signal.SIGSTOP)
        resume = threading.Timer(1.3, stalled.send_signal, (signal.SIGCONT,))
        resume.start()
        try:
            assert sell(cluster, "c")["served_by"] == "c"
        finally:
            resume.join(timeout=5)
            assert not resume.is_alive()
        assert cluster.status("b")["temp_primary"] and cluster.status("c")["temp_primary"]
        # b holds the ticket because c's replica frame said so, not because
        # it executed the forward c had given up on.  (Executing it reads
        # 51 or 52 at the end, by which of the two frames b sees first.)
        copy = cluster.request("b", {"kind": "state-dump"})["objects"]["Flight|K9"]
        assert (copy["state"]["sold"], copy["mirror_of"]) == (oracle, "c")

        for index in range(10):
            sell(cluster, "bc"[index % 2])
        cluster.restart("a")
        cluster.reconcile(additive={"Flight|K9": {"sold": baseline}})
        states = cluster.states(*FLIGHT)
        assert oracle == 51
        # Summing both survivors' deltas read 30 + 2 x 21 here.
        assert {node: state["sold"] for node, state in states.items()} == {
            "a": oracle, "b": oracle, "c": oracle,
        }


def test_reads_leave_replicas_alone_and_writes_reach_all(cluster):
    before = versions(cluster)
    assert len(set(before.values())) == 1
    for node in ("a", "b", "c"):
        reply = cluster.invoke(node, *FLIGHT, "get_sold")
        assert reply["ok"] and reply["result"] == 70 and reply["served_by"] == "a"
    assert versions(cluster) == before

    reply = cluster.invoke("c", *FLIGHT, "sell_tickets", 2)
    assert reply["ok"] and reply["result"] == 72
    after = versions(cluster)
    assert len(set(after.values())) == 1, f"replicas diverged: {after}"
    assert after["a"] > before["a"]
    assert {state["sold"] for state in cluster.states(*FLIGHT).values()} == {72}


def test_only_state_changes_propagate(monkeypatch):
    sent: list[tuple[str, int]] = []
    monkeypatch.setattr(
        WorkerNode,
        "_propagate",
        lambda self, kind, ref, state, version: sent.append((kind, version)),
    )
    worker = WorkerNode("a", port=0, peers={})
    worker.handle_create(
        {"cls": "Flight", "oid": "K9", "attrs": {"flight_number": "K9", "seats": 80, "sold": 70}}
    )
    assert [kind for kind, _ in sent] == ["replica-create"]
    invoke = {"kind": "invoke", "cls": "Flight", "oid": "K9"}

    read = worker.handle_invoke({**invoke, "method": "get_sold"})
    assert read["ok"] and read["result"] == 70
    refused = worker.handle_invoke({**invoke, "method": "sell_tickets", "args": [50]})
    assert refused["error"] == "ConstraintViolated"
    assert len(sent) == 1, "a read and a refused write changed nothing to propagate"

    write = worker.handle_invoke({**invoke, "method": "sell_tickets", "args": [4]})
    assert write["ok"] and write["result"] == 74
    assert [kind for kind, _ in sent] == ["replica-create", "replica-update"]
    assert sent[1][1] > sent[0][1], "the propagated version must have grown"


def test_a_forward_is_refused_once_its_sender_has_given_up(monkeypatch):
    monkeypatch.setattr(WorkerNode, "_propagate", lambda *args: None)
    attrs = {"flight_number": "K9", "seats": 80, "sold": 70}
    sale = {"kind": "invoke", "cls": "Flight", "oid": "K9", "method": "sell_tickets", "args": [1]}

    primary = WorkerNode("a", port=0, peers={})
    primary.handle_create({"cls": "Flight", "oid": "K9", "attrs": attrs})
    in_time = primary.handle_invoke({**sale, "expires": time.monotonic() + PEER_TIMEOUT})
    assert in_time["ok"] and in_time["result"] == 71
    with pytest.raises(ForwardExpired):
        primary.handle_invoke({**sale, "expires": time.monotonic() - 0.001})
    with pytest.raises(ForwardExpired):
        primary.handle_create({"cls": "Flight", "oid": "K8", "attrs": attrs, "expires": 0.0})
    assert primary.handle_invoke({**sale, "method": "get_sold", "args": []})["result"] == 71

    # The answer a forwarder gets for a late frame means "serve it yourself".
    backup = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
    monkeypatch.setattr(
        frames, "request", lambda *args, **kwargs: {"ok": False, "error": "ForwardExpired"}
    )
    assert backup._peer_request("a", sale) is None
    assert "a" not in backup.cluster.gms.view_of("b")

    # A forward passed on keeps its first deadline: when that runs out while
    # this worker tries the primary, it neither serves the write nor
    # promotes itself.
    passed_on = []
    backup.handle_replica_create(
        {"cls": "Flight", "oid": "K9", "state": attrs, "version": 1, "origin": "a"}
    )

    def unreachable_after_a_while(peer, payload):
        passed_on.append(payload["expires"])
        time.sleep(0.05)

    monkeypatch.setattr(backup, "_peer_request", unreachable_after_a_while)
    deadline = time.monotonic() + 0.02
    with pytest.raises(ForwardExpired):
        backup.handle_invoke({**sale, "expires": deadline})
    assert passed_on == [deadline] and not backup.staleness.flag
    assert backup.handle_invoke(sale)["served_by"] == "b" and backup.staleness.flag


def test_revalidation_is_the_cluster_own_constraint_phase(monkeypatch):
    """An overbooking merge: the repair counts once it re-validates."""
    monkeypatch.setattr(WorkerNode, "_propagate", lambda *args: None)
    monkeypatch.setattr(WorkerNode, "_peer_request", lambda self, peer, payload: None)
    attrs = {"flight_number": "K9", "seats": 80, "sold": 78}
    sale = {"kind": "invoke", "cls": "Flight", "oid": "K9", "method": "sell_tickets", "args": [2]}
    merged = {"Flight|K9": {"cls": "Flight", "oid": "K9", "state": {**attrs, "sold": 83}, "version": 9}}

    def degraded_worker() -> WorkerNode:
        worker = WorkerNode("b", port=0, peers={"a": ("127.0.0.1", 1)}, primary="a")
        worker.handle_replica_create(
            {"cls": "Flight", "oid": "K9", "state": attrs, "version": 1, "origin": "a"}
        )
        sold = worker.handle_invoke(dict(sale))
        assert sold["served_by"] == "b" and sold["degraded"] and sold["threats"] == 1
        # The other partition sold three more: 78 + 2 + 3 on 80 seats.
        worker.handle_state_apply({"objects": merged})
        return worker

    worker = degraded_worker()
    outcome = worker.handle_revalidate({})
    assert outcome["threats_reevaluated"] == 1 and outcome["resolved_by_handler"] == 1
    assert outcome["satisfied_removed"] == 0 and outcome["deferred"] == 0
    assert outcome["rebooked"] == [["Flight|K9", 3]]
    assert worker.cluster.threat_stores["b"].count_identities() == 0
    assert worker.handle_status({})["threats"] == 0 and not worker.staleness.flag
    assert worker.handle_invoke({**sale, "method": "get_sold", "args": []})["result"] == 80

    # A handler that claims a clean-up it did not make is asked again, and
    # the threat stays on record: its word alone removes nothing.
    claims = []
    monkeypatch.setattr(
        RebookingReconciliationHandler,
        "__call__",
        lambda self, violation: claims.append(violation.context_ref) or True,
    )
    worker = degraded_worker()
    outcome = worker.handle_revalidate({})
    assert len(claims) == MAX_HANDLER_RETRIES
    assert outcome["resolved_by_handler"] == 0 and outcome["deferred"] == 1
    assert outcome["rebooked"] == []
    assert worker.cluster.threat_stores["b"].count_identities() == 1


def test_close_does_not_wait_for_idle_connections():
    cluster = ProcessCluster(("a", "b", "c"), primary="a")
    try:
        cluster.create("a", *FLIGHT, {"flight_number": "K9", "seats": 80, "sold": 70})
        # Warm every pooled link: driver→each worker, forwards to a,
        # a's propagation to b and c, and the probe loop's pings.
        for node in ("a", "b", "c"):
            assert cluster.invoke(node, *FLIGHT, "sell_tickets", 1)["ok"]
    finally:
        started = time.monotonic()
        cluster.close()
        elapsed = time.monotonic() - started
    codes = {node: process.returncode for node, process in cluster.processes.items()}
    assert codes == {"a": 0, "b": 0, "c": 0}, f"kill fallback was needed: {codes}"
    assert elapsed < 1.5, f"close() took {elapsed:.2f}s"
    pool = frames._POOL
    with pool._pool_lock:
        leaked = [key for key in pool._idle if key[1] in cluster.ports.values()]
    assert leaked == [], "the driver must not keep sockets to closed workers"


# ----------------------------------------------------------------------
# worker ports: never one the kernel may give to somebody else
# ----------------------------------------------------------------------
def ephemeral_range() -> range:
    if not _EPHEMERAL_RANGE.exists():
        pytest.skip("the kernel's ephemeral port range is only readable on Linux")
    low, high = map(int, _EPHEMERAL_RANGE.read_text().split())
    return range(low, high + 1)


def test_worker_ports_are_distinct_bindable_and_not_ephemeral():
    ephemeral = ephemeral_range()
    ports = _free_ports(5)
    assert len(set(ports)) == 5
    for port in ports:
        assert port not in ephemeral
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))


def test_a_failed_start_leaves_no_worker_running(monkeypatch):
    """A worker that cannot bind its port fails construction, and the
    workers already spawned must not outlive it: the caller never got an
    object to ``close()``."""
    held = socket.create_server(("127.0.0.1", 0))
    free_ports = proccluster._free_ports
    monkeypatch.setattr(
        proccluster, "_free_ports", lambda count: [*free_ports(count - 1), held.getsockname()[1]]
    )
    spawned: list[proccluster.WorkerProcess] = []
    templates: set[int] = set()
    spawn = ProcessCluster._spawn

    def recording_spawn(self, node):
        spawn(self, node)
        spawned.append(self.processes[node])
        templates.add(self._template.process.pid)

    monkeypatch.setattr(ProcessCluster, "_spawn", recording_spawn)
    with held, pytest.raises(WorkerDied, match="'c'"):
        ProcessCluster(("a", "b", "c"), primary="a")
    assert len(spawned) == 3 and len(templates) == 1
    running = [process.pid for process in spawned if process.returncode is None]
    assert running == [], "workers outlived the failed start"
    # Reaped, not zombies: neither a worker nor the template has a pid left.
    assert not_gone([process.pid for process in spawned] + [*templates]) == []


# ----------------------------------------------------------------------
# every worker is a fork of one warm template
# ----------------------------------------------------------------------
def not_gone(pids: list[int]) -> list[int]:
    """The pids that still name a process, a zombie included."""
    return [pid for pid in pids if Path(f"/proc/{pid}").exists()]


def parent_pid(pid: int) -> int:
    # The command name in parentheses may hold spaces; the fields after it do not.
    return int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])


def test_workers_are_forked_from_one_template_and_leave_nothing_behind():
    if not Path("/proc/self/stat").exists():
        pytest.skip("parent pids are read from /proc (Linux)")
    cluster = ProcessCluster(("a", "b", "c"), primary="a")
    try:
        template = cluster._template.process.pid
        pids = [process.pid for process in cluster.processes.values()]
        assert [parent_pid(pid) for pid in pids] == [template] * 3
        cluster.kill("a")
        assert cluster.processes["a"].poll() == -signal.SIGKILL
        cluster.restart("a")
        pids.append(cluster.processes["a"].pid)
        assert parent_pid(pids[-1]) == template and cluster.ping("a")
    finally:
        cluster.close()
    codes = {node: process.returncode for node, process in cluster.processes.items()}
    assert codes == {"a": 0, "b": 0, "c": 0}
    assert cluster._template.process.returncode == 0
    assert not_gone([*pids, template]) == []


def test_a_forked_worker_shares_no_writable_page_with_the_template(cluster):
    """Its inherited private pages are copied before it listens, so no
    copy-on-write fault is left for the frames it serves.  (The read-only
    pages the loader relocated stay shared; nobody writes them again.)"""
    cluster.kill("a")
    cluster.restart("a")
    shared: dict[str, int] = {}
    for node, process in cluster.processes.items():
        smaps = Path(f"/proc/{process.pid}/smaps")
        if not smaps.exists():
            pytest.skip("page sharing is read from /proc (Linux)")
        for line in smaps.read_text().splitlines():
            fields = line.split()
            if not fields[0].endswith(":"):
                mapping = fields  # address range, permissions, offset, device, inode[, path]
            elif fields[0] == "Shared_Dirty:" and fields[1] != "0" and mapping[1] == "rw-p":
                shared[f"{node} {mapping[0]} {' '.join(mapping[5:])}"] = int(fields[1])
    assert shared == {}


#: A driver that the ledger's set-up timer would read: its first line must
#: be its own ``READY``, and its stdout must close when it exits.
DRIVER = """
from repro.transport.proccluster import ProcessCluster
with ProcessCluster(("a", "b"), primary="a") as cluster:
    cluster.kill("b")
    cluster.restart("b")
    print("READY", flush=True)
print("closed")
"""


def test_a_driver_prints_only_its_own_lines():
    src = Path(proccluster.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", DRIVER],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["READY", "closed"]


def test_respawn_finds_its_port_free_after_connections_made_while_it_was_down(quiet_cluster):
    cluster = quiet_cluster
    port = cluster.ports["a"]
    cluster.kill("a", signal.SIGKILL)
    with socket.socket() as outbound:
        if port in ephemeral_range():
            # What connect() may do on its own to any peer or driver
            # connection opened now: take the dead worker's port as the
            # local end.  SO_REUSEADDR only gets the explicit bind past
            # the dead worker's TIME_WAIT sockets and is cleared again,
            # as on a socket the kernel bound itself.
            outbound.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            outbound.bind(("127.0.0.1", port))
            outbound.connect(("127.0.0.1", cluster.ports["b"]))
            outbound.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 0)
        cluster.restart("a")
    assert cluster.ping("a")


# ----------------------------------------------------------------------
# the wall-clock ledger's cycle, repeated
# ----------------------------------------------------------------------
def _diagnosis(cluster: ProcessCluster, key: str) -> str:
    """Every worker's ``status`` frame and its ``state-dump`` of ``key``."""
    lines = []
    for node in cluster.node_ids:
        lines.append(f"{node}: exit code {cluster.processes[node].poll()}")
        for kind in ("status", "state-dump"):
            try:
                reply = cluster.request(node, {"kind": kind})
            except (OSError, frames.FrameError) as exc:
                reply = f"no answer ({type(exc).__name__}: {exc})"
            else:
                if kind == "state-dump":
                    reply = reply["objects"].get(key)
            lines.append(f"{node}: {kind} = {reply}")
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("RUN_SLOW") != "1",
    reason="30 kill -9 cycles, about a minute; set RUN_SLOW=1 (CI nightly flag)",
)
def test_ledger_cycle_repeated_against_a_sold_counter_oracle():
    """``proc_mix`` as ``benchmarks/ledger`` drives it — 300 mixed ops via
    all three nodes, ``kill -9`` of the primary, 60 ops via the survivors,
    respawn, reconcile with additive ``sold`` baselines — looped on one
    cluster.  About one ledger run in ninety has ended with every op from
    its second cycle on failing and nothing kept to say why; the first
    mismatch here fails with the workers' own account of themselves.
    """
    cycles, flights = 30, 16
    rng = random.Random(20)
    sold = {f"F{index}": 0 for index in range(flights)}
    op_index = 0

    def mixed_op(cluster: ProcessCluster, callers: tuple[str, ...]) -> None:
        """60 % one-ticket sales, 40 % reads; while all three nodes are
        up, 2 % of sales go to the sold-out flight and must be refused."""
        nonlocal op_index
        caller = rng.choice(callers)
        oid = rng.choice(list(sold))
        if rng.random() >= 0.6:
            method, args, expected = "get_sold", (), sold[oid]
        elif len(callers) == 3 and rng.random() < 0.02:
            oid, method, args, expected = "FULL", "sell_tickets", (1,), "ConstraintViolated"
        else:
            sold[oid] += 1
            method, args, expected = "sell_tickets", (1,), sold[oid]
        try:
            reply = cluster.invoke(caller, "Flight", oid, method, *args)
            got = reply["result"] if reply.get("ok") else reply.get("error")
        except (OSError, frames.FrameError) as exc:
            reply, got = None, f"{type(exc).__name__}: {exc}"
        if got != expected:
            pytest.fail(
                f"op {op_index} ({caller}: {oid}.{method}{args}) returned {got!r}, "
                f"the oracle says {expected!r}; reply {reply}\n"
                + _diagnosis(cluster, f"Flight|{oid}")
            )
        op_index += 1

    with ProcessCluster(("a", "b", "c"), primary="a") as cluster:
        for index, oid in enumerate(sold):
            node = cluster.node_ids[index % 3]
            created = cluster.create(
                node, "Flight", oid, {"flight_number": oid, "seats": 10**6, "sold": 0}
            )
            assert created["ok"], created
        full = {"flight_number": "FULL", "seats": 5, "sold": 5}
        assert cluster.create("a", "Flight", "FULL", full)["ok"]

        for cycle in range(cycles):
            for _ in range(300):
                mixed_op(cluster, ("a", "b", "c"))
            baselines = {f"Flight|{oid}": {"sold": count} for oid, count in sold.items()}
            cluster.kill("a")
            for _ in range(60):
                mixed_op(cluster, ("b", "c"))
            cluster.restart("a")
            report = cluster.reconcile(baselines)
            for oid, count in sold.items():
                states = cluster.states("Flight", oid)
                seen = {node: state and state["sold"] for node, state in states.items()}
                if set(seen.values()) != {count}:
                    pytest.fail(
                        f"after cycle {cycle} (op {op_index}) {oid} reads {seen}, "
                        f"the oracle says {count}; reconcile report {report}\n"
                        + _diagnosis(cluster, f"Flight|{oid}")
                    )
