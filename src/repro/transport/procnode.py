"""One DeDiSys node as an OS process speaking frames over local TCP.

``python -m repro.transport.procnode`` is not a worker but the *template*
every worker of one :class:`~repro.transport.proccluster.ProcessCluster`
is forked from (:func:`serve_template`): it makes every import a worker
makes once, then forks a worker per ``spawn`` line on its stdin, so a
worker — and a worker respawned after ``kill -9`` — starts warm instead
of re-importing the stack.  With stdin at EOF it exits after the
warm-up, which is how ``python -X importtime`` lists what a worker loads.

Each worker hosts a *single-node* :class:`~repro.cluster.DedisysCluster`
— the real CCMgr, threat store, negotiator, and transaction manager, not
a re-implementation — and bridges it to its peers with the frame
protocol from :mod:`repro.transport.frames`:

* a worker's liveness *is* its cluster's membership view: each frame
  exchange with a peer — every real write and every probe
  (the cluster's ``probe_interval``), not reads — reports to the cluster's GMS
  whether the peer answered, so the one-node cluster's view names the
  peers it reaches; routing, the ``status`` frame and the staleness gate
  read it;
* the first node in sorted order (or the cluster's ``primary``) is the designated
  primary; other workers forward writes to it (P4, §4.1);
* when the primary is unreachable the receiving worker becomes the
  **temporary primary**: its staleness provider starts answering "this
  replica is possibly stale", so the CCMgr degrades tradeable
  constraints to POSSIBLY_SATISFIED and persists accepted writes as
  consistency threats (§3.1) — exactly the sim/asyncio degradation path;
* every *state change* propagates best-effort as a ``replica-update``
  frame: an invocation that leaves the object's version where it was (a
  read, a write refused before it mutated) sends nothing, because a
  receiver would drop a frame whose version did not grow anyway; an
  unreachable peer simply misses updates until reconciliation; a
  receiver remembers whose frame wrote the state it holds
  (``mirror_of`` in its ``state-dump``);
* peer connections are long-lived (pooled inside ``frames.request``).
  A dead peer shows up as a stale idle socket followed by a refused
  connect, or as an error/timeout mid-exchange — all of which mean
  "unreachable" here; a request is never re-sent, and a forward read
  after its sender gave up is refused (:class:`ForwardExpired`), so a
  forwarded write is applied at most once;
* the driver (:mod:`repro.transport.proccluster`) reconciles by
  ``state-dump`` → merge → ``state-apply`` → ``revalidate``; the
  revalidation step *is* the worker cluster's
  ``ReconciliationManager.reconcile_constraints`` over its one node, with
  the rebooking clean-up handler for genuine violations.

Concurrency: no event loop.  An accept thread gives each inbound
connection its own thread, which reads a frame, runs its handler inline
and writes the answer; the probe loop is one more thread.  Cluster
access happens under ``_mutex`` alone, *never held across a frame
exchange*, so handlers of different connections run side by side and no
wait cycle can form: a thread waits for the mutex only while another
does local work, and for a peer only with no lock held — the peer's
thread either applies a replica frame (local, sends nothing) or serves
a forward, which is passed on only to a lower node id.  Receivers apply
only growing versions, so propagations that overtake each other still
leave the newer state.  ``ping``/``status`` never take the mutex
(``status`` reads an immutable snapshot), so liveness stays responsive
mid-transaction.

Start-up: the template stays single-threaded, so forking it is safe.  A
forked worker points fds 0–2 at ``/dev/null`` (nothing it writes reaches
the driver's pipes), copies every private writable page it inherited
before it listens (otherwise those copy-on-write faults land in its first
frames, typically a ``reconcile()`` right after a respawn), builds its
:class:`WorkerNode`, serves, and leaves with ``os._exit``.  The template
reaps its children and reports their exit codes; at EOF on its stdin it
kills and reaps whatever still runs, so no worker outlives its driver's
pipe.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import sys
import threading
import time
from typing import IO, Any, NoReturn

from ..apps.flightbooking import Flight, RebookingReconciliationHandler, ticket_constraint_registration
from ..cluster import ClusterConfig, DedisysCluster
from ..core import ConsistencyThreatRejected, ConstraintViolated, ReconciliationReport
from ..objects import ObjectRef
from . import frames
from .wallclock import read_monotonic

#: Timeout for worker→worker frame exchanges; beyond this a peer is
#: treated as unreachable (the sender cannot tell a slow peer from a
#: dead one — §1.1's fundamental ambiguity, now on real sockets).
PEER_TIMEOUT = 1.0


class ForwardExpired(Exception):
    """A forwarded write arrived after its sender stopped waiting for it.

    The sender serves such a write itself, so executing the frame — a
    stalled worker finds it in its socket when it wakes up — would apply
    the write twice.
    """


class ProcessStaleness:
    """Staleness provider flipped by temporary-primary promotion.

    While this worker serves writes the designated primary should have
    seen, every replica it reads is possibly stale — the CCMgr then
    degrades satisfaction degrees exactly as it does on the simulated
    backend when a write lands on a temporary primary.  The gate is the
    flag or, as for ``ReplicationManager``, a view that lacks a node.
    """

    def __init__(self, gms: Any) -> None:
        self.gms = gms
        self.flag = False  # guarded-by: _mutex

    def may_be_stale(self, node: Any) -> bool:
        view = self.gms.view_of(node)
        return self.is_possibly_stale(None) or len(view) < len(self.gms.nodes)

    def is_possibly_stale(self, entity: Any) -> bool:
        # One flag covers every replica the worker holds; every CCMgr
        # entry point on a worker already holds WorkerNode._mutex.
        return self.flag


class WorkerNode:
    def __init__(
        self,
        name: str,
        port: int,
        peers: dict[str, tuple[str, int]],
        primary: str | None = None,
    ) -> None:
        self.name = name
        self.port = port
        self.peers = peers
        self.primary = primary or min([name, *peers])
        # Objects whose current state a peer's replica frame wrote, and
        # which peer: this copy is that peer's mirror, so a merge must
        # not count both.  Any state written here clears the entry.
        self._mirror_of: dict[ObjectRef, str] = {}  # guarded-by: _mutex
        self.cluster = DedisysCluster(ClusterConfig(node_ids=(name,)))
        self.cluster.deploy(Flight)
        self.cluster.register_constraint(ticket_constraint_registration())
        # The peers start in the view, as every node of a deployment does.
        self.cluster.gms.observe({name: frozenset([name, *peers])})
        self.staleness = ProcessStaleness(self.cluster.gms)
        for ccmgr in self.cluster.ccmgrs.values():
            ccmgr.staleness = self.staleness
        # Guards all cluster access; never held across a network call.
        self._mutex = threading.RLock()
        self._shutdown = threading.Event()
        # Open inbound connections, hung up on shutdown.
        self._inbound_lock = threading.Lock()
        self._inbound: set[socket.socket] = set()  # guarded-by: _inbound_lock
        # Immutable snapshot handle_status serves without the mutex, which
        # a handler mid-mutation holds; replaced, never mutated, by
        # _publish_status_locked after every change the answer can observe.
        self._published: dict[str, Any] = {}  # guarded-by: _mutex
        with self._mutex:
            self._publish_status_locked()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        return self.name == self.primary

    def _publish_status_locked(self) -> None:
        """Rebuild the status snapshot; every caller holds ``_mutex``."""
        store = self.cluster.threat_stores[self.name]
        members = self.cluster.gms.view_of(self.name).members
        self._published = {
            "degraded": self.staleness.may_be_stale(self.name),
            "temp_primary": self.staleness.flag,
            "peer_up": {peer: peer in members for peer in sorted(self.peers)},
            "threats": store.count_identities(),
            "stored": store.stored_records(),
        }

    def _ref(self, payload: dict[str, Any]) -> ObjectRef:
        return ObjectRef(payload["cls"], payload["oid"])

    def _entity(self, ref: ObjectRef) -> Any:
        return self.cluster.entity_on(self.name, ref)

    def _peer_request(self, peer: str, payload: dict[str, Any]) -> dict[str, Any] | None:
        """Frame exchange with a peer; ``None`` marks it unreachable.

        Reports to the cluster's GMS only an outcome that moves the peer
        into or out of the view, under the mutex taken *after* the
        exchange returns — never across one.
        """
        host, port = self.peers[peer]
        try:
            reply = frames.request(host, port, payload, timeout=PEER_TIMEOUT)
        except (OSError, frames.FrameError):
            reply = None
        if reply is not None and reply.get("error") == ForwardExpired.__name__:
            reply = None
        with self._mutex:
            members = self.cluster.gms.view_of(self.name).members
            if (peer in members) != (reply is not None):
                self.cluster.gms.observe({self.name: members ^ {peer}})
                self._publish_status_locked()
        return reply

    @staticmethod
    def _refuse_expired(payload: dict[str, Any]) -> None:
        """Raise :class:`ForwardExpired` for a forward nobody waits for.

        ``expires`` is the forwarding worker's ``time.monotonic()``; both
        ends share a host, so the clocks are one clock.
        """
        expires = payload.get("expires")
        if expires is not None and (late := read_monotonic() - expires) > 0:
            raise ForwardExpired(f"forward expired {late:.3f}s ago")

    def _propagate(self, kind: str, ref: ObjectRef, state: dict[str, Any], version: int) -> None:
        """Best-effort replica propagation to every reachable peer."""
        payload = {
            "kind": kind,
            "cls": ref.class_name,
            "oid": ref.oid,
            "state": state,
            "version": version,
            "origin": self.name,
        }
        for peer in sorted(self.peers):
            self._peer_request(peer, payload)

    # ------------------------------------------------------------------
    # client-facing frame handlers
    # ------------------------------------------------------------------
    def handle_create(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._refuse_expired(payload)
        if not self.is_primary:
            forwarded = self._forward_to_acting_primary(payload)
            if forwarded is not None:
                return forwarded
        with self._mutex:
            ref = self.cluster.create_entity(
                self.name, payload["cls"], payload["oid"], payload["attrs"]
            )
            entity = self._entity(ref)
            state, version = entity.state(), entity.version
            self._publish_status_locked()
        self._propagate("replica-create", ref, state, version)
        return {"ok": True, "cls": ref.class_name, "oid": ref.oid, "served_by": self.name}

    def handle_invoke(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._refuse_expired(payload)
        if not self.is_primary:
            forwarded = self._forward_to_acting_primary(payload)
            if forwarded is not None:
                return forwarded
        ref = self._ref(payload)
        try:
            with self._mutex:
                entity = self._entity(ref)
                version_before = entity.version
                result = self.cluster.invoke(
                    self.name, ref, payload["method"], *payload.get("args", [])
                )
                state, version = entity.state(), entity.version
                if version != version_before:
                    self._mirror_of.pop(ref, None)
        except (ConstraintViolated, ConsistencyThreatRejected) as exc:
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
                "served_by": self.name,
            }
        if version != version_before:
            # Receivers apply an update only when its version grew, so an
            # unchanged version (a read) has nothing to tell them.
            self._propagate("replica-update", ref, state, version)
        with self._mutex:
            # One snapshot: read apart, a pre-promotion flag could pair
            # with a post-promotion threat count.
            self._publish_status_locked()
            status = self._published
        return {
            "ok": True,
            "result": result,
            "served_by": self.name,
            "degraded": status["degraded"],
            "threats": status["threats"],
        }

    def _forward_to_acting_primary(self, payload: dict[str, Any]) -> dict[str, Any] | None:
        """Route a write to the acting primary; ``None`` = serve locally.

        P4 elects exactly one temporary primary per partition.  The
        deterministic choice is the lowest node id among the nodes in this
        worker's view: first the designated primary, then each lower-id
        peer in the view.  Only when every one of them is unreachable
        does this worker promote itself — flipping the staleness flag so
        the CCMgr degrades until the driver reconciles (§4.1).
        """
        # Lock-free: routing on a view a probe may be about to change is
        # best-effort anyway.
        members = self.cluster.gms.view_of(self.name).members
        candidates = [self.primary] + [
            peer
            for peer in sorted(self.peers)
            if peer < self.name and peer != self.primary and peer in members
        ]
        for candidate in candidates:
            # Waited for as long as any peer frame; a write passed on a
            # second time keeps the deadline of whoever forwarded it first.
            expires = payload.get("expires", read_monotonic() + PEER_TIMEOUT)
            reply = self._peer_request(candidate, {**payload, "expires": expires})
            if reply is not None:
                reply["forwarded_by"] = self.name
                return reply
        # The attempts above took time the first forwarder may not have had.
        self._refuse_expired(payload)
        with self._mutex:
            self.staleness.flag = True
            self._publish_status_locked()
        return None

    # ------------------------------------------------------------------
    # peer replica frames
    # ------------------------------------------------------------------
    def handle_replica_create(self, payload: dict[str, Any]) -> dict[str, Any]:
        ref = self._ref(payload)
        with self._mutex:
            try:
                entity = self._entity(ref)
            except Exception:
                self.cluster.create_entity(
                    self.name, payload["cls"], payload["oid"], payload["state"]
                )
                entity = self._entity(ref)
            entity.apply_state(payload["state"], version=payload["version"])
            self._mirror_of[ref] = payload["origin"]
            self._publish_status_locked()
        return {"ok": True}

    def handle_replica_update(self, payload: dict[str, Any]) -> dict[str, Any]:
        ref = self._ref(payload)
        with self._mutex:
            try:
                entity = self._entity(ref)
            except Exception:
                return {"ok": False, "error": "unknown-object"}
            if payload["version"] > entity.version:
                entity.apply_state(payload["state"], version=payload["version"])
                self._mirror_of[ref] = payload["origin"]
                applied = True
            else:
                applied = False  # stale propagation overtaken by a newer write
            self._publish_status_locked()
        return {"ok": True, "applied": applied}

    # ------------------------------------------------------------------
    # reconciliation frames (driver-coordinated)
    # ------------------------------------------------------------------
    def handle_state_dump(self, payload: dict[str, Any]) -> dict[str, Any]:
        objects = {}
        with self._mutex:
            replication = self.cluster.replication
            if replication is not None:
                for class_name in replication.replicated_classes():
                    for ref in replication.refs_of_class(class_name):
                        entity = self._entity(ref)
                        objects[f"{ref.class_name}|{ref.oid}"] = {
                            "cls": ref.class_name,
                            "oid": ref.oid,
                            "state": entity.state(),
                            "version": entity.version,
                            "mirror_of": self._mirror_of.get(ref),
                        }
            store = self.cluster.threat_stores[self.name]
            return {
                "ok": True,
                "node": self.name,
                "objects": objects,
                "threats": store.count_identities(),
                "stored": store.stored_records(),
                "temp_primary": self.staleness.flag,
            }

    def handle_state_apply(self, payload: dict[str, Any]) -> dict[str, Any]:
        applied = 0
        with self._mutex:
            for entry in payload["objects"].values():
                ref = ObjectRef(entry["cls"], entry["oid"])
                try:
                    entity = self._entity(ref)
                except Exception:
                    self.cluster.create_entity(self.name, entry["cls"], entry["oid"], entry["state"])
                    entity = self._entity(ref)
                entity.apply_state(entry["state"], version=entry["version"])
                self._mirror_of.pop(ref, None)
                applied += 1
            self._publish_status_locked()
        return {"ok": True, "applied": applied}

    def handle_revalidate(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Run the constraint phase of reconciliation on merged state (§4.4).

        Runs after ``state-apply``: the temporary-primary flag drops, so
        the CCMgr validates against full-consistency semantics again.
        Genuine violations go to the rebooking clean-up handler; a repair
        that re-validates is what the driver re-broadcasts.
        """
        handler = RebookingReconciliationHandler(self._entity)
        report = ReconciliationReport()
        with self._mutex:
            # Demote inside the mutex: the flag write races another
            # connection's degraded/threat reads if it happens outside.
            self.staleness.flag = False
            self.cluster.reconciliation.reconcile_constraints(
                frozenset({self.name}), handler, report
            )
            self._publish_status_locked()
        return {
            "ok": True,
            "node": self.name,
            "threats_reevaluated": report.threats_reevaluated,
            "satisfied_removed": report.satisfied_removed,
            "resolved_by_handler": report.resolved_by_handler,
            "deferred": report.deferred,
            "rebooked": [
                [f"{ref.class_name}|{ref.oid}", count]
                for ref, count in handler.rebooked
            ],
        }

    # ------------------------------------------------------------------
    # liveness (never takes the mutex)
    # ------------------------------------------------------------------
    def handle_status(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Answer from the published snapshot, never from the cluster:
        another connection's handler may be mid-mutation under ``_mutex``."""
        # replint: ignore[CONC001] - atomic reference read of the
        # immutable snapshot published under _mutex.
        published = self._published
        return {
            "ok": True,
            "node": self.name,
            "primary": self.primary,
            **published,
        }

    # ------------------------------------------------------------------
    # server
    # ------------------------------------------------------------------
    def _handle(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The answer to one frame; a handler's exception becomes an error reply."""
        kind = payload.get("kind", "")
        try:
            if kind == "invoke":
                return self.handle_invoke(payload)
            if kind == "replica-update":
                return self.handle_replica_update(payload)
            if kind == "ping":
                return {"ok": True, "kind": "pong", "node": self.name}
            if kind == "status":
                return self.handle_status(payload)
            if kind == "create":
                return self.handle_create(payload)
            if kind == "replica-create":
                return self.handle_replica_create(payload)
            if kind == "state-dump":
                return self.handle_state_dump(payload)
            if kind == "state-apply":
                return self.handle_state_apply(payload)
            if kind == "revalidate":
                return self.handle_revalidate(payload)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            return {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        return {"ok": False, "error": f"unknown frame kind {kind!r}"}

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer one inbound connection's frames in order until it closes.

        Anything that is not a whole frame — EOF, a truncated header or
        body, an oversized or undecodable one — ends this connection
        only.
        """
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                payload = frames.read_frame(conn)
                if payload.get("kind") == "shutdown":
                    frames.write_frame(conn, {"ok": True, "node": self.name})
                    self._shutdown.set()
                    return
                frames.write_frame(conn, self._handle(payload))
        except (OSError, frames.FrameError):
            pass
        finally:
            with self._inbound_lock:
                self._inbound.discard(conn)
            conn.close()

    def _accept(self, listener: socket.socket) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                # A connection that failed before it was accepted costs
                # only itself; after shutdown the loop condition ends it.
                continue
            with self._inbound_lock:
                self._inbound.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _probe_peers(self, interval: float) -> None:
        while not self._shutdown.is_set():
            for peer in sorted(self.peers):
                self._peer_request(peer, {"kind": "ping"})
            self._shutdown.wait(interval)

    def serve(self, probe_interval: float = 0.5) -> None:
        listener = socket.create_server(("127.0.0.1", self.port))
        acceptor = threading.Thread(target=self._accept, args=(listener,), daemon=True)
        acceptor.start()
        threading.Thread(
            target=self._probe_peers, args=(probe_interval,), daemon=True
        ).start()
        try:
            self._shutdown.wait()
        finally:
            self._shutdown.set()  # ends the accept loop, also after an interrupt
            # shutdown() wakes the blocked accept(); close() alone does not.
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            acceptor.join()
            # Peers and the driver keep their connections open between
            # frames: hang up on them rather than leave them to the exit.
            with self._inbound_lock:
                for conn in self._inbound:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass  # the peer has already reset it
            self.cluster.close()


# ----------------------------------------------------------------------
# the template every worker is forked from
# ----------------------------------------------------------------------
#: ``madvise`` advice that faults a range in as if written (Linux 5.14 and
#: later; a kernel that does not know it refuses the call).
_MADV_POPULATE_WRITE = 23


def warm_up() -> None:
    """Make, once, every import a worker makes: build and discard a
    worker, and resolve a numeric address as a worker's first connect
    does (which loads the resolver's ``idna`` codec)."""
    WorkerNode("warm-up", 0, {}).cluster.close()
    socket.getaddrinfo("127.0.0.1", 0)


def _copy_private_pages() -> None:
    """Fault in, written, every private writable mapping of this process.

    Right after a fork those pages are still the template's, and each
    first write would copy one inside whatever frame makes it.  A refused
    call (an older kernel, a mapping that cannot be populated) is skipped.
    """
    madvise = ctypes.CDLL(None).madvise
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    try:
        with open("/proc/self/maps") as maps:
            mappings = [line.split(None, 2)[:2] for line in maps]
    except FileNotFoundError:
        return  # not Linux: pages are copied on first write
    for span, perms in mappings:
        if perms == "rw-p":
            start, end = (int(bound, 16) for bound in span.split("-"))
            madvise(start, end - start, _MADV_POPULATE_WRITE)


def _serve_forked(spec: dict[str, Any]) -> NoReturn:
    """The whole life of a forked worker; it never returns to the template."""
    code = 1
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(devnull, fd)
        os.close(devnull)
        _copy_private_pages()
        peers = {peer: (host, port) for peer, (host, port) in spec["peers"].items()}
        worker = WorkerNode(spec["name"], spec["port"], peers, primary=spec["primary"])
        worker.serve(spec["probe_interval"])
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, timeout: float | None) -> int | None:
    """A child's exit code (``-signal`` if a signal ended it) once it has
    exited, or ``None`` if it still runs after ``timeout`` seconds."""
    if timeout is None:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    deadline = read_monotonic() + timeout
    delay = 0.0005
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        remaining = deadline - read_monotonic()
        if remaining <= 0:
            return None
        time.sleep(min(delay, remaining))
        delay = min(2 * delay, 0.05)


def serve_template(requests: IO[str], answers: IO[str]) -> None:
    """Warm up, then fork workers on request: one JSON line in, one out.

    ``{"spawn": {"name", "port", "peers", "primary", "probe_interval"}}``
    forks a worker and answers ``{"pid": pid}``.  ``{"wait": pid,
    "timeout": seconds}`` (``null``: as long as it takes) answers
    ``{"returncode": code}``, ``null`` while the worker still runs; a
    reported worker is reaped, so the driver asks about it no more.  At
    EOF every worker still running is killed and reaped.
    """
    warm_up()
    running: set[int] = set()
    try:
        for line in requests:
            request = json.loads(line)
            if "spawn" in request:
                pid = os.fork()
                if pid == 0:
                    _serve_forked(request["spawn"])
                running.add(pid)
                answer: dict[str, Any] = {"pid": pid}
            else:
                code = _reap(request["wait"], request["timeout"])
                if code is not None:
                    running.discard(request["wait"])
                answer = {"returncode": code}
            answers.write(json.dumps(answer) + "\n")
            answers.flush()
    finally:
        for pid in sorted(running):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


if __name__ == "__main__":
    serve_template(sys.stdin, sys.stdout)
