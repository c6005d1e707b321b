"""One DeDiSys node as an OS process speaking frames over local TCP.

``python -m repro.transport.procnode --node b --port 7001 \
    --peers a=127.0.0.1:7000,c=127.0.0.1:7002 --primary a``

Each worker hosts a *single-node* :class:`~repro.cluster.DedisysCluster`
— the real CCMgr, threat store, negotiator, and transaction manager, not
a re-implementation — and bridges it to its peers with the frame
protocol from :mod:`repro.transport.frames`:

* the first node in sorted order (or ``--primary``) is the designated
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
  forwarded write is applied at most once.  Liveness is refreshed by
  every real write and by the probe loop (``--probe-interval``), not by
  reads;
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
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
from typing import Any

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
    backend when a write lands on a temporary primary.
    """

    def __init__(self) -> None:
        self.flag = False  # guarded-by: _mutex

    def is_possibly_stale(self, entity: Any) -> bool:
        # replint: ignore[CONC001] - lock-free bool read: on the process
        # backend every CCMgr entry point already holds WorkerNode._mutex;
        # the sim/asyncio backends call through CCMgr with no process
        # mutex in scope, so requiring it here statically is impossible.
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
        self.staleness = ProcessStaleness()
        # Copy-on-write: _set_peer_up replaces the dict wholesale, so
        # lock-free readers always see a coherent liveness snapshot.
        self.peer_up = {peer: True for peer in peers}  # guarded-by: _mutex
        # Objects whose current state a peer's replica frame wrote, and
        # which peer: this copy is that peer's mirror, so a merge must
        # not count both.  Any state written here clears the entry.
        self._mirror_of: dict[ObjectRef, str] = {}  # guarded-by: _mutex
        self.cluster = DedisysCluster(ClusterConfig(node_ids=(name,)))
        self.cluster.deploy(Flight)
        self.cluster.register_constraint(ticket_constraint_registration())
        for ccmgr in self.cluster.ccmgrs.values():
            ccmgr.staleness = self.staleness
        # Guards all cluster access; never held across a network call.
        self._mutex = threading.RLock()
        self._shutdown = threading.Event()
        # Open inbound connections, hung up on shutdown.
        self._inbound_lock = threading.Lock()
        self._inbound: set[socket.socket] = set()  # guarded-by: _inbound_lock
        # Immutable snapshot served by handle_status without the mutex;
        # rebuilt (never mutated) by _publish_status_locked under _mutex
        # after every state change the status answer can observe.
        self._published: dict[str, Any] = {}  # guarded-by: _mutex
        with self._mutex:
            self._publish_status_locked()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        return self.name == self.primary

    @property
    def degraded(self) -> bool:
        return self.staleness.flag or not all(self.peer_up.values())

    def _publish_status_locked(self) -> None:
        """Rebuild the status snapshot; every caller holds ``_mutex``.

        ``handle_status`` must answer while another connection's handler
        holds the mutex, so it does not take it — it reads this immutable
        dict instead, which is replaced (never mutated) here.
        """
        store = self.cluster.threat_stores[self.name]
        self._published = {
            "degraded": self.degraded,
            "temp_primary": self.staleness.flag,
            "peer_up": dict(sorted(self.peer_up.items())),
            "threats": store.count_identities(),
            "stored": store.stored_records(),
        }

    def _ref(self, payload: dict[str, Any]) -> ObjectRef:
        return ObjectRef(payload["cls"], payload["oid"])

    def _entity(self, ref: ObjectRef) -> Any:
        return self.cluster.entity_on(self.name, ref)

    def _set_peer_up(self, peer: str, up: bool) -> None:
        """Record peer liveness: copy-on-write rebuild under the mutex.

        Taken *after* the network call returns, so the mutex is still
        never held across a frame exchange.  The common case — the peer
        is as alive as it was — changes nothing the status snapshot
        shows, so it rebuilds nothing.
        """
        with self._mutex:
            if self.peer_up.get(peer) == up:
                return
            self.peer_up = {**self.peer_up, peer: up}
            self._publish_status_locked()

    def _peer_request(self, peer: str, payload: dict[str, Any]) -> dict[str, Any] | None:
        """Frame exchange with a peer; ``None`` marks it unreachable."""
        host, port = self.peers[peer]
        try:
            reply = frames.request(host, port, payload, timeout=PEER_TIMEOUT)
        except (OSError, frames.FrameError):
            reply = None
        if reply is None or reply.get("error") == ForwardExpired.__name__:
            self._set_peer_up(peer, False)
            return None
        self._set_peer_up(peer, True)
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
            # Degradation state and the threat count must come from one
            # coherent view — reading them outside the mutex could pair a
            # pre-promotion flag with a post-promotion threat count.
            store = self.cluster.threat_stores[self.name]
            threats = store.count_identities()
            degraded = self.degraded
            self._publish_status_locked()
        return {
            "ok": True,
            "result": result,
            "served_by": self.name,
            "degraded": degraded,
            "threats": threats,
        }

    def _forward_to_acting_primary(self, payload: dict[str, Any]) -> dict[str, Any] | None:
        """Route a write to the acting primary; ``None`` = serve locally.

        P4 elects exactly one temporary primary per partition.  The
        deterministic choice is the lowest node id among the nodes this
        worker believes alive: first the designated primary, then each
        live lower-id peer.  Only when every one of them is unreachable
        does this worker promote itself — flipping the staleness flag so
        the CCMgr degrades until the driver reconciles (§4.1).
        """
        # replint: ignore[CONC001] - atomic snapshot read: peer_up is
        # rebuilt copy-on-write under _mutex, and routing on liveness a
        # probe is about to refresh is inherently best-effort anyway.
        alive = self.peer_up
        candidates = [self.primary] + [
            peer
            for peer in sorted(self.peers)
            if peer < self.name and peer != self.primary and alive.get(peer, False)
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
            # replint: ignore[CONC004] - the call graph reaches the
            # threaded channel's Future.result() through _broadcast_state,
            # but this cluster is one node on the sim transport: the
            # multicast has no recipient and nothing blocks.
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
        """Answer from the published snapshot — never touch the cluster.

        Another connection's handler may be mid-mutation under
        ``_mutex``; reading the threat store or liveness dicts directly
        would race it (an earlier implementation did exactly that).  The
        snapshot is an immutable dict replaced under ``_mutex``, so the
        lone reference read below is atomic and coherent.
        """
        # replint: ignore[CONC001] - atomic reference read of the
        # immutable snapshot published under _mutex; see docstring.
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
        print(f"READY {self.name} {self.port}", flush=True)
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


def parse_peers(spec: str) -> dict[str, tuple[str, int]]:
    peers: dict[str, tuple[str, int]] = {}
    if not spec:
        return peers
    for item in spec.split(","):
        name, _, addr = item.partition("=")
        host, _, port = addr.rpartition(":")
        peers[name] = (host or "127.0.0.1", int(port))
    return peers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--node", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--peers", default="", help="name=host:port,name=host:port")
    parser.add_argument("--primary", default=None)
    parser.add_argument("--probe-interval", type=float, default=0.5)
    args = parser.parse_args(argv)
    worker = WorkerNode(
        args.node, args.port, parse_peers(args.peers), primary=args.primary
    )
    worker.serve(args.probe_interval)
    return 0


if __name__ == "__main__":
    sys.exit(main())
