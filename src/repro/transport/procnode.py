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

Concurrency: frames arrive on an asyncio server, but all middleware
work runs on two single-width executors — ``ops`` for client-facing
writes, ``repl`` for peer replica traffic — with a mutex around cluster
access that is *never held across a network call*.  That keeps the
single-node cluster effectively single-threaded while letting a
forwarded write and the resulting inbound replica-update coexist
without deadlock.  ``ping``/``status`` answer directly on the loop so
liveness stays responsive mid-transaction.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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


async def async_read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF before a header starts."""
    try:
        header = await reader.readexactly(frames.HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise frames.FrameClosed("connection closed mid-header") from exc
    try:
        body = await reader.readexactly(frames.body_length(header))
    except asyncio.IncompleteReadError as exc:
        raise frames.FrameClosed("connection closed mid-body") from exc
    return frames.decode_body(body)


async def async_write_frame(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
    writer.write(frames.encode_frame(payload))
    await writer.drain()


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
        self._ops = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{name}-ops")
        self._repl = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{name}-repl")
        self._shutdown = asyncio.Event()
        # Open inbound connections; touched on the event loop only.
        self._inbound: set[asyncio.StreamWriter] = set()
        # Immutable snapshot served by handle_status on the event loop;
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

        ``handle_status`` answers directly on the event loop for liveness
        and therefore must not take the mutex — it reads this immutable
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
    # frame handlers (ops executor)
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
    # frame handlers (repl executor)
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
            # Demote inside the mutex: the flag write races the ops
            # executor's degraded/threat reads if it happens outside.
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
    # loop-side handlers (must not block)
    # ------------------------------------------------------------------
    def handle_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "kind": "pong", "node": self.name}

    def handle_status(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Answer from the published snapshot — never touch the cluster.

        This runs on the event loop; reading the threat store or liveness
        dicts directly would race the ops/repl executors mid-mutation
        (the old implementation did exactly that).  The snapshot is an
        immutable dict replaced under ``_mutex``, so the lone reference
        read below is atomic and coherent.
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
    async def _probe_peers(self, interval: float) -> None:
        loop = asyncio.get_running_loop()
        while not self._shutdown.is_set():
            for peer in sorted(self.peers):
                await loop.run_in_executor(
                    None, self._peer_request, peer, {"kind": "ping"}
                )
            try:
                await asyncio.wait_for(self._shutdown.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        self._inbound.add(writer)
        try:
            while True:
                try:
                    payload = await async_read_frame(reader)
                except frames.FrameError:
                    break
                if payload is None:
                    break
                kind = payload.get("kind", "")
                if kind == "ping":
                    reply = self.handle_ping(payload)
                elif kind == "status":
                    reply = self.handle_status(payload)
                elif kind == "shutdown":
                    reply = {"ok": True, "node": self.name}
                    await async_write_frame(writer, reply)
                    self._shutdown.set()
                    break
                else:
                    handler = {
                        "create": (self._ops, self.handle_create),
                        "invoke": (self._ops, self.handle_invoke),
                        "replica-create": (self._repl, self.handle_replica_create),
                        "replica-update": (self._repl, self.handle_replica_update),
                        "state-dump": (self._repl, self.handle_state_dump),
                        "state-apply": (self._repl, self.handle_state_apply),
                        "revalidate": (self._repl, self.handle_revalidate),
                    }.get(kind)
                    if handler is None:
                        reply = {"ok": False, "error": f"unknown frame kind {kind!r}"}
                    else:
                        executor, fn = handler
                        try:
                            reply = await loop.run_in_executor(executor, fn, payload)
                        except Exception as exc:  # noqa: BLE001 - report, don't die
                            reply = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
                await async_write_frame(writer, reply)
        finally:
            self._inbound.discard(writer)
            writer.close()

    async def serve(self, probe_interval: float = 0.5) -> None:
        server = await asyncio.start_server(self._serve_connection, "127.0.0.1", self.port)
        probe = asyncio.create_task(self._probe_peers(probe_interval))
        print(f"READY {self.name} {self.port}", flush=True)
        try:
            await self._shutdown.wait()
        finally:
            probe.cancel()
            server.close()
            # Peers and the driver keep their connections open between
            # frames; since Python 3.12 wait_closed() waits for every one
            # of them, so hang up first.
            for writer in list(self._inbound):
                writer.close()
            await server.wait_closed()
            self._ops.shutdown(wait=False)
            self._repl.shutdown(wait=False)
            # Cluster teardown can block (transport close joins threads);
            # run it off-loop so shutdown never wedges the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, self.cluster.close
            )


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
    asyncio.run(worker.serve(args.probe_interval))
    return 0


if __name__ == "__main__":
    sys.exit(main())
