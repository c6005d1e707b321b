"""In-process threaded backend: a worker pool per node, and wall time.

Each node is a small **thread pool** whose FIFO work queue is the node's
mailbox.  A ``send`` from a client thread or from another node's handler
submits the message to the destination's pool and blocks on the returned
future; one of the destination's own threads runs the handler, so nested
synchronous sends — the primary multicasting an update from inside a
server-chain handler — re-enter a node on another of its workers (up to
``_NODE_WORKERS`` deep).  That is two thread hand-offs per message:
sender → node worker → sender.

There is no event loop here.  ``asyncio`` in the module, class and
``transport="asyncio"`` names is a kept identifier (callers, benchmark
workloads and metric names are pinned to it), not a description.

The failure model is the shared :class:`~repro.net.topology.Topology`:
``partition`` / ``crash_node`` / ``fail_link`` work exactly as on the
simulator, but they are enforced *at the delivery layer* — a message
whose source→destination route crosses a failed link is refused before it
reaches the mailbox, surfacing the same :class:`UnreachableError` a real
socket reset would.  A point-to-point ``send`` passes the shared
:meth:`~repro.net.network.Network._admit`, so injected link faults act on
it as on the simulator (a delay is a real ``time.sleep`` on the sender);
group-channel deliveries bypass it, on either backend.

What this backend intentionally does **not** give: determinism.  Message
arrival interleaves with real timers (failure-detector heartbeats,
adaptation ticks) and OS scheduling; traces are real but not replayable.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..net import GroupChannel, Message, NodeCrashedError, NodeId, UnreachableError
from ..net.network import Network
from ..sim import CostModel
from .base import Transport
from .wallclock import RealScheduler, WallClock

#: Handler namespaces: point-to-point sends vs group-channel deliveries.
_P2P = "p2p"
_MEMBER = "member"

#: Per-node executor width: bounds nested re-entrant delivery depth (a
#: handler on A sending to B whose handler calls back into A).
_NODE_WORKERS = 4


class AsyncioNetwork(Network):
    """Mailbox-per-node message substrate: one worker pool per node."""

    def __init__(
        self,
        nodes: Sequence[NodeId],
        scheduler: RealScheduler,
        costs: CostModel | None = None,
        seed: int = 0,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        super().__init__(nodes, scheduler, costs=costs, seed=seed, obs=obs)
        self.request_timeout = request_timeout
        # Copy-on-write: mutators rebuild the whole two-level dict under
        # the lock, so member_nodes() can read a coherent snapshot without
        # taking it.
        self._handlers: dict[str, dict[NodeId, Callable[[Message], Any]]] = {  # guarded-by: _handlers_lock
            _P2P: {},
            _MEMBER: {},
        }
        self._handlers_lock = threading.Lock()
        # Client threads and node workers deliver at once, and counting a
        # delivery is a read-modify-write.
        self.delivered_count = 0  # guarded-by: _delivered_lock
        self._delivered_lock = threading.Lock()
        # One pool per node: its FIFO work queue is the node's mailbox,
        # its threads are the node (started lazily, on first delivery).
        self._executors: dict[NodeId, ThreadPoolExecutor] = {
            node: ThreadPoolExecutor(
                max_workers=_NODE_WORKERS, thread_name_prefix=f"repro-node-{node}"
            )
            for node in self.nodes
        }
        self._closed = False  # guarded-by: _close_lock
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # handlers (SimNetwork surface)
    # ------------------------------------------------------------------
    def register_handler(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        self._require_node(node)
        self._mutate_handlers(_P2P, node, handler)

    def register_member_handler(
        self, node: NodeId, handler: Callable[[Message], Any]
    ) -> None:
        """Group-channel delivery handler (the channel's ``join``)."""
        self._require_node(node)
        self._mutate_handlers(_MEMBER, node, handler)

    def remove_member_handler(self, node: NodeId) -> None:
        self._mutate_handlers(_MEMBER, node, None)

    def _mutate_handlers(
        self, ns: str, node: NodeId, handler: Callable[[Message], Any] | None
    ) -> None:
        """Rebuild the handler table copy-on-write (``None`` removes).

        Members join and leave from handler threads while other nodes'
        workers dispatch; replacing the outer dict wholesale means every
        reader sees either the old or the new table, never a dict
        mid-mutation.
        """
        with self._handlers_lock:
            updated = dict(self._handlers[ns])
            if handler is None:
                updated.pop(node, None)
            else:
                updated[node] = handler
            self._handlers = {**self._handlers, ns: updated}

    def member_nodes(self) -> tuple[NodeId, ...]:
        # replint: ignore[CONC001] - lock-free read of the copy-on-write
        # handler table: the reference swap in _mutate_handlers is atomic
        # under the GIL and the snapshot is never mutated in place.
        return tuple(sorted(self._handlers[_MEMBER]))

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any = None
    ) -> Any:
        """Deliver a message through the destination's mailbox and block
        for the handler result — same synchronous RPC contract as the
        simulator, same error surface, but the handler runs on one of the
        destination node's own threads."""
        message, duplicates = self._admit(source, destination, kind, payload)
        result = self._post(message, _P2P)
        for _ in range(duplicates):
            self._post(message, _P2P)
        return result

    def deliver_member(
        self, source: NodeId, destination: NodeId, kind: str, payload: Any = None
    ) -> Any:
        """One group-channel delivery (used by :class:`AsyncioGroupChannel`):
        no admission, only a re-check that neither end crashed or partitioned
        away since the round's recipient snapshot."""
        if source in self._crashed:
            self._drop(source, destination, kind, "source-crashed")
            raise NodeCrashedError(source)
        if not self.reachable(source, destination):
            self._drop(source, destination, kind, "unreachable")
            raise UnreachableError(source, destination)
        return self._post(Message(source, destination, kind, payload), _MEMBER)

    def _delay(self, seconds: float) -> None:
        # A delayed link really delays the sender: the middleware's sends
        # are synchronous round trips.
        time.sleep(seconds)

    def _post(self, message: Message, ns: str) -> Any:
        """Queue onto the destination node's workers; block for the result.

        Two thread hand-offs per message: sender → node worker, and the
        worker's reply back.  The sending thread — a client thread or
        another node's handler — blocks on the future ``submit`` returns.
        """
        # replint: ignore[CONC001] - lock-free flag read: a bool load is
        # atomic under the GIL, and a send that slips past an in-flight
        # close() is refused or cancelled by the executor just below.
        if self._closed:
            raise RuntimeError("network is closed")
        with self._delivered_lock:
            self._note_delivery(message)
        try:
            future = self._executors[message.destination].submit(
                self._dispatch, message, ns
            )
        except RuntimeError:
            # The pool refuses work once close() has shut it down.
            raise RuntimeError("network is closed") from None
        try:
            return future.result(timeout=self.request_timeout)
        except concurrent.futures.TimeoutError:
            # Indistinguishable from a lost message at the sender (§1.1).
            self._drop(message.source, message.destination, message.kind, "timeout")
            raise UnreachableError(message.source, message.destination) from None
        except concurrent.futures.CancelledError:
            # close() emptied the mailbox before a worker got to this one.
            raise RuntimeError("network is closed") from None

    def _dispatch(self, message: Message, ns: str) -> Any:
        """Run the destination's handler; executes on that node's worker.

        Whatever this raises reaches the blocked sender through the future.
        """
        node = message.destination
        if node in self._crashed:
            # Crashed between enqueue and dispatch: the frame dies in the
            # socket buffer, the sender sees an unreachable peer.
            raise UnreachableError(message.source, node)
        with self._handlers_lock:
            handler = self._handlers[ns].get(node)
        if handler is None:
            return None
        return handler(message)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._close_lock:
            # Check-then-act under the lock: two racing close() calls
            # must not both run the teardown sequence below.
            if self._closed:
                return
            self._closed = True
        # Running handlers finish and answer their senders; queued frames
        # are cancelled (their senders get "network is closed"); the
        # worker threads then exit on their own.
        for executor in self._executors.values():
            executor.shutdown(wait=False, cancel_futures=True)


class AsyncioGroupChannel(GroupChannel):
    """View-synchronous multicast over the threaded backend.

    Same contract and round prologue as its base.  Handlers live in the
    network's table so each delivery runs on the member's own worker;
    partitions and crashes shape the recipient set, link faults do not.
    """

    network: AsyncioNetwork

    def join(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        self.network.register_member_handler(node, handler)

    def leave(self, node: NodeId) -> None:
        self.network.remove_member_handler(node)

    @property
    def members(self) -> tuple[NodeId, ...]:
        return self.network.member_nodes()

    def multicast(
        self,
        source: NodeId,
        kind: str,
        payload: Any = None,
        await_acks: bool = True,
    ) -> dict[NodeId, Any]:
        recipients = self._recipients(source)
        self._record_round(source, kind, payload, recipients, await_acks)
        replies: dict[NodeId, Any] = {}
        for node in recipients:
            # A member may crash or partition away mid-round; like the
            # Spread analogue, earlier recipients keep their delivery and
            # the failed one simply produces no reply.
            try:
                replies[node] = self.network.deliver_member(source, node, kind, payload)
            except (UnreachableError, NodeCrashedError):
                continue
        return replies


class AsyncioTransport(Transport):
    """In-process wall-clock substrate: per-node threads + real timers."""

    name = "asyncio"
    deterministic = False

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        costs: CostModel | None = None,
        seed: int = 0,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        self.clock = WallClock()
        self.scheduler = RealScheduler(self.clock)
        self.network = AsyncioNetwork(
            node_ids,
            scheduler=self.scheduler,
            costs=costs,
            seed=seed,
            obs=obs,
            request_timeout=request_timeout,
        )
        # The middleware stack is not thread-safe; top-level business
        # transactions from concurrent client threads serialize here while
        # delivery, timers, and detection stay genuinely concurrent.
        self._tx_lock = threading.RLock()

    def make_channel(self, group: str = "dedisys") -> AsyncioGroupChannel:
        return AsyncioGroupChannel(self.network, group)

    def tx_guard(self) -> Any:
        return self._tx_lock

    def settle(self, seconds: float) -> None:
        time.sleep(seconds)

    def close(self) -> None:
        self.network.close()
        self.scheduler.close()
