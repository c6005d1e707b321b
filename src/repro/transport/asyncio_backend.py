"""In-process threaded backend: a mailbox per node, on the sim clock.

Each node is a **mailbox** — a FIFO ``collections.deque`` of requests
and one ``os.pipe()`` that carries a wake byte per request — served by
``_NODE_WORKERS`` daemon threads, started at the node's first delivery.
A ``send`` from a client thread or from another node's handler appends
the message to the destination's mailbox together with a fresh reply
cell and writes one byte to the mailbox pipe; one of the node's
workers, blocked reading that pipe, runs the handler, fills the cell and
writes one byte to the sending thread's own **reply pipe**, on which the
sender waits in ``poll`` for at most ``request_timeout``.  Nested
synchronous sends — the primary multicasting an update from inside a
server-chain handler — re-enter a node on another of its workers (up to
``_NODE_WORKERS`` deep).  That is two thread hand-offs per message:
sender → node worker → sender.

The pipes are there for the GIL, not for the bytes.  A lock release or
a queue put wakes the peer while the waker still holds the GIL, so on a
busy CPU the woken thread runs, finds the GIL taken and sleeps again;
``os.write``, ``os.read`` and ``poll`` let go of the GIL before they
wake anyone or block, so the woken thread finds it free.  Each pipe is
owned by one object (:class:`_Pipe`) and closed when that object's last
holder lets go of it: a mailbox is held by its node's workers and by
each sender while it posts, a reply pipe by its thread and by every
request it sent that is still unanswered, so no descriptor is closed
while a thread can still write to it.

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
it as on the simulator; group-channel deliveries bypass it, on either
backend.

Time is the simulator's: a :class:`~repro.sim.clock.SimClock` that
charged costs move, and a :class:`~repro.sim.scheduler.Scheduler` that
fires timers (heartbeats, scripted faults) only when a caller drives it
(a ``drain`` or ``run_until``).  Every chain that
charges runs under the transaction guard, so one thread at a time moves
the clock, and a scenario replayed here ends at the same simulated time
as on the simulator.  What the threads add is real concurrency between client
threads and node workers, not a second notion of time.
"""

from __future__ import annotations

import os
import select
import threading
from collections import deque
from typing import Any, Callable, Sequence

from ..net import GroupChannel, Message, NodeCrashedError, NodeId, UnreachableError
from ..net.network import Network
from ..sim import CostModel, Scheduler, SimClock
from .base import Transport
from .wallclock import read_monotonic

#: Handler namespaces: point-to-point sends vs group-channel deliveries.
_P2P = "p2p"
_MEMBER = "member"

#: Threads per node: bounds nested re-entrant delivery depth (a handler on
#: A sending to B whose handler calls back into A).
_NODE_WORKERS = 4


class _Pipe:
    """One ``os.pipe()``, closed when the last reference to it goes."""

    _fds: tuple[int, ...] = ()  # until os.pipe() returns

    def __init__(self) -> None:
        self._fds = self.read_fd, self.write_fd = os.pipe()

    def wake(self) -> None:
        os.write(self.write_fd, b"\0")

    def __del__(self) -> None:
        for fd in self._fds:
            os.close(fd)


class _Mailbox(_Pipe):
    """A node's requests, one wake byte each for its workers."""

    def __init__(self) -> None:
        super().__init__()
        # (message, ns, reply cell, reply pipe), or None: a worker's stop.
        self.pending: deque = deque()


class _ReplyPipe(_Pipe):
    """A sending thread's own wake-up: one per thread, for all its sends."""

    def __init__(self) -> None:
        super().__init__()
        self._poll = select.poll()
        self._poll.register(self.read_fd, select.POLLIN)

    def wait(self, reply: list, timeout: float) -> bool:
        """Wait until ``reply`` is filled; False after ``timeout`` seconds.

        A byte may be stale — the late answer to an earlier request of
        this thread that timed out — so a wake counts only once ``reply``
        holds something, and the deadline stays where it started.
        """
        deadline = read_monotonic() + timeout
        while True:
            if not self._poll.poll(timeout * 1000.0):
                return bool(reply)
            os.read(self.read_fd, 4096)
            if reply:
                return True
            timeout = deadline - read_monotonic()
            if timeout <= 0:
                return False


_threads = threading.local()


def _reply_pipe() -> _ReplyPipe:
    """The calling thread's reply pipe; it closes when the thread ends."""
    try:
        return _threads.reply_pipe
    except AttributeError:
        pipe = _threads.reply_pipe = _ReplyPipe()
        return pipe


class AsyncioNetwork(Network):
    """Mailbox-per-node message substrate: four worker threads per node."""

    def __init__(
        self,
        nodes: Sequence[NodeId],
        scheduler: Scheduler,
        costs: CostModel | None = None,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        super().__init__(nodes, scheduler, costs=costs, obs=obs)
        self.request_timeout = request_timeout
        # Copy-on-write: mutators rebuild the whole two-level dict under
        # the lock, so readers take a coherent snapshot without it.
        self._handlers: dict[str, dict[NodeId, Callable[[Message], Any]]] = {  # guarded-by: _handlers_lock
            _P2P: {},
            _MEMBER: {},
        }
        self._handlers_lock = threading.Lock()
        # A node's mailbox and its threads appear at its first delivery.
        # Every append checks ``_closed`` under the lock, so none lands
        # after close()'s drain; client threads and node workers deliver
        # at once, so the count of deliveries is kept under it too.
        self._mailboxes: dict[NodeId, _Mailbox] = {}  # guarded-by: _close_lock
        self._closed = False  # guarded-by: _close_lock
        self.delivered_count = 0  # guarded-by: _close_lock
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

    def _mutate_handlers(
        self, ns: str, node: NodeId, handler: Callable[[Message], Any]
    ) -> None:
        """Rebuild the handler table copy-on-write.

        Members join from handler threads while other nodes' workers
        dispatch; replacing the outer dict wholesale means every reader
        sees either the old or the new table, never a dict mid-mutation.
        """
        with self._handlers_lock:
            updated = dict(self._handlers[ns])
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
        if source in self.crashed:
            self._drop(source, destination, kind, "source-crashed")
            raise NodeCrashedError(source)
        if not self.reachable(source, destination):
            self._drop(source, destination, kind, "unreachable")
            raise UnreachableError(source, destination)
        return self._post(Message(source, destination, kind, payload), _MEMBER)

    def _post(self, message: Message, ns: str) -> Any:
        """Append to the destination node's mailbox; block for the reply.

        Two thread hand-offs per message: the mailbox byte wakes a node
        worker, and the worker's byte on the sender's reply pipe wakes
        the sender — a client thread or another node's handler.  Each
        request has its own reply cell, so a reply that arrives after its
        sender timed out reaches nobody.
        """
        reply: list = []
        reply_pipe = _reply_pipe()
        node = message.destination
        with self._close_lock:
            if self._closed:
                raise RuntimeError("network is closed")
            mailbox = self._mailboxes.get(node)
            if mailbox is None:
                mailbox = self._mailboxes[node] = self._open_mailbox(node)
            mailbox.pending.append((message, ns, reply, reply_pipe))
            self._note_delivery(message)
        mailbox.wake()
        if not reply_pipe.wait(reply, self.request_timeout):
            # Indistinguishable from a lost message at the sender (§1.1).
            self._drop(message.source, node, message.kind, "timeout")
            raise UnreachableError(message.source, node)
        ok, value = reply[0]
        if ok:
            return value
        raise value

    def _open_mailbox(self, node: NodeId) -> _Mailbox:
        mailbox = _Mailbox()
        for index in range(_NODE_WORKERS):
            threading.Thread(
                target=self._serve,
                args=(mailbox,),
                name=f"repro-node-{node}_{index}",
                daemon=True,
            ).start()
        return mailbox

    def _serve(self, mailbox: _Mailbox) -> None:
        """A node worker: answer requests until close() appends ``None``."""
        read_fd, pending = mailbox.read_fd, mailbox.pending
        while True:
            os.read(read_fd, 1)
            try:
                request = pending.popleft()
            except IndexError:
                continue  # the byte of a request close() already failed
            if request is None:
                return
            message, ns, reply, reply_pipe = request
            reply.append(self._dispatch(message, ns))
            reply_pipe.wake()

    def _dispatch(self, message: Message, ns: str) -> tuple[bool, Any]:
        """Run the destination's handler; executes on that node's worker.

        Returns the reply ``(ok, value)``: whatever the handler raises
        reaches the blocked sender as raised.
        """
        node = message.destination
        try:
            if node in self.crashed:
                # Crashed between enqueue and dispatch: the frame dies in
                # the socket buffer, the sender sees an unreachable peer.
                raise UnreachableError(message.source, node)
            # replint: ignore[CONC001] - lock-free read of the copy-on-write
            # handler table: the reference swap in _mutate_handlers is atomic
            # under the GIL and the snapshot is never mutated in place.
            handler = self._handlers[ns].get(node)
            return True, None if handler is None else handler(message)
        except BaseException as exc:  # noqa: BLE001 - travels to the sender
            return False, exc

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
            mailboxes = list(self._mailboxes.values())
            # The workers and the senders still posting hold the
            # mailboxes now; each pipe closes when the last of them ends.
            self._mailboxes.clear()
        # No append follows the flag.  Running handlers finish and answer
        # their senders; queued requests are failed (their senders get
        # "network is closed"); each worker then takes a ``None`` and exits.
        for mailbox in mailboxes:
            pending = mailbox.pending
            while True:
                try:
                    _, _, reply, reply_pipe = pending.popleft()
                except IndexError:
                    break
                reply.append((False, RuntimeError("network is closed")))
                reply_pipe.wake()
            for _ in range(_NODE_WORKERS):
                pending.append(None)
                mailbox.wake()


class AsyncioGroupChannel(GroupChannel):
    """View-synchronous multicast over the threaded backend.

    Same contract and round prologue as its base.  Handlers live in the
    network's table so each delivery runs on the member's own worker;
    partitions and crashes shape the recipient set, link faults do not.
    """

    network: AsyncioNetwork

    def __init__(self, network: AsyncioNetwork) -> None:
        # No handler table of its own: members live in the network's.
        self.network = network
        self.obs = network.obs

    def join(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        self.network.register_member_handler(node, handler)

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
        recipients = self._begin_round(source, kind, payload, await_acks)
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
    """In-process threaded substrate: per-node threads on the sim clock."""

    name = "asyncio"

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        costs: CostModel | None = None,
        obs: Any = None,
        request_timeout: float = 10.0,
    ) -> None:
        self.clock = SimClock()
        self.scheduler = Scheduler(self.clock)
        self.network = AsyncioNetwork(
            node_ids,
            scheduler=self.scheduler,
            costs=costs,
            obs=obs,
            request_timeout=request_timeout,
        )
        # The middleware stack is not thread-safe; top-level business
        # transactions from concurrent client threads serialize here, and
        # with them every chain that charges the clock, while delivery
        # stays on the nodes' own threads.
        self._tx_lock = threading.RLock()

    def make_channel(self) -> AsyncioGroupChannel:
        return AsyncioGroupChannel(self.network)

    def tx_guard(self) -> Any:
        return self._tx_lock

    def close(self) -> None:
        self.network.close()
