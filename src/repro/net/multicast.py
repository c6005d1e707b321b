"""Group communication (Spread analogue).

The replication service of the paper multicasts update messages from the
primary to all backups via the Spread toolkit and waits synchronously for
confirmations (§4.3).  :class:`GroupChannel` models exactly that: a
multicast reaches every *reachable* group member, costs a base latency plus
a per-recipient increment, and returns the acknowledging members so the
caller knows which backups actually applied the update.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim import COSTS
from .messages import Message, NodeCrashedError, NodeId
from .network import Network, payload_size


class GroupChannel:
    """View-synchronous multicast over the simulated network.

    Reliable within the reachable membership: fault injectors model *link*
    faults and are never consulted.  Other backends subclass this, sharing
    the round prologue (:meth:`_begin_round`, which also charges the
    round) but not the delivery loop.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.obs = network.obs
        self._handlers: dict[NodeId, Callable[[Message], Any]] = {}
        self._members: tuple[NodeId, ...] = ()

    def join(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        """Register ``node`` as a group member with a delivery handler."""
        if node not in self.network.nodes:
            raise KeyError(f"unknown node {node!r}")
        self._handlers[node] = handler
        self._members = tuple(sorted(self._handlers))

    @property
    def members(self) -> tuple[NodeId, ...]:
        """The group in sorted order; changes only on ``join``."""
        return self._members

    def multicast(
        self,
        source: NodeId,
        kind: str,
        payload: Any = None,
        await_acks: bool = True,
    ) -> dict[NodeId, Any]:
        """Multicast to every reachable member; return replies by node.

        Only members in the sender's partition receive the message —
        exactly the behaviour that creates stale backups in other
        partitions.  The cost charged is ``multicast_base`` plus
        ``multicast_per_node`` per recipient, doubled when waiting for the
        synchronous confirmations the P4 protocol requires.

        Cost accounting is intentionally *up front and atomic*: the Spread
        analogue reserves the whole synchronous round when the message is
        handed to the toolkit, so a delivery handler raising (e.g.
        :class:`NodeCrashedError` for a recipient that crashed mid-round)
        does not refund the remaining deliveries — earlier recipients have
        already applied the message and the round's time has been spent.
        """
        recipients = self._begin_round(source, kind, payload, await_acks)
        handlers = self._handlers
        replies: dict[NodeId, Any] = {}
        for node in recipients:
            message = Message(source, node, kind, payload)
            replies[node] = handlers[node](message)
        return replies

    def _begin_round(
        self, source: NodeId, kind: str, payload: Any, await_acks: bool
    ) -> list[NodeId]:
        """The round prologue every backend shares: snapshot the
        recipients (every other reachable member), charge the whole
        round, then record its one ``multicast`` event, which covers
        every delivery.  Returns the snapshot."""
        if source in self.network.crashed:
            raise NodeCrashedError(source)
        recipients = [
            node
            for node in self.members
            if node != source and self.network.reachable(source, node)
        ]
        round_trips = 2 if await_acks else 1
        duration = round_trips * (
            COSTS["multicast_base"] + COSTS["multicast_per_node"] * len(recipients)
        )
        if recipients:
            self.network.charge("multicast", duration)
        if self.obs.enabled:
            self.obs.emit(
                "multicast",
                node=str(source),
                kind=kind,
                recipients=sorted(recipients),
                bytes=payload_size(payload),
                await_acks=await_acks,
            )
        return recipients
