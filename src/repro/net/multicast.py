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

from ..sim import CostModel
from .messages import Message, NodeCrashedError, NodeId
from .network import Network, payload_size


class GroupChannel:
    """View-synchronous multicast over the simulated network.

    Reliable within the reachable membership: uniform loss and fault
    injectors model *link* faults and are never consulted.  Other backends
    subclass this, sharing the round prologue but not the delivery loop.
    """

    def __init__(self, network: Network, group: str = "dedisys") -> None:
        self.network = network
        self.group = group
        self._handlers: dict[NodeId, Callable[[Message], Any]] = {}
        self._members: tuple[NodeId, ...] = ()
        self.obs = network.obs
        self._m_multicasts = self.obs.registry.counter(
            "net_multicasts_total", "group multicast rounds, by message kind"
        )
        self._m_recipients = self.obs.registry.counter(
            "net_multicast_deliveries_total", "per-recipient multicast deliveries"
        )

    def join(self, node: NodeId, handler: Callable[[Message], Any]) -> None:
        """Register ``node`` as a group member with a delivery handler."""
        if node not in self.network.nodes:
            raise KeyError(f"unknown node {node!r}")
        self._handlers[node] = handler
        self._members = tuple(sorted(self._handlers))

    def leave(self, node: NodeId) -> None:
        self._handlers.pop(node, None)
        self._members = tuple(sorted(self._handlers))

    @property
    def members(self) -> tuple[NodeId, ...]:
        """The group in sorted order; changes only on ``join`` / ``leave``."""
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

        The recipient set is snapshotted before delivery; a handler that
        makes a later recipient ``leave()`` mid-round simply causes that
        departed member to be skipped (it neither receives the message nor
        appears in the returned replies).
        """
        recipients = self._recipients(source)
        costs: CostModel = self.network.costs
        round_trips = 2 if await_acks else 1
        duration = round_trips * (
            costs.multicast_base + costs.multicast_per_node * len(recipients)
        )
        if recipients:
            self.network.charge("multicast", duration)
        self._record_round(source, kind, payload, recipients, await_acks)
        replies: dict[NodeId, Any] = {}
        for node in recipients:
            # Re-check membership per delivery: a handler earlier in the
            # round may have made this member leave() the group.
            handler = self._handlers.get(node)
            if handler is None:
                continue
            message = Message(source, node, kind, payload)
            replies[node] = handler(message)
        return replies

    def _recipients(self, source: NodeId) -> list[NodeId]:
        """The round's recipient snapshot: every other reachable member."""
        if self.network.is_crashed(source):
            raise NodeCrashedError(source)
        return [
            node
            for node in self.members
            if node != source and self.network.reachable(source, node)
        ]

    def _record_round(
        self,
        source: NodeId,
        kind: str,
        payload: Any,
        recipients: list[NodeId],
        await_acks: bool,
    ) -> None:
        """The round's one ``multicast`` event; it covers every delivery."""
        if self.obs.enabled:
            self._m_multicasts.inc(kind=kind)
            self._m_recipients.inc(len(recipients), kind=kind)
            self.obs.emit(
                "multicast",
                node=str(source),
                kind=kind,
                recipients=sorted(recipients),
                bytes=payload_size(payload),
                await_acks=await_acks,
            )
