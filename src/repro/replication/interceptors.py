"""Interceptors wiring transport, persistence and replication into the
invocation chains (Fig. 4.5).

Client side, the :class:`TransportInterceptor` routes the invocation to its
execution node — locally for reads on replicated objects, to the (possibly
temporary) primary for writes, or to the home node for non-replicated
objects — and carries it across the simulated network.

Server side, the :class:`ReplicationServerInterceptor` performs the ADAPT
component-monitor tasks (§4.3): safety redirection to the current primary
and synchronous update propagation after state-changing invocations.  The
:class:`PersistenceInterceptor` models container-managed persistence: the
entity row is loaded per invocation and stored after writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..membership import GroupMembershipService
from ..net import SimNetwork, UnreachableError
from ..objects import Interceptor, Invocation, LocationService, Node
from .manager import ReplicationManager

if TYPE_CHECKING:  # pragma: no cover
    from ..objects.invocation import Proceed


class TransportInterceptor(Interceptor):
    """Terminal client-side interceptor: route and transmit."""

    name = "transport"

    def __init__(
        self,
        node: Node,
        network: SimNetwork,
        gms: GroupMembershipService,
        location: LocationService,
        replication: ReplicationManager | None = None,
    ) -> None:
        self.node = node
        self.network = network
        self.gms = gms
        self.location = location
        self.replication = replication

    def intercept(self, invocation: Invocation, proceed: "Proceed") -> Any:
        target = self._route(invocation)
        if target == self.node.node_id:
            return self.node.invocation_service.run_server_chain(invocation)
        return self.network.send(self.node.node_id, target, "invocation", invocation)

    def _route(self, invocation: Invocation) -> str:
        ref = invocation.ref
        if self.replication is not None and self.replication.is_replicated(ref):
            if invocation.is_write:
                return self.replication.route_write(ref, self.node.node_id)
            return self.replication.route_read(ref, self.node.node_id)
        home = self.location.home_of(ref)
        if home not in self.gms.view_of(self.node.node_id):
            raise UnreachableError(self.node.node_id, home)
        return home


class ReplicationServerInterceptor(Interceptor):
    """Server-side replication monitor: redirect + update propagation."""

    name = "replication"

    def __init__(self, node: Node, replication: ReplicationManager) -> None:
        self.node = node
        self.replication = replication

    def intercept(self, invocation: Invocation, proceed: "Proceed") -> Any:
        ref = invocation.ref
        if not self.replication.is_replicated(ref):
            return proceed()
        # Component-monitor pass-through (ADAPT framework, §5.1).
        self.node.persistence.charge("adapt_monitor")
        node_id = self.node.node_id
        if invocation.is_write and not invocation.redirected:
            target = self.replication.route_write(ref, node_id)
            if target != node_id:
                invocation.redirected = True
                return self.replication.send_redirect(node_id, invocation)
        entity = self.node.container.resolve(ref)
        version_before = entity.version
        result = proceed()
        if invocation.is_write and entity.version != version_before:
            self.replication.propagate_update(node_id, entity)
        return result


class PersistenceInterceptor(Interceptor):
    """Container-managed persistence: load per call, store after writes."""

    name = "persistence"

    def __init__(self, node: Node) -> None:
        self.node = node

    def intercept(self, invocation: Invocation, proceed: "Proceed") -> Any:
        entity = self.node.container.resolve(invocation.ref)
        # Entity bean activation/load.
        self.node.persistence.charge("db_read")
        version_before = entity.version
        result = proceed()
        if invocation.is_write and entity.version != version_before:
            self.node.persistence.table("entities").put(
                (invocation.ref.class_name, invocation.ref.oid), entity.state()
            )
        return result
