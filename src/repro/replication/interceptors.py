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

from typing import Any

from ..membership import GroupMembershipService
from ..net import SimNetwork, UnreachableError
from ..objects import Interceptor, Invocation, LocationService, Node
from .manager import ReplicationManager


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

    def intercept(self, invocation: Invocation) -> Any:
        ref = invocation.ref
        node_id = self.node.node_id
        replication = self.replication
        if replication is not None and replication.is_replicated(ref):
            if invocation.is_write:
                target = replication.route_write(ref, node_id)
            else:
                target = replication.route_read(ref, node_id)
        else:
            target = self.location.home_of(ref)
            if target not in self.gms.view_of(node_id):
                raise UnreachableError(node_id, target)
        if target == node_id:
            return self.node.invocation_service.run_server_chain(invocation)
        return self.network.send(node_id, target, "invocation", invocation)


class ReplicationServerInterceptor(Interceptor):
    """Server-side replication monitor: redirect + update propagation."""

    name = "replication"

    def __init__(self, node: Node, replication: ReplicationManager) -> None:
        self.node = node
        self.replication = replication

    def intercept(self, invocation: Invocation) -> Any:
        ref = invocation.ref
        if not self.replication.is_replicated(ref):
            return self.proceed(invocation)
        # Component-monitor pass-through (ADAPT framework, §5.1).
        self.node.persistence.charge("adapt_monitor")
        node_id = self.node.node_id
        if invocation.is_write and not invocation.redirected:
            target = self.replication.route_write(ref, node_id)
            if target != node_id:
                invocation.redirected = True
                return self.replication.network.send(node_id, target, "invocation", invocation)
        entity = invocation.entity or self.node.container.resolve_target(invocation)
        version_before = entity.version
        result = self.proceed(invocation)
        if invocation.is_write and entity.version != version_before:
            self.replication.propagate_update(node_id, entity)
        return result


class PersistenceInterceptor(Interceptor):
    """Container-managed persistence: load per call, store after writes."""

    name = "persistence"

    def __init__(self, node: Node) -> None:
        self.node = node

    def intercept(self, invocation: Invocation) -> Any:
        entity = invocation.entity or self.node.container.resolve_target(invocation)
        # Entity bean activation/load.
        self.node.persistence.charge("db_read")
        version_before = entity.version
        result = self.proceed(invocation)
        if invocation.is_write and entity.version != version_before:
            entity.store(self.node.persistence.table("entities").put)
        return result
