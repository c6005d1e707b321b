"""The in-process substrates' membership input: the topology model.

The only code that turns :class:`~repro.net.topology.Topology` into
reachability reports: a node reaches its partition, a crashed node
nothing.
"""

from __future__ import annotations

from typing import Mapping

from ..net import NodeId
from ..net.topology import Topology
from .gms import GroupMembershipService


def reach_sets(network: Topology) -> dict[NodeId, frozenset[NodeId]]:
    """What every node of ``network`` reaches now: the GMS's and the detector's input."""
    return {node: network.partition_of(node) for node in network.nodes}


def topology_gms(
    network: Topology, weights: Mapping[NodeId, float] | None = None
) -> GroupMembershipService:
    """A GMS over ``network``'s nodes, reported to on every topology change."""
    gms = GroupMembershipService(network.nodes, weights, obs=network.obs)
    reach = reach_sets(network)
    if any(gms.view_of(node).members != members for node, members in reach.items()):
        gms.observe(reach)  # faults made before the GMS existed
    network.on_topology_change(lambda: gms.observe(reach_sets(network)))
    return gms
