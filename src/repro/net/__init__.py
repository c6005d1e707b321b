"""Simulated network substrate: links, partitions, crashes, multicast."""

from .messages import (
    RECONCILIATION_KINDS,
    REPLICA_CREATE,
    REPLICA_DELETE,
    REPLICA_UPDATE,
    THREAT_DIGEST,
    THREAT_REPLICATE,
    THREAT_RESOLVED,
    THREAT_SYNC,
    DeadlineExceededError,
    Message,
    NodeCrashedError,
    NodeId,
    UnreachableError,
)
from .multicast import GroupChannel
from .network import Network, SimNetwork
from .topology import Topology

__all__ = [
    "DeadlineExceededError",
    "GroupChannel",
    "Message",
    "Network",
    "NodeCrashedError",
    "NodeId",
    "RECONCILIATION_KINDS",
    "REPLICA_CREATE",
    "REPLICA_DELETE",
    "REPLICA_UPDATE",
    "SimNetwork",
    "THREAT_DIGEST",
    "THREAT_REPLICATE",
    "THREAT_RESOLVED",
    "THREAT_SYNC",
    "Topology",
    "UnreachableError",
]
