"""Simulated network substrate: links, partitions, crashes, multicast."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "messages": (
        "REPLICA_CREATE", "REPLICA_DELETE", "REPLICA_UPDATE",
        "THREAT_DIGEST", "THREAT_REPLICATE", "THREAT_RESOLVED", "THREAT_SYNC",
        "DeadlineExceededError", "Message", "NodeCrashedError", "NodeId",
        "UnreachableError",
    ),
    "multicast": ("GroupChannel",),
    "network": ("Network", "SimNetwork"),
    "topology": ("Topology",),
})
