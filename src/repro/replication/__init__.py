"""Replication support: protocols, manager, and chain interceptors."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "interceptors": (
        "PersistenceInterceptor", "ReplicationServerInterceptor",
        "TransportInterceptor",
    ),
    "manager": (
        "ReplicaConflict", "ReplicaConsistencyHandler", "ReplicaInfo",
        "ReplicationManager", "UpdateRecord", "WriteAccessDenied",
    ),
    "protocols": (
        "AdaptiveVotingProtocol", "PrimaryPartitionProtocol",
        "PrimaryPerPartitionProtocol", "ReplicationProtocol",
    ),
})
