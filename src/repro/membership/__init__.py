"""Group membership: views, view-change notification, partition weights,
and heartbeat-based failure detection."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "failure_detector": ("HeartbeatFailureDetector", "SuspicionEvent"),
    "gms": ("GroupMembershipService", "View", "ViewListener"),
})
