"""Group membership: views from reachability reports, weights, failure detection."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "failure_detector": ("HeartbeatFailureDetector", "SuspicionEvent"),
    "gms": ("GroupMembershipService", "View", "ViewListener"),
    "sim_adapter": ("reach_sets", "topology_gms"),
})
