"""repro — Middleware support for adaptive dependability.

A reproduction of Lorenz Froihofer's dissertation *"Middleware Support for
Adaptive Dependability through Explicit Runtime Integrity Constraints"*
(TU Wien, 2007; DeDiSys): balancing the competing dependability attributes
integrity and availability in distributed object systems via explicit
runtime integrity constraints, consistency threats, negotiation, an
integrated replication service (P4), and a two-step reconciliation phase.

Quickstart::

    from repro import ClusterConfig, DedisysCluster

    cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c")))

See ``examples/quickstart.py`` for a complete walk-through.
"""

from ._lazy import reexport

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = reexport(globals(), {
    "administration": ("AdministrationService", "AuthorizationError"),
    "cluster": ("ClusterConfig", "DedisysCluster"),
    "core": (
        "AffectedMethod", "CachingConstraintRepository", "Constraint",
        "ConstraintPriority", "ConstraintRepository", "ConstraintScope",
        "ConstraintType", "ConstraintUncheckable", "ConstraintValidationContext",
        "ConsistencyThreatRejected", "ConstraintViolated", "NegotiationDecision",
        "PredicateConstraint", "SatisfactionDegree", "ThreatStoragePolicy",
    ),
    "check": (
        "CheckConfig", "ModelChecker", "Scenario", "run_schedule",
        "shrink_counterexample",
    ),
    "faults": (
        "FaultInjector", "FaultSchedule", "GilbertElliottLoss",
    ),
    "objects": ("Entity", "ObjectRef"),
    "obs": ("Observability",),
    "sim": ("COSTS",),
})
__all__.append("__version__")
