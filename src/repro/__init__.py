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

from .administration import AdministrationService, AuthorizationError
from .cluster import ClusterConfig, DedisysCluster
from .core import (
    AffectedMethod,
    CachingConstraintRepository,
    Constraint,
    ConstraintPriority,
    ConstraintRepository,
    ConstraintScope,
    ConstraintType,
    ConstraintUncheckable,
    ConstraintValidationContext,
    ConsistencyThreatRejected,
    ConstraintViolated,
    NegotiationDecision,
    PredicateConstraint,
    SatisfactionDegree,
    ThreatStoragePolicy,
)
from .check import (
    CheckConfig,
    ModelChecker,
    Scenario,
    run_schedule,
    shrink_counterexample,
)
from .faults import (
    FaultInjector,
    FaultSchedule,
    GilbertElliottLoss,
    ResilienceConfig,
    RetryPolicy,
)
from .objects import Entity, ObjectRef
from .obs import Observability
from .sim import CostModel

__version__ = "1.0.0"

__all__ = [
    "AdministrationService",
    "AffectedMethod",
    "AuthorizationError",
    "CachingConstraintRepository",
    "CheckConfig",
    "ClusterConfig",
    "ConsistencyThreatRejected",
    "Constraint",
    "ConstraintPriority",
    "ConstraintRepository",
    "ConstraintScope",
    "ConstraintType",
    "ConstraintUncheckable",
    "ConstraintValidationContext",
    "ConstraintViolated",
    "CostModel",
    "DedisysCluster",
    "Entity",
    "FaultInjector",
    "FaultSchedule",
    "GilbertElliottLoss",
    "ModelChecker",
    "NegotiationDecision",
    "ObjectRef",
    "Observability",
    "PredicateConstraint",
    "ResilienceConfig",
    "RetryPolicy",
    "SatisfactionDegree",
    "Scenario",
    "ThreatStoragePolicy",
    "__version__",
    "run_schedule",
    "shrink_counterexample",
]
