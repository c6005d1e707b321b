"""The paper's primary contribution: explicit runtime constraint
consistency management for adaptive dependability."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "ccmgr": (
        "CCMConfig", "ConstraintConsistencyManager", "NullStalenessProvider",
        "StalenessProvider",
    ),
    "errors": ("ConsistencyThreatRejected", "ConstraintViolated", "OperationShedded"),
    "interceptor": ("CCMInterceptor",),
    "metadata": (
        "AffectedMethod", "CalledObjectIsContextObject", "ConfigurationError",
        "ConstraintRegistration", "ContextPreparation", "NoContextObject",
        "ReferenceIsContextObject", "parse_xml_configuration", "registration_from_dict",
    ),
    "model": (
        "CheckCategory", "Constraint", "ConstraintPriority", "ConstraintScope",
        "ConstraintType", "ConstraintUncheckable", "ConstraintValidationContext",
        "FreshnessCriterion", "PredicateConstraint", "SatisfactionDegree",
        "ValidationOutcome",
    ),
    "ocl_constraints": (
        "OclConstraint", "OclEntityAdapter", "compile_ocl", "ocl_invariant",
    ),
    "negotiation": (
        "AcceptAllHandler", "CallbackNegotiationHandler", "NegotiationDecision",
        "NegotiationHandler", "NegotiationResult", "Negotiator", "RejectAllHandler",
        "register_negotiation_handler",
    ),
    "partition_sensitive": ("DegradedBaseline", "partition_allowance"),
    "reconciliation": (
        "ConstraintReconciliationHandler", "ConstraintViolationReport",
        "ReconciliationManager", "ReconciliationReport",
    ),
    "repository": (
        "CachingConstraintRepository", "CompiledConstraintRepository",
        "ConstraintRepository", "MethodDispatch",
    ),
    "system_mode": ("ModeChange", "SystemMode", "SystemModeTracker"),
    "uml_constraints": (
        "cardinality_constraint", "not_null_constraint", "unique_constraint",
        "xor_constraint",
    ),
    "threats": (
        "ConsistencyThreat", "ReconciliationInstructions", "ThreatDigestEntry",
        "ThreatStoragePolicy", "ThreatStore",
    ),
})
