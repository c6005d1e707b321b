"""The consistency-management model of Appendix A.

Appendix A of the dissertation maps the generic consistency-management
model of Tarr & Clarke [TC98] onto the constraint-consistency framework:
functional requirements (what a consistency-management system must do) and
cross-cutting requirements (properties it must have), each addressed by a
specific mechanism of the middleware.

This module encodes that mapping as data so it is introspectable and —
unlike a table in documentation — verified by the test suite: every
mechanism reference names a real attribute of this package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RequirementKind(enum.Enum):
    FUNCTIONAL = "functional"
    CROSS_CUTTING = "cross-cutting"


@dataclass(frozen=True)
class Requirement:
    """One requirement of the consistency-management model (Appendix A)."""

    identifier: str
    kind: RequirementKind
    statement: str
    # Dotted references (relative to the ``repro`` package) to the
    # mechanisms addressing the requirement.
    mechanisms: tuple[str, ...]
    notes: str = ""


CONSISTENCY_MODEL: tuple[Requirement, ...] = (
    Requirement(
        "A1-specify",
        RequirementKind.FUNCTIONAL,
        "Consistency conditions must be specifiable explicitly, separate "
        "from the artefacts they constrain.",
        (
            "core.model.Constraint",
            "core.metadata.ConstraintRegistration",
            "core.metadata.parse_xml_configuration",
            "core.ocl_constraints.OclConstraint",
        ),
        "one class per integrity constraint plus deployment metadata "
        "(Listing 4.1)",
    ),
    Requirement(
        "A2-detect",
        RequirementKind.FUNCTIONAL,
        "Violations (and potential violations) of consistency conditions "
        "must be detected when the constrained artefacts change.",
        (
            "core.ccmgr.ConstraintConsistencyManager",
            "core.interceptor.CCMInterceptor",
            "objects.invocation.InterceptorChain",
        ),
        "invocation interception triggers validation at the §1.6 trigger "
        "points",
    ),
    Requirement(
        "A3-tolerate",
        RequirementKind.FUNCTIONAL,
        "Inconsistencies must be tolerable in a controlled way so that "
        "work can proceed (Balzer's 'tolerating inconsistency').",
        (
            "core.model.SatisfactionDegree",
            "core.threats.ConsistencyThreat",
            "core.negotiation.Negotiator",
        ),
        "consistency threats are the pollution markers; negotiation bounds "
        "their acceptance",
    ),
    Requirement(
        "A4-record",
        RequirementKind.FUNCTIONAL,
        "Tolerated inconsistencies must be recorded persistently, with "
        "enough information for later analysis.",
        (
            "core.threats.ThreatStore",
            "core.threats.ReconciliationInstructions",
            "persistence.store.PersistenceEngine",
        ),
        "identical-once vs full-history policies trade recording cost for "
        "rollback capability (§3.2.2)",
    ),
    Requirement(
        "A5-resolve",
        RequirementKind.FUNCTIONAL,
        "Recorded inconsistencies must eventually be analysed and "
        "resolved, re-establishing consistency.",
        (
            "core.reconciliation.ReconciliationManager",
            "core.reconciliation.ConstraintViolationReport",
            "replication.manager.ReplicationManager.reconcile_replicas",
        ),
        "two-step reconciliation: replicas first, then constraint "
        "re-evaluation with application callbacks (Fig. 4.6)",
    ),
    Requirement(
        "A6-notify",
        RequirementKind.FUNCTIONAL,
        "Interested parties must be notifiable of (in)consistency "
        "state changes.",
        (
            "core.negotiation.NegotiationHandler",
            "core.reconciliation.ConstraintReconciliationHandler",
            "web.callbacks.WebNegotiationBridge",
        ),
        "callbacks for negotiation and reconciliation; tunnelled over "
        "HTTP for Web clients (§4.5)",
    ),
    Requirement(
        "A7-configure",
        RequirementKind.CROSS_CUTTING,
        "The degree of enforced consistency must be configurable, per "
        "condition and at runtime.",
        (
            "core.model.ConstraintPriority",
            "core.model.FreshnessCriterion",
            "core.repository.ConstraintRepository.enable",
            "core.repository.ConstraintRepository.disable",
        ),
        "tradeable vs non-tradeable, minimum satisfaction degrees, "
        "runtime add/remove/enable/disable",
    ),
    Requirement(
        "A8-performance",
        RequirementKind.CROSS_CUTTING,
        "Consistency management must not dominate system performance.",
        (
            "core.repository.CachingConstraintRepository",
            "validation.adaptive.AdaptiveDispatchTable",
            "core.model.ConstraintType.INVARIANT_ASYNC",
        ),
        "cached lookups (0.25–0.52 µs), adaptive instrumentation, "
        "asynchronous constraints (§5.5.3)",
    ),
    Requirement(
        "A9-separation",
        RequirementKind.CROSS_CUTTING,
        "Consistency management must stay separated from the business "
        "logic (maintainability).",
        (
            "core.model.Constraint.validate",
            "core.metadata.AffectedMethod",
            "core.interceptor.CCMInterceptor",
        ),
        "the Chapter-2 study quantifies the cost of this separation",
    ),
    Requirement(
        "A10-distribution",
        RequirementKind.CROSS_CUTTING,
        "Consistency management must function in the presence of "
        "distribution, replication, and partial failures.",
        (
            "core.model.CheckCategory",
            "core.ccmgr.StalenessProvider",
            "replication.protocols.PrimaryPerPartitionProtocol",
            "membership.gms.GroupMembershipService",
        ),
        "FCC/LCC/NCC classification over the replication protocol's "
        "staleness information",
    ),
)


def requirements(kind: RequirementKind | None = None) -> tuple[Requirement, ...]:
    """The model's requirements, optionally filtered by kind."""
    if kind is None:
        return CONSISTENCY_MODEL
    return tuple(item for item in CONSISTENCY_MODEL if item.kind is kind)


def resolve_mechanism(reference: str):
    """Resolve a dotted mechanism reference to the live object.

    Raises ``AttributeError``/``ImportError`` if the reference is stale —
    which is exactly what the test suite checks for every entry.
    """
    import importlib

    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        module_name = "repro." + ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(f"cannot resolve mechanism reference {reference!r}")
