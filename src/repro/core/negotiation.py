"""Negotiation of consistency threats (§3.2.1, Fig. 3.3, Fig. 4.4).

Whether a consistency threat is acceptable is decided by:

1. **Dynamic (algorithmic) negotiation** — an application-implemented
   callback handler registered with the current transaction, associating
   the negotiation mechanism with a specific use case;
2. **Static (descriptive) negotiation** — the constraint's configured
   minimum satisfaction degree plus optional freshness criteria for
   possibly-stale affected objects;
3. an application-wide **default minimum satisfaction degree**.

in exactly that priority order.  Rejecting a threat aborts the current
operation/transaction; accepting it lets the operation continue and stores
the threat for re-evaluation during reconciliation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Protocol

from ..tx import Transaction
from .model import Constraint, ConstraintValidationContext, SatisfactionDegree, ValidationOutcome
from .threats import ConsistencyThreat

NEGOTIATION_HANDLER_KEY = "negotiation_handler"

#: The application-wide minimum satisfaction degree: threats at or above it
#: are acceptable when no other mechanism applies.
DEFAULT_MIN_DEGREE = SatisfactionDegree.SATISFIED


class NegotiationDecision(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class NegotiationHandler(Protocol):
    """Application callback deciding on a consistency threat.

    The handler receives the constraint and the threat (with affected
    objects) and may also attach application-specific data or
    reconciliation instructions to the threat before returning.
    """

    def negotiate(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        ctx: ConstraintValidationContext,
    ) -> NegotiationDecision: ...


class CallbackNegotiationHandler:
    """Adapts a plain function into a :class:`NegotiationHandler`."""

    def __init__(
        self,
        fn: Callable[
            [Constraint, ConsistencyThreat, ConstraintValidationContext],
            NegotiationDecision | bool,
        ],
    ) -> None:
        self._fn = fn

    def negotiate(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        ctx: ConstraintValidationContext,
    ) -> NegotiationDecision:
        result = self._fn(constraint, threat, ctx)
        if isinstance(result, NegotiationDecision):
            return result
        return NegotiationDecision.ACCEPT if result else NegotiationDecision.REJECT


class AcceptAllHandler:
    """Accepts every threat — useful default for tests and benchmarks."""

    def negotiate(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        ctx: ConstraintValidationContext,
    ) -> NegotiationDecision:
        return NegotiationDecision.ACCEPT


class RejectAllHandler:
    """Rejects every threat — the conventional blocking behaviour."""

    def negotiate(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        ctx: ConstraintValidationContext,
    ) -> NegotiationDecision:
        return NegotiationDecision.REJECT


def register_negotiation_handler(tx: Transaction, handler: NegotiationHandler) -> None:
    """Bind a dynamic negotiation handler to the current transaction
    (§3.2.1: 'A NegotiationHandler can be registered with a transaction of
    the application to associate the negotiation mechanism with a specific
    use case')."""
    tx.context[NEGOTIATION_HANDLER_KEY] = handler


@dataclass
class NegotiationResult:
    decision: NegotiationDecision
    mechanism: str  # "dynamic", "static", or "default"

    @property
    def accepted(self) -> bool:
        return self.decision is NegotiationDecision.ACCEPT


class Negotiator:
    """Implements the negotiation priority chain."""

    def negotiate(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        outcome: ValidationOutcome,
        ctx: ConstraintValidationContext,
        tx: Transaction | None,
    ) -> NegotiationResult:
        """Decide on a threat; non-tradeable constraints never reach here."""
        handler = None
        if tx is not None:
            handler = tx.context.get(NEGOTIATION_HANDLER_KEY)
        if handler is not None:
            # §3.2.1: the dynamic handler takes priority outright; the
            # static declarations do not bound what it may accept.
            decision = handler.negotiate(constraint, threat, ctx)
            return NegotiationResult(decision, "dynamic")
        static = self._static_decision(constraint, threat, outcome)
        if static is not None:
            return NegotiationResult(static, "static")
        decision = (
            NegotiationDecision.ACCEPT
            if threat.degree >= DEFAULT_MIN_DEGREE
            else NegotiationDecision.REJECT
        )
        return NegotiationResult(decision, "default")

    def _static_decision(
        self,
        constraint: Constraint,
        threat: ConsistencyThreat,
        outcome: ValidationOutcome,
    ) -> NegotiationDecision | None:
        """Descriptive negotiation from constraint metadata.

        Returns ``None`` when the constraint carries no static
        configuration (min degree left at the strict default and no
        freshness criteria), falling through to the application default.
        """
        has_static_config = (
            constraint.min_satisfaction_degree is not SatisfactionDegree.SATISFIED
            or bool(constraint.freshness_criteria)
        )
        if not has_static_config:
            return None
        if threat.degree < constraint.min_satisfaction_degree:
            return NegotiationDecision.REJECT
        for criterion in constraint.freshness_criteria:
            for entity in outcome.stale:
                if not criterion.admits(entity):
                    return NegotiationDecision.REJECT
        return NegotiationDecision.ACCEPT
