"""Explicit runtime constraint model (§1.5, §1.6, §3.1, §4.2.1).

Constraints are first-class runtime citizens: one class per integrity
constraint, each providing ``validate(ctx)``.  The middleware triggers
validation; the application implements it.  Validation results live in the
five-valued satisfaction-degree lattice of §3.1/§4.2.2:

    violated < uncheckable < possibly_violated < possibly_satisfied < satisfied

The three lower-but-not-violated degrees identify *consistency threats*:
validation happened on possibly-stale replicas (LCC) or was impossible
because affected objects were unreachable (NCC).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..objects import Entity, ObjectRef


class ConstraintType(enum.Enum):
    """When a constraint is checked (§1.6)."""

    PRECONDITION = "precondition"
    POSTCONDITION = "postcondition"
    # Hard invariants are checked at the end of each affected operation
    # inside the transaction; soft invariants at the end of the
    # transaction [JQ92]; asynchronous invariants behave like soft ones in
    # a healthy system but are not validated at all in degraded mode
    # (§5.5.3) — the threat is stored directly for reconciliation.
    INVARIANT_HARD = "hard"
    INVARIANT_SOFT = "soft"
    INVARIANT_ASYNC = "async"

    # Singletons: an identity hash in C, not Enum's Python-level one.
    __hash__ = object.__hash__

    @property
    def is_invariant(self) -> bool:
        return self in (
            ConstraintType.INVARIANT_HARD,
            ConstraintType.INVARIANT_SOFT,
            ConstraintType.INVARIANT_ASYNC,
        )


class ConstraintPriority(enum.Enum):
    """Tradeability classification (§3.0)."""

    # Non-tradeable: critical for correct operation, must never be
    # violated; consistency threats are automatically rejected.
    CRITICAL = "critical"
    # Tradeable: must hold in a healthy system but may be relaxed during
    # degraded mode to increase availability.
    RELAXABLE = "relaxable"


class ConstraintScope(enum.Enum):
    """Intra- vs. inter-object constraints (§3.1, Fig. 3.2).

    If replica reconciliation merges conflicting replicas by *selecting*
    one copy, intra-object constraints cannot be violated retrospectively,
    so an LCC on an intra-object constraint may report ``satisfied``
    instead of ``possibly_satisfied``.
    """

    INTRA_OBJECT = "intra-object"
    INTER_OBJECT = "inter-object"


class CheckCategory(enum.Enum):
    """How completely a constraint could be checked (§3.1)."""

    FCC = "full"       # all affected objects up to date
    LCC = "limited"    # some affected objects possibly stale
    NCC = "none"       # at least one affected object unreachable


@functools.total_ordering
class SatisfactionDegree(enum.Enum):
    """Constraint validation result lattice (§3.1, §4.2.2).

    Ordering: ``VIOLATED < UNCHECKABLE < POSSIBLY_VIOLATED <
    POSSIBLY_SATISFIED < SATISFIED`` — violations are the least acceptable
    situation, satisfied constraints the desired case.
    """

    VIOLATED = 0
    UNCHECKABLE = 1
    POSSIBLY_VIOLATED = 2
    POSSIBLY_SATISFIED = 3
    SATISFIED = 4

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, SatisfactionDegree):
            return NotImplemented
        # ``_value_``, not ``value``: the property runs two ``enum.py``
        # frames per read, and threats compare degrees on every occurrence.
        return self._value_ < other._value_

    @property
    def is_threat(self) -> bool:
        """A consistency threat: LCC or NCC result (§3.1)."""
        return self in (
            SatisfactionDegree.POSSIBLY_SATISFIED,
            SatisfactionDegree.POSSIBLY_VIOLATED,
            SatisfactionDegree.UNCHECKABLE,
        )

    def meet(self, other: "SatisfactionDegree") -> "SatisfactionDegree":
        """Greatest lower bound: the worse of the two results.

        On a total order the meet is simply the minimum; it is the
        pairwise form of :meth:`combine`.
        """
        return self if self <= other else other

    def join(self, other: "SatisfactionDegree") -> "SatisfactionDegree":
        """Least upper bound: the better of the two results."""
        return self if self >= other else other

    def degrade_for_staleness(self) -> "SatisfactionDegree":
        """The §3.1 LCC degradation of a validation result.

        When a validation read possibly-stale replicas its definite
        answers lose their certainty: ``SATISFIED`` weakens to
        ``POSSIBLY_SATISFIED`` and ``VIOLATED`` to ``POSSIBLY_VIOLATED``;
        the already-uncertain degrees are fixed points.  The result is
        always a consistency threat, and the map preserves the lattice
        order of the definite chain (violated/possibly-violated/
        possibly-satisfied/satisfied).
        """
        if self is SatisfactionDegree.SATISFIED:
            return SatisfactionDegree.POSSIBLY_SATISFIED
        if self is SatisfactionDegree.VIOLATED:
            return SatisfactionDegree.POSSIBLY_VIOLATED
        return self

    @staticmethod
    def combine(degrees: Iterable["SatisfactionDegree"]) -> "SatisfactionDegree":
        """Combine the results of a set of constraints (§3.1).

        The rules of §3.1 (satisfied iff all satisfied; possibly satisfied
        iff none worse than possibly satisfied and at least one; ...;
        violated iff any violated) reduce to the minimum in the lattice
        ordering.  An empty set is vacuously satisfied.
        """
        result = SatisfactionDegree.SATISFIED
        for degree in degrees:
            if degree < result:
                result = degree
        return result


class ConstraintUncheckable(Exception):
    """Thrown by ``validate`` when checking is impossible (NCC, §4.2.1)."""

    def __init__(self, reason: str = "affected object unreachable") -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class FreshnessCriterion:
    """Maximum tolerated staleness per affected class (§4.2.1).

    ``max_age`` bounds ``estimated_latest_version() - get_version()`` of
    affected objects of ``object_class`` for static negotiation to accept a
    threat.
    """

    object_class: str
    max_age: int

    def admits(self, entity: Entity) -> bool:
        if entity.class_name() != self.object_class:
            return True
        return (entity.estimated_latest_version() - entity.get_version()) <= self.max_age


class ConstraintValidationContext:
    """Input to ``Constraint.validate`` (Fig. 4.3).

    Carries the context object for invariants, and called object/method/
    arguments (plus result for postconditions).  ``partition_weight`` is the
    §5.5.2 extension: the weight fraction of the current partition, provided
    by the middleware for partition-sensitive constraints; it is 1.0 in a
    healthy system.
    """

    def __init__(
        self,
        context_object: Entity | None = None,
        called_object: Entity | None = None,
        method_name: str | None = None,
        method_arguments: tuple[Any, ...] = (),
        method_result: Any = None,
        partition_weight: float = 1.0,
        degraded: bool = False,
    ) -> None:
        self.context_object = context_object
        self.called_object = called_object
        self.method_name = method_name
        self.method_arguments = method_arguments
        self.method_result = method_result
        self.partition_weight = partition_weight
        self.degraded = degraded
        # Scratch space for postconditions that snapshot @pre state in
        # before_method_invocation (§4.2.1).
        self.pre_state: dict[str, Any] = {}

    def get_context_object(self) -> Entity:
        if self.context_object is None:
            raise ConstraintUncheckable("no context object available")
        return self.context_object

    def get_called_object(self) -> Entity | None:
        return self.called_object

    def get_method_arguments(self) -> tuple[Any, ...]:
        return self.method_arguments

    def get_method_result(self) -> Any:
        return self.method_result


class Constraint:
    """Base class for explicit integrity constraints (Listing 1.2).

    One subclass represents exactly one integrity constraint; the
    application implements :meth:`validate`, returning ``True`` when the
    constraint is satisfied, ``False`` when violated, or raising
    :class:`ConstraintUncheckable` when checking is impossible.
    """

    name: str = ""
    constraint_type: ConstraintType = ConstraintType.INVARIANT_HARD
    priority: ConstraintPriority = ConstraintPriority.CRITICAL
    scope: ConstraintScope = ConstraintScope.INTER_OBJECT
    # Minimum satisfaction degree for static (descriptive) negotiation:
    # threats at or above this degree are acceptable without a dynamic
    # handler (§3.2.1, Listing 4.1).
    min_satisfaction_degree: SatisfactionDegree = SatisfactionDegree.SATISFIED
    # Whether validate() needs a context object (vs. a query-based
    # constraint obtaining its affected objects itself, §3.2.2 case 2).
    context_object_needed: bool = True
    context_class: str | None = None
    description: str = ""
    freshness_criteria: tuple[FreshnessCriterion, ...] = ()

    def __init__(self, name: str | None = None) -> None:
        if name is not None:
            self.name = name
        if not self.name:
            self.name = type(self).__name__
        self.enabled = True

    def is_tradeable(self) -> bool:
        return self.priority is ConstraintPriority.RELAXABLE

    def before_method_invocation(self, ctx: ConstraintValidationContext) -> None:
        """Hook for postconditions to snapshot pre-invocation state
        (the OCL ``@pre`` operator, §4.2.1).  Default: no-op."""

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} {self.constraint_type.value}>"


class PredicateConstraint(Constraint):
    """Convenience constraint wrapping a plain predicate function."""

    def __init__(
        self,
        name: str,
        predicate: Any,
        constraint_type: ConstraintType = ConstraintType.INVARIANT_HARD,
        priority: ConstraintPriority = ConstraintPriority.CRITICAL,
        scope: ConstraintScope = ConstraintScope.INTER_OBJECT,
        min_satisfaction_degree: SatisfactionDegree = SatisfactionDegree.SATISFIED,
        context_class: str | None = None,
        context_object_needed: bool = True,
        description: str = "",
    ) -> None:
        super().__init__(name)
        self._predicate = predicate
        self.constraint_type = constraint_type
        self.priority = priority
        self.scope = scope
        self.min_satisfaction_degree = min_satisfaction_degree
        self.context_class = context_class
        self.context_object_needed = context_object_needed
        self.description = description

    def validate(self, ctx: ConstraintValidationContext) -> bool:
        return bool(self._predicate(ctx))


@dataclass
class ValidationOutcome:
    """The CCMgr's full record of one constraint validation."""

    constraint: Constraint
    degree: SatisfactionDegree
    category: CheckCategory
    accessed: list[Entity] = field(default_factory=list)
    stale: list[Entity] = field(default_factory=list)
    unreachable: list[ObjectRef] = field(default_factory=list)
    context_ref: ObjectRef | None = None

    @property
    def is_threat(self) -> bool:
        return self.degree.is_threat
