"""Constraint consistency manager (CCMgr) — §4.2.3, Fig. 4.4.

The CCMgr is the new middleware service introduced for balancing integrity
and availability.  It is notified by the invocation service before and
after method invocations, asks the constraint repository for the method's
:class:`~repro.core.repository.MethodDispatch` — its one query, the same
for every repository strategy — reads the affected preconditions,
postconditions and invariants off it, and triggers their validation.
It registers as a transactional resource so soft constraints are validated
at transaction commit and any violation (or rejected threat) marks the
transaction rollback-only.

In degraded mode it gathers the objects accessed during each validation,
asks the replication manager which of them were possibly stale or
unreachable (only while its staleness gate is open: a healthy system has
nothing stale), degrades the validation result accordingly (LCC/NCC),
negotiates the resulting consistency threat, and persists + replicates
accepted threats for the reconciliation phase.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Protocol

from ..net import NodeId, UnreachableError
from ..obs import ensure_obs
from ..objects import Entity, Invocation, ObjectNotFound, ObjectRef
from ..objects.entity import trackers
from ..tx import Transaction
from .errors import ConsistencyThreatRejected, ConstraintViolated
from .metadata import ConstraintRegistration
from .model import (
    CheckCategory,
    ConstraintScope,
    ConstraintType,
    ConstraintUncheckable,
    ConstraintValidationContext,
    SatisfactionDegree,
    ValidationOutcome,
)
from .negotiation import NegotiationResult, Negotiator
from .repository import ConstraintRepository
from .threats import ConsistencyThreat, ThreatStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..objects import Node


class StalenessProvider(Protocol):
    """Interface the replication manager implements for the CCMgr.

    Staleness exists only while the system is partitioned (§3.1), and the
    component that owns the replicas answers for it, not the CCMgr's own
    view.  ``may_be_stale`` is the gate the CCMgr asks once per
    notification; it must be True whenever ``is_possibly_stale`` could be
    True for any entity a validation on ``node`` reads, wherever that
    entity lives.  A False gate lets the CCMgr skip the per-entity
    question.
    """

    def may_be_stale(self, node: NodeId) -> bool:
        """Whether any object a validation on ``node`` reads may be stale."""

    def is_possibly_stale(self, entity: Entity) -> bool:
        """Whether this local object view may have missed remote updates."""

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        """Whether replica reconciliation detected a write-write conflict
        for this object (queried during constraint reconciliation)."""


class NullStalenessProvider:
    """No replication: local views are never stale (LCCs impossible,
    §3.1)."""

    def may_be_stale(self, node: NodeId) -> bool:
        return False

    def is_possibly_stale(self, entity: Entity) -> bool:
        return False

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        return False


class _Environment:
    """What one notification knows about its node's membership view.

    Read once per ``before_invocation`` / ``after_invocation`` /
    ``prepare``, by the first validation that needs it, and passed down
    as a local: the threaded backend runs one CCMgr's notifications on
    several threads at once, so it is never kept on the instance.
    ``stale_gate`` is the staleness provider's ``may_be_stale`` answer:
    when False, no entity is asked ``is_possibly_stale``.
    """

    __slots__ = ("partition_weight", "degraded", "stale_gate")

    def __init__(self, partition_weight: float, degraded: bool, stale_gate: bool) -> None:
        self.partition_weight = partition_weight
        self.degraded = degraded
        self.stale_gate = stale_gate


#: An accessed entity's reference, read in C.
_ref_of = attrgetter("ref")

_SOFT_PENDING_KEY = "ccm_soft_pending"
_ASYNC_PENDING_KEY = "ccm_async_pending"


class ConstraintConsistencyManager:
    """Explicit runtime constraint consistency management service."""

    def __init__(
        self,
        node: "Node",
        repository: ConstraintRepository,
        threat_store: ThreatStore,
        negotiator: Negotiator | None = None,
        staleness: StalenessProvider | None = None,
        obs: Any = None,
    ) -> None:
        self.node = node
        self.repository = repository
        self.threat_store = threat_store
        self.negotiator = negotiator if negotiator is not None else Negotiator()
        self.staleness = staleness if staleness is not None else NullStalenessProvider()
        self.obs = ensure_obs(obs)
        # Set by the cluster facade; used for partition-weight exposure and
        # degraded-mode detection.
        self.gms: Any = None
        # Callback used to replicate accepted threats to partition members
        # (§5.1 notes the threat data has to be replicated too).
        self.threat_replicator: Any = None
        # Callback used to propagate threat *resolutions*: a business
        # operation satisfying the constraint again removes the stored
        # threat (§4.4), and peers holding the replicated record must drop
        # it the same way they received it.
        self.threat_resolver: Any = None
        # Guard against infinite middleware/application loops: constraint
        # validation code may invoke entity methods through the middleware,
        # which must not trigger constraint validation again (§5.3).
        self._validating = False
        # Statistics for tests and benchmarks.
        self.stats: dict[str, int] = {
            "validations": 0,
            "threats_detected": 0,
            "threats_accepted": 0,
            "threats_rejected": 0,
            "violations": 0,
        }

    # ------------------------------------------------------------------
    # degraded-mode awareness
    # ------------------------------------------------------------------
    def _environment(self) -> _Environment:
        """Read this node's membership view and ask the staleness gate —
        the one place this module does either."""
        node_id = self.node.node_id
        stale_gate = self.staleness.may_be_stale(node_id)
        if self.gms is None:
            return _Environment(1.0, False, stale_gate)
        members = self.gms.view_of(node_id).members
        return _Environment(
            self.gms.weight_fraction(members),
            len(members) < len(self.gms.nodes),
            stale_gate,
        )

    # ------------------------------------------------------------------
    # invocation notifications (called by the CCM interceptor)
    # ------------------------------------------------------------------
    def before_invocation(self, invocation: Invocation, entity: Entity) -> None:
        if self._validating:
            return
        self.node.persistence.charge("ccm_notification")
        dispatch = self.repository.method_dispatch(
            invocation.ref.class_name, invocation.method_name
        )
        # Nothing below is built until a registration needs it: a method
        # without constraints costs its charges and nothing else.
        env: _Environment | None = None
        # Preconditions: bound to and checked before the invocation (§1.6).
        # They share one validation context — none of them snapshots @pre
        # state — so it is built once per invocation, not per registration.
        preconditions = dispatch.registrations(ConstraintType.PRECONDITION)
        if preconditions:
            tx = self._current_tx()
            env = self._environment()
            pre_ctx = self._method_context(invocation, entity, env)
            for registration in preconditions:
                outcome = self._validate(registration, pre_ctx, entity, env.stale_gate)
                self._handle_outcome(registration, outcome, pre_ctx, tx)
        # Postconditions get their @pre snapshot now (§4.2.1); the snapshot
        # lands in the context's scratch space, so these contexts stay
        # per-registration.
        postconditions = dispatch.registrations(ConstraintType.POSTCONDITION)
        if postconditions:
            env = env or self._environment()
            post_contexts = []
            for registration in postconditions:
                ctx = self._method_context(invocation, entity, env)
                registration.constraint.before_method_invocation(ctx)
                post_contexts.append((registration, ctx))
            invocation.post_contexts = post_contexts

    def after_invocation(self, invocation: Invocation, entity: Entity) -> None:
        if self._validating:
            return
        self.node.persistence.charge("ccm_notification")
        dispatch = self.repository.method_dispatch(
            invocation.ref.class_name, invocation.method_name
        )
        # As before the call: the transaction and the environment are read
        # by the first registration that needs them, and not otherwise.
        tx: Transaction | None = None
        env: _Environment | None = None
        # Postconditions: checked after the invocation with its result.
        post_contexts = invocation.post_contexts
        if post_contexts:
            tx = self._current_tx()
            env = self._environment()
            for registration, ctx in post_contexts:
                ctx.method_result = invocation.result
                outcome = self._validate(registration, ctx, entity, env.stale_gate)
                self._handle_outcome(registration, outcome, ctx, tx)
        # Hard invariants: checked at the end of the operation (§1.6).
        hard = dispatch.registrations(ConstraintType.INVARIANT_HARD)
        if hard:
            tx = tx or self._current_tx()
            env = env or self._environment()
            for registration in hard:
                self._check_invariant(registration, invocation, entity, tx, env)
        # Soft invariants: deferred to the end of the transaction [JQ92];
        # without one they are checked now, like hard ones.
        soft = dispatch.registrations(ConstraintType.INVARIANT_SOFT)
        if soft:
            tx = tx or self._current_tx()
            for registration in soft:
                if tx is None:
                    env = env or self._environment()
                    self._check_invariant(registration, invocation, entity, None, env)
                else:
                    self._defer(tx, _SOFT_PENDING_KEY, registration, invocation, entity)
        # Asynchronous invariants (§5.5.3): soft in a healthy system; in
        # degraded mode validation AND negotiation are skipped and the
        # threat is stored directly for reconciliation.
        asynchronous = dispatch.registrations(ConstraintType.INVARIANT_ASYNC)
        if asynchronous:
            tx = tx or self._current_tx()
            env = env or self._environment()
            for registration in asynchronous:
                if env.degraded:
                    context_entity = self._prepare_context(registration, invocation, entity)
                    self._store_async_threat(registration, context_entity)
                elif tx is None:
                    self._check_invariant(registration, invocation, entity, None, env)
                else:
                    self._defer(tx, _ASYNC_PENDING_KEY, registration, invocation, entity)

    # ------------------------------------------------------------------
    # TransactionalResource (2PC, §4.2.3)
    # ------------------------------------------------------------------
    def prepare(self, tx: Transaction) -> bool:
        """Validate pending soft (and healthy-mode async) invariants.

        A violation or rejected threat marks the transaction rollback-only
        and vetoes the commit.  Note the §5.3 limitation: this validation
        conceptually runs in a helper transaction that may access objects
        locked by the committing transaction — trivially true here.
        """
        env: _Environment | None = None
        for key in (_SOFT_PENDING_KEY, _ASYNC_PENDING_KEY):
            for registration, entity, invocation in tx.context.get(key, {}).values():
                env = env or self._environment()
                try:
                    self._check_invariant(registration, invocation, entity, tx, env)
                except (ConstraintViolated, ConsistencyThreatRejected):
                    return False
        return True

    def commit(self, tx: Transaction) -> None:
        tx.context.pop(_SOFT_PENDING_KEY, None)
        tx.context.pop(_ASYNC_PENDING_KEY, None)

    def rollback(self, tx: Transaction) -> None:
        tx.context.pop(_SOFT_PENDING_KEY, None)
        tx.context.pop(_ASYNC_PENDING_KEY, None)

    # ------------------------------------------------------------------
    # validation core (Fig. 4.4)
    # ------------------------------------------------------------------
    def validate_registration(
        self,
        registration: ConstraintRegistration,
        context_entity: Entity | None,
    ) -> ValidationOutcome:
        """Validate an invariant for reconciliation/explicit checks."""
        env = self._environment()
        ctx = ConstraintValidationContext(
            context_object=context_entity,
            partition_weight=env.partition_weight,
            degraded=env.degraded,
        )
        return self._validate(registration, ctx, context_entity, env.stale_gate)

    def _validate(
        self,
        registration: ConstraintRegistration,
        ctx: ConstraintValidationContext,
        context_entity: Entity | None,
        stale_gate: bool,
    ) -> ValidationOutcome:
        constraint = registration.constraint
        self.stats["validations"] += 1
        tracker: dict[ObjectRef, Entity] = {}
        trackers.append(tracker)
        self._validating = True
        degree = SatisfactionDegree.SATISFIED
        category = CheckCategory.FCC
        unreachable: list[ObjectRef] = []
        try:
            self.node.persistence.charge("constraint_validate")
            satisfied = constraint.validate(ctx)
            degree = (
                SatisfactionDegree.SATISFIED
                if satisfied
                else SatisfactionDegree.VIOLATED
            )
        except ConstraintUncheckable:
            degree = SatisfactionDegree.UNCHECKABLE
            category = CheckCategory.NCC
        except (UnreachableError, ObjectNotFound) as exc:
            degree = SatisfactionDegree.UNCHECKABLE
            category = CheckCategory.NCC
            if isinstance(exc, ObjectNotFound):
                unreachable.append(exc.ref)
        finally:
            self._validating = False
            trackers.pop()
        accessed = list(tracker.values())
        if context_entity is not None and context_entity not in accessed:
            accessed.append(context_entity)
        stale: list[Entity] = []
        if stale_gate:
            # A loop, not a comprehension: Python 3.11 enters a frame for one.
            for entity in accessed:
                if self.staleness.is_possibly_stale(entity):
                    stale.append(entity)
        if category is not CheckCategory.NCC and stale:
            # LCC: validation not fully reliable; degrade the result —
            # except for intra-object constraints: replica reconciliation
            # merges conflicting replicas by *selecting* one copy, so an
            # intra-object LCC stays reliable (§3.1).
            category = CheckCategory.LCC
            if constraint.scope is not ConstraintScope.INTRA_OBJECT:
                degree = degree.degrade_for_staleness()
        if self.obs.enabled:
            self.obs.emit(
                "validation",
                node=str(self.node.node_id),
                constraint=constraint.name,
                degree=degree,
                category=category,
                stale=len(stale),
                unreachable=len(unreachable),
            )
        return ValidationOutcome(
            constraint=constraint,
            degree=degree,
            category=category,
            accessed=accessed,
            stale=stale,
            unreachable=unreachable,
            context_ref=context_entity.ref if context_entity is not None else None,
        )

    def _handle_outcome(
        self,
        registration: ConstraintRegistration,
        outcome: ValidationOutcome,
        ctx: ConstraintValidationContext,
        tx: Transaction | None,
    ) -> None:
        constraint = registration.constraint
        if outcome.degree is SatisfactionDegree.SATISFIED:
            # §4.4: deferred clean-up by the application is detected when a
            # business operation satisfies the constraint again — the
            # stored threat is then removed from persistent storage.
            identity = (constraint.name, outcome.context_ref)
            if identity in self.threat_store:
                self.threat_store.remove(identity)
                if self.obs.enabled:
                    self._note_threat("resolved", constraint.name, outcome.degree)
                if self.threat_resolver is not None:
                    self.threat_resolver(identity)
            return
        if outcome.degree is SatisfactionDegree.VIOLATED:
            self.stats["violations"] += 1
            if tx is not None:
                tx.set_rollback_only(f"constraint {constraint.name} violated")
            raise ConstraintViolated(constraint.name, outcome.context_ref)
        # A consistency threat.  Threat events are noted only when
        # observed: an unobserved threat enters no probe frame.
        self.stats["threats_detected"] += 1
        observed = self.obs.enabled
        if observed:
            self._note_threat("detected", constraint.name, outcome.degree)
        threat = ConsistencyThreat(
            constraint_name=constraint.name,
            degree=outcome.degree,
            context_ref=outcome.context_ref,
            affected_refs=tuple(map(_ref_of, outcome.accessed)),
            timestamp=self.node.services.clock.now,
            origin_node=self.node.node_id,
        )
        if not constraint.is_tradeable():
            # Threats for non-tradeable constraints are automatically
            # rejected (§3.2).
            self.stats["threats_rejected"] += 1
            if observed:
                self._note_threat(
                    "rejected", constraint.name, outcome.degree, mechanism="non-tradeable"
                )
            if tx is not None:
                tx.set_rollback_only(
                    f"threat for non-tradeable constraint {constraint.name}"
                )
            raise ConsistencyThreatRejected(
                constraint.name, outcome.degree.name, "non-tradeable", outcome.context_ref
            )
        self.node.persistence.charge("threat_negotiate")
        result: NegotiationResult = self.negotiator.negotiate(
            constraint, threat, outcome, ctx, tx
        )
        if not result.accepted:
            self.stats["threats_rejected"] += 1
            if observed:
                self._note_threat(
                    "rejected", constraint.name, outcome.degree, mechanism=result.mechanism
                )
            if tx is not None:
                tx.set_rollback_only(
                    f"threat for constraint {constraint.name} rejected"
                )
            raise ConsistencyThreatRejected(
                constraint.name, outcome.degree.name, result.mechanism, outcome.context_ref
            )
        self.stats["threats_accepted"] += 1
        if observed:
            self._note_threat(
                "accepted", constraint.name, outcome.degree, mechanism=result.mechanism
            )
        self._persist_threat(threat)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_invariant(
        self,
        registration: ConstraintRegistration,
        invocation: Invocation,
        entity: Entity,
        tx: Transaction | None,
        env: _Environment,
    ) -> None:
        context_entity = self._prepare_context(registration, invocation, entity)
        ctx = ConstraintValidationContext(
            context_object=context_entity,
            called_object=entity,
            method_name=invocation.method_name,
            method_arguments=invocation.args,
            method_result=invocation.result,
            partition_weight=env.partition_weight,
            degraded=env.degraded,
        )
        outcome = self._validate(registration, ctx, context_entity, env.stale_gate)
        self._handle_outcome(registration, outcome, ctx, tx)

    def _prepare_context(
        self,
        registration: ConstraintRegistration,
        invocation: Invocation,
        entity: Entity,
    ) -> Entity | None:
        """Run the configured context-preparation strategy (§4.2.2)."""
        constraint = registration.constraint
        if not constraint.context_object_needed:
            return None
        preparation = registration.preparation_for(
            invocation.ref.class_name, invocation.method_name
        )
        try:
            return preparation.extract(entity)
        except (UnreachableError, ObjectNotFound):
            # Context object unreachable: the constraint is uncheckable.
            return None

    def _method_context(
        self, invocation: Invocation, entity: Entity, env: _Environment
    ) -> ConstraintValidationContext:
        return ConstraintValidationContext(
            context_object=entity,
            called_object=entity,
            method_name=invocation.method_name,
            method_arguments=invocation.args,
            partition_weight=env.partition_weight,
            degraded=env.degraded,
        )

    def _defer(
        self,
        tx: Transaction,
        key: str,
        registration: ConstraintRegistration,
        invocation: Invocation,
        entity: Entity,
    ) -> None:
        pending = tx.context.setdefault(key, {})
        pending[(registration.name, entity.ref)] = (registration, entity, invocation)
        tx.enlist(self)

    def _store_async_threat(
        self, registration: ConstraintRegistration, context_entity: Entity | None
    ) -> None:
        """§5.5.3: store the threat without validation or negotiation."""
        threat = ConsistencyThreat(
            constraint_name=registration.name,
            degree=SatisfactionDegree.UNCHECKABLE,
            context_ref=context_entity.ref if context_entity is not None else None,
            timestamp=self.node.services.clock.now,
            origin_node=self.node.node_id,
        )
        self.stats["threats_detected"] += 1
        self.stats["threats_accepted"] += 1
        if self.obs.enabled:
            self._note_threat("detected", registration.name, SatisfactionDegree.UNCHECKABLE)
            self._note_threat(
                "accepted",
                registration.name,
                SatisfactionDegree.UNCHECKABLE,
                mechanism="async-direct",
            )
        self._persist_threat(threat)

    def _note_threat(
        self,
        action: str,
        constraint_name: str,
        degree: SatisfactionDegree,
        mechanism: str | None = None,
    ) -> None:
        """Emit one threat event; callers ask only when observed."""
        self.obs.emit(
            "threat",
            node=str(self.node.node_id),
            constraint=constraint_name,
            degree=degree,
            action=action,
            mechanism=mechanism,
        )

    def _persist_threat(self, threat: ConsistencyThreat) -> None:
        self.threat_store.note(self.node.services.txmgr.current, threat.identity)
        stored, was_new = self.threat_store.record(threat)
        if was_new and self.threat_replicator is not None:
            self.threat_replicator(stored)

    def _current_tx(self) -> Transaction | None:
        current = self.node.services.txmgr.current
        if current is not None and current.is_active:
            return current
        return None
