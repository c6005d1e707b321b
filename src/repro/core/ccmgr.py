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
unreachable, degrades the validation result accordingly (LCC/NCC),
negotiates the resulting consistency threat, and persists + replicates
accepted threats for the reconciliation phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from ..net import UnreachableError
from ..obs import ensure_obs
from ..objects import (
    Entity,
    Invocation,
    ObjectAccessTracker,
    ObjectNotFound,
    ObjectRef,
    pop_tracker,
    push_tracker,
)
from ..tx import Transaction
from .errors import ConsistencyThreatRejected, ConstraintViolated, OperationShedded
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
from .repository import ConstraintRepository, MethodDispatch
from .threats import ConsistencyThreat, ThreatStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..objects import Node


class StalenessProvider(Protocol):
    """Interface the replication manager implements for the CCMgr."""

    def is_possibly_stale(self, entity: Entity) -> bool:
        """Whether this local object view may have missed remote updates."""

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        """Whether replica reconciliation detected a write-write conflict
        for this object (queried during constraint reconciliation)."""


class NullStalenessProvider:
    """No replication: local views are never stale (LCCs impossible,
    §3.1)."""

    def is_possibly_stale(self, entity: Entity) -> bool:
        return False

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        return False


@dataclass
class CCMConfig:
    """Static configuration of the constraint consistency service."""

    # If replica reconciliation merges conflicting replicas by *selecting*
    # one copy, LCCs on intra-object constraints stay reliable (§3.1).
    merge_by_selection: bool = True
    # Replicate accepted threats to the partition members (§5.1 notes the
    # threat data has to be replicated too).
    replicate_threats: bool = True
    # §5.5.3 asynchronous constraints: skip validation AND negotiation in
    # degraded mode, storing the threat directly for reconciliation.
    async_skip_validation_in_degraded: bool = True


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
        config: CCMConfig | None = None,
        obs: Any = None,
    ) -> None:
        self.node = node
        self.repository = repository
        self.threat_store = threat_store
        self.negotiator = negotiator if negotiator is not None else Negotiator()
        self.staleness = staleness if staleness is not None else NullStalenessProvider()
        self.config = config if config is not None else CCMConfig()
        self.obs = ensure_obs(obs)
        self._m_validations = self.obs.registry.counter(
            "ccm_validations_total", "constraint validations, by degree and category"
        )
        self._m_threats = self.obs.registry.counter(
            "ccm_threats_total", "consistency threats, by action taken"
        )
        self._m_violations = self.obs.registry.counter(
            "ccm_violations_total", "definite constraint violations"
        )
        self._m_shed = self.obs.registry.counter(
            "adapt_shed_ops_total", "tradeable writes refused while shedding load"
        )
        # Set by the cluster facade; used for partition-weight exposure and
        # degraded-mode detection.
        self.gms: Any = None
        # Callback used to replicate accepted threats to partition members.
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
        # Graceful degradation (adaptation loop): while set, invocations
        # affecting at least one tradeable constraint are refused up front
        # with OperationShedded — no validation, no negotiation, no threat.
        self.shed_tradeable_writes = False
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
    def is_degraded(self) -> bool:
        """Whether this node currently perceives node/link failures."""
        if self.gms is None:
            return False
        view = self.gms.view_of(self.node.node_id)
        return len(view.members) < len(self.gms.network.nodes)

    def partition_weight(self) -> float:
        if self.gms is None:
            return 1.0
        return self.gms.partition_weight_fraction(self.node.node_id)

    # ------------------------------------------------------------------
    # invocation notifications (called by the CCM interceptor)
    # ------------------------------------------------------------------
    def before_invocation(self, invocation: Invocation, entity: Entity) -> None:
        if self._validating:
            return
        self.node.persistence.charge("ccm_notification")
        tx = self._current_tx()
        class_name = invocation.ref.class_name
        method = invocation.method_name
        dispatch = self.repository.method_dispatch(class_name, method)
        if self.shed_tradeable_writes:
            self._maybe_shed(invocation, tx, dispatch)
        # Preconditions: bound to and checked before the invocation (§1.6).
        # They share one validation context — none of them snapshots @pre
        # state — so it is built once per invocation, not per registration.
        pre_ctx: ConstraintValidationContext | None = None
        for registration in dispatch.registrations(ConstraintType.PRECONDITION):
            if pre_ctx is None:
                pre_ctx = self._method_context(invocation, entity)
            outcome = self._validate(registration, pre_ctx, entity)
            self._handle_outcome(registration, outcome, pre_ctx, tx)
        # Postconditions get their @pre snapshot now (§4.2.1); the snapshot
        # lands in the context's scratch space, so these contexts stay
        # per-registration.
        post_contexts: list[tuple[ConstraintRegistration, ConstraintValidationContext]] = []
        for registration in dispatch.registrations(ConstraintType.POSTCONDITION):
            ctx = self._method_context(invocation, entity)
            registration.constraint.before_method_invocation(ctx)
            post_contexts.append((registration, ctx))
        invocation.metadata["ccm_post_contexts"] = post_contexts

    def after_invocation(self, invocation: Invocation, entity: Entity) -> None:
        if self._validating:
            return
        self.node.persistence.charge("ccm_notification")
        tx = self._current_tx()
        class_name = invocation.ref.class_name
        method = invocation.method_name
        dispatch = self.repository.method_dispatch(class_name, method)
        # Postconditions: checked after the invocation with its result.
        for registration, ctx in invocation.metadata.get("ccm_post_contexts", ()):
            ctx.method_result = invocation.result
            outcome = self._validate(registration, ctx, entity)
            self._handle_outcome(registration, outcome, ctx, tx)
        # Hard invariants: checked at the end of the operation (§1.6).
        for registration in dispatch.registrations(ConstraintType.INVARIANT_HARD):
            self._check_invariant(registration, invocation, entity, tx)
        # Soft invariants: deferred to the end of the transaction [JQ92].
        for registration in dispatch.registrations(ConstraintType.INVARIANT_SOFT):
            self._defer(tx, _SOFT_PENDING_KEY, registration, invocation, entity)
        # Asynchronous invariants (§5.5.3): soft in a healthy system; in
        # degraded mode the threat is stored directly without validation.
        for registration in dispatch.registrations(ConstraintType.INVARIANT_ASYNC):
            if self.is_degraded() and self.config.async_skip_validation_in_degraded:
                context_entity = self._prepare_context(registration, invocation, entity)
                self._store_async_threat(registration, context_entity)
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
        for key in (_SOFT_PENDING_KEY, _ASYNC_PENDING_KEY):
            for registration, entity, invocation in tx.context.get(key, {}).values():
                try:
                    self._check_invariant(registration, invocation, entity, tx)
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
        ctx = ConstraintValidationContext(
            context_object=context_entity,
            partition_weight=self.partition_weight(),
            degraded=self.is_degraded(),
        )
        return self._validate(registration, ctx, context_entity)

    def _validate(
        self,
        registration: ConstraintRegistration,
        ctx: ConstraintValidationContext,
        context_entity: Entity | None,
    ) -> ValidationOutcome:
        constraint = registration.constraint
        self.stats["validations"] += 1
        tracker = ObjectAccessTracker()
        push_tracker(tracker)
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
            pop_tracker()
        accessed = list(tracker.accessed)
        if context_entity is not None and context_entity not in accessed:
            accessed.append(context_entity)
        stale = [entity for entity in accessed if self.staleness.is_possibly_stale(entity)]
        if category is not CheckCategory.NCC and stale:
            # LCC: validation not fully reliable; degrade the result —
            # except for intra-object constraints under merge-by-selection
            # reconciliation (§3.1).
            category = CheckCategory.LCC
            intra_safe = (
                constraint.scope is ConstraintScope.INTRA_OBJECT
                and self.config.merge_by_selection
            )
            if not intra_safe:
                degree = degree.degrade_for_staleness()
        if self.obs.enabled:
            self._m_validations.inc(degree=degree.name, category=category.name)
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
                self._note_threat("resolved", constraint.name, outcome.degree)
                if (
                    self.config.replicate_threats
                    and self.threat_resolver is not None
                ):
                    self.threat_resolver(identity)
            return
        if outcome.degree is SatisfactionDegree.VIOLATED:
            self.stats["violations"] += 1
            self._m_violations.inc(constraint=constraint.name)
            if tx is not None:
                tx.set_rollback_only(f"constraint {constraint.name} violated")
            raise ConstraintViolated(constraint.name, outcome.context_ref)
        # A consistency threat.
        self.stats["threats_detected"] += 1
        self._note_threat("detected", constraint.name, outcome.degree)
        threat = ConsistencyThreat(
            constraint_name=constraint.name,
            degree=outcome.degree,
            context_ref=outcome.context_ref,
            affected_refs=tuple(entity.ref for entity in outcome.accessed),
            timestamp=self.node.services.clock.now,
            origin_node=self.node.node_id,
        )
        if not constraint.is_tradeable():
            # Threats for non-tradeable constraints are automatically
            # rejected (§3.2).
            self.stats["threats_rejected"] += 1
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
        self._note_threat(
            "accepted", constraint.name, outcome.degree, mechanism=result.mechanism
        )
        self._persist_threat(threat)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _maybe_shed(
        self,
        invocation: Invocation,
        tx: Transaction | None,
        dispatch: MethodDispatch,
    ) -> None:
        """Refuse the invocation when load shedding is active and any
        affected constraint is tradeable (the op could only proceed by
        accumulating more threat backlog — exactly what shedding stops).
        Non-tradeable work passes through: critical constraints still
        guard it and reads carry no affected constraints at all."""
        if not dispatch.any_tradeable():
            return
        class_name = invocation.ref.class_name
        method = invocation.method_name
        if self.obs.enabled:
            self._m_shed.inc(method=f"{class_name}.{method}")
            self.obs.emit(
                "adapt_shed",
                node=str(self.node.node_id),
                ref=invocation.ref,
                method=method,
            )
        if tx is not None:
            tx.set_rollback_only(f"tradeable write {class_name}.{method} shed")
        raise OperationShedded(class_name, method, invocation.ref)

    def _check_invariant(
        self,
        registration: ConstraintRegistration,
        invocation: Invocation,
        entity: Entity,
        tx: Transaction | None,
    ) -> None:
        context_entity = self._prepare_context(registration, invocation, entity)
        ctx = ConstraintValidationContext(
            context_object=context_entity,
            called_object=entity,
            method_name=invocation.method_name,
            method_arguments=invocation.args,
            method_result=invocation.result,
            partition_weight=self.partition_weight(),
            degraded=self.is_degraded(),
        )
        outcome = self._validate(registration, ctx, context_entity)
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
        self, invocation: Invocation, entity: Entity
    ) -> ConstraintValidationContext:
        return ConstraintValidationContext(
            context_object=entity,
            called_object=entity,
            method_name=invocation.method_name,
            method_arguments=invocation.args,
            partition_weight=self.partition_weight(),
            degraded=self.is_degraded(),
        )

    def _defer(
        self,
        tx: Transaction | None,
        key: str,
        registration: ConstraintRegistration,
        invocation: Invocation,
        entity: Entity,
    ) -> None:
        if tx is None:
            # No transaction: validate immediately (degenerates to hard).
            self._check_invariant(registration, invocation, entity, None)
            return
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
        if not self.obs.enabled:
            return
        self._m_threats.inc(action=action)
        self.obs.emit(
            "threat",
            node=str(self.node.node_id),
            constraint=constraint_name,
            degree=degree,
            action=action,
            mechanism=mechanism,
        )

    def _persist_threat(self, threat: ConsistencyThreat) -> None:
        stored, was_new = self.threat_store.record(threat)
        if was_new and self.config.replicate_threats and self.threat_replicator is not None:
            self.threat_replicator(stored)

    def _current_tx(self) -> Transaction | None:
        current = self.node.services.txmgr.current
        if current is not None and current.is_active:
            return current
        return None
