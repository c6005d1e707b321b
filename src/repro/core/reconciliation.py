"""Reconciliation phase (§3.3, §4.4, Fig. 4.6).

After node or link failures are repaired, the system re-establishes a
consistent state in two steps:

1. **Replica reconciliation** — the replication service propagates missed
   updates between the reunified partitions and resolves write-write
   conflicts via the application's replica consistency handler.  Threat
   records, being replicated data themselves, are propagated too — which
   is why the full-history threat policy makes this phase scale worse
   (Fig. 5.6).
2. **Constraint reconciliation** — the CCMgr re-evaluates accepted
   consistency threats:

   * *satisfied* → the threat and all identical threats are removed (the
     application is notified if a replica conflict occurred and the threat
     asked for notification);
   * *violated* → rollback to a consistent historical state when the
     threat's instructions allow it, otherwise a callback to the
     application-provided constraint reconciliation handler (immediate
     clean-up returns ``True``; deferred clean-up returns ``False`` and is
     recorded persistently);
   * *still threatened* → re-evaluation is postponed until further
     partitions reunify.

The manager asks the group membership service, never the network, what the
partitions are: a node's view id changes exactly when its membership does,
and each node remembers the view its group was last reconciled in.  A
reconciliation run processes **every** merged partition group whose
membership changed since it was last reconciled — a partial heal that merges two
minority partitions is reconciled even while a larger partition exists
elsewhere.  The group's coordinator, ``min(merged)``, touches only its own
``Node``, threat store and update records; the others change in their own
handlers.  Threat records propagate by digest anti-entropy: each member
answers the coordinator's digest with its own and with the records the
coordinator lacks, and each member still missing records gets them in one
``threat-sync`` message.  Resolved threats leave the other stores in one
``threat-resolved`` round, and the members' rollback history arrives in
one ``replica-history`` round per rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..membership import GroupMembershipService
from ..net import (
    THREAT_DIGEST,
    THREAT_RESOLVED,
    THREAT_SYNC,
    GroupChannel,
    NodeId,
    SimNetwork,
)
from ..objects import Node, ObjectRef
from .ccmgr import ConstraintConsistencyManager
from .model import SatisfactionDegree
from .repository import ConstraintRepository
from .threats import ConsistencyThreat, ThreatIdentity, ThreatStore


# Calls a handler gets to make good on a claimed immediate clean-up (each
# is re-validated) before the threat is recorded as deferred.
MAX_HANDLER_RETRIES = 3


@dataclass
class ConstraintViolationReport:
    """Information handed to the constraint reconciliation handler.

    ``context_entity`` is the reconciliation coordinator's live view of
    the context object — handlers that clean up immediately should mutate
    this entity (its state is broadcast to all replicas once the
    constraint re-validates as satisfied).
    """

    threat: ConsistencyThreat
    context_ref: ObjectRef | None
    had_replica_conflict: bool
    context_entity: Any = None


# Returns True when the inconsistency is solved immediately, False for
# deferred reconciliation under the application's responsibility (§4.4).
ConstraintReconciliationHandler = Callable[[ConstraintViolationReport], bool]


@dataclass
class ReconciliationReport:
    """Outcome and timing of one reconciliation run.

    A run may reconcile several independently merged partition groups; the
    top-level counters aggregate over all of them, with the per-group
    breakdown kept in :attr:`groups`.
    """

    merged_partition: frozenset[NodeId] = frozenset()
    replica_conflicts: int = 0
    threats_reevaluated: int = 0
    satisfied_removed: int = 0
    violations_found: int = 0
    resolved_by_rollback: int = 0
    resolved_by_handler: int = 0
    deferred: int = 0
    postponed: int = 0
    updates_rolled_back: int = 0
    conflict_notifications: int = 0
    threat_sync_batches: int = 0
    threat_sync_records: int = 0
    replica_phase_seconds: float = 0.0
    constraint_phase_seconds: float = 0.0
    epoch: int = 0
    groups: tuple["ReconciliationReport", ...] = ()

    _SUMMED = (
        "replica_conflicts",
        "threats_reevaluated",
        "satisfied_removed",
        "violations_found",
        "resolved_by_rollback",
        "resolved_by_handler",
        "deferred",
        "postponed",
        "updates_rolled_back",
        "conflict_notifications",
        "threat_sync_batches",
        "threat_sync_records",
        "replica_phase_seconds",
        "constraint_phase_seconds",
    )

    @classmethod
    def aggregate(cls, reports: Iterable["ReconciliationReport"]) -> "ReconciliationReport":
        """Combine per-group reports into one run-level report."""
        reports = tuple(reports)
        combined = cls(groups=reports)
        merged: frozenset[NodeId] = frozenset()
        for report in reports:
            merged |= report.merged_partition
            combined.epoch = max(combined.epoch, report.epoch)
            for name in cls._SUMMED:
                setattr(combined, name, getattr(combined, name) + getattr(report, name))
        combined.merged_partition = merged
        return combined


class ReconciliationManager:
    """Drives the two reconciliation steps for one cluster."""

    def __init__(
        self,
        nodes: Mapping[NodeId, Node],
        network: SimNetwork,
        gms: GroupMembershipService,
        channel: GroupChannel,
        repository: ConstraintRepository,
        threat_stores: Mapping[NodeId, ThreatStore],
        ccmgrs: Mapping[NodeId, ConstraintConsistencyManager],
        replication: Any = None,
    ) -> None:
        self.nodes = dict(nodes)
        self.network = network
        self.gms = gms
        self.channel = channel
        self.repository = repository
        self.threat_stores = dict(threat_stores)
        self.ccmgrs = dict(ccmgrs)
        self.replication = replication
        # Called when a satisfied threat had a replica conflict and asked
        # for notification (§3.3).
        self.on_conflict_notification: Callable[[ConsistencyThreat], None] | None = None
        self.obs = network.obs
        # The view each node's group was last reconciled in (or, for a
        # singleton, last seen in).
        self._reconciled_view: dict[NodeId, int] = {
            node: gms.view_of(node).view_id for node in self.nodes
        }

    def due_groups(self) -> list[frozenset[NodeId]]:
        """Partition groups that need reconciliation, largest first.

        A group is due when any member's view changed since that member
        was last reconciled, or when its coordinator still stores threats
        (burst loss can record threats without any topology change; threats
        and resolutions are group multicasts, which link faults do not
        touch, so an unchanged view's members hold the same identities).
        Singleton groups have nothing to merge; they are marked as seen
        without being reconciled — when they later reunify, the merge
        itself gives them a new view again.
        """
        due: list[frozenset[NodeId]] = []
        for group in self.gms.groups():
            if len(group) < 2:
                for node in group:
                    self._reconciled_view[node] = self.gms.view_of(node).view_id
                continue
            changed = any(
                self.gms.view_of(node).view_id != self._reconciled_view[node]
                for node in group
            )
            coordinator = min(group)
            if changed or self.threat_stores[coordinator].count_identities():
                due.append(group)
        return due

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def reconcile_group(
        self,
        merged: frozenset[NodeId],
        replica_handler: Any = None,
        constraint_handler: ConstraintReconciliationHandler | None = None,
    ) -> ReconciliationReport:
        """Run both reconciliation phases for one merged partition group."""
        epoch = self.gms.epoch
        report = ReconciliationReport(merged_partition=merged, epoch=epoch)
        coordinator = min(merged)
        clock = self.nodes[coordinator].services.clock
        if self.obs.enabled:
            self.obs.emit(
                "reconcile_group",
                node=str(coordinator),
                members=merged,
                epoch=epoch,
            )

        started = clock.now
        if self.replication is not None:
            conflicts = self.replication.reconcile_replicas(merged, replica_handler)
            report.replica_conflicts = len(conflicts)
        self._propagate_threats(merged, report)
        report.replica_phase_seconds = clock.now - started

        started = clock.now
        self.reconcile_constraints(merged, constraint_handler, report)
        report.constraint_phase_seconds = clock.now - started
        # Deferred and postponed threats are re-evaluated on a later run:
        # their objects must keep answering ``had_replica_conflict`` and
        # keep the rollback history of this degraded period.  Every other
        # object's history is of a period now reconciled, and is dropped.
        surviving = self._surviving_refs(self.threat_stores[coordinator])
        closed = merged
        if self.replication is not None:
            closed = self.replication.finish_reconciliation(merged, surviving)
        # A member that missed the closing round stays due.
        for node in closed:
            self._reconciled_view[node] = self.gms.view_of(node).view_id
        return report

    @staticmethod
    def _surviving_refs(store: ThreatStore) -> set[ObjectRef]:
        """Objects of the threats the coordinator still stores (after the
        digest round, every member stores the same identities)."""
        threats = [t for identity in store.identities() for t in store.occurrences_of(identity)]
        return {r for t in threats for r in (*t.affected_refs, t.context_ref) if r is not None}

    # ------------------------------------------------------------------
    # threat propagation (part of the replica phase)
    # ------------------------------------------------------------------
    def _propagate_threats(
        self, merged: frozenset[NodeId], report: ReconciliationReport
    ) -> None:
        """Union the threat stores of the reunified partition.

        Digest anti-entropy: the coordinator multicasts its digest
        (identity → record ids / occurrence count) and applies the records
        the members' replies offer; each member still missing records gets
        them in one ``threat-sync`` message naming it, which its own
        handler applies.  Applying a record still pays the full persist
        cost on the receiving store — the cost that makes full-history
        storage expensive to reconcile — but the message count is one
        round plus one per member missing records, not nodes × threats.
        """
        coordinator = min(merged)
        store = self.threat_stores[coordinator]
        replies = self.channel.multicast(coordinator, THREAT_DIGEST, store.digest())
        # A member's reply is (its digest, its records the coordinator lacks).
        members = sorted(node for node in replies if node in merged)
        offered = [threat for node in members for threat in replies[node][1]]
        applied = store.apply_synced(offered)
        if applied:
            self._count_sync(report, coordinator, members[0], applied)
        for node in members:
            records = tuple(store.missing_from(replies[node][0]))
            if records:
                self.channel.multicast(coordinator, THREAT_SYNC, (node, records))
                self._count_sync(report, node, coordinator, len(records))

    def _count_sync(
        self, report: ReconciliationReport, node: NodeId, source: NodeId, records: int
    ) -> None:
        report.threat_sync_batches += 1
        report.threat_sync_records += records
        if self.obs.enabled:
            self.obs.emit("threat_sync", node=str(node), source=str(source), records=records)

    # ------------------------------------------------------------------
    # constraint phase
    # ------------------------------------------------------------------
    def reconcile_constraints(
        self,
        merged: frozenset[NodeId],
        handler: ConstraintReconciliationHandler | None,
        report: ReconciliationReport,
    ) -> None:
        """The constraint phase (§4.4): re-evaluate the pending threats of
        ``min(merged)`` with that node's own CCMgr, counting into ``report``.
        Resolved threats leave the coordinator's store at once and the other
        members' stores in one ``threat-resolved`` round at the end.  A
        process-backend worker calls it on its single-node cluster."""
        coordinator = min(merged)
        ccmgr = self.ccmgrs[coordinator]
        store = self.threat_stores[coordinator]
        resolved: list[ThreatIdentity] = []

        def resolve(identity: ThreatIdentity) -> None:
            store.remove(identity)
            resolved.append(identity)

        for threat in list(store.pending()):
            report.threats_reevaluated += 1
            identity = threat.identity
            if not self.repository.knows(threat.constraint_name):
                # Constraint was removed at runtime; nothing to re-check.
                resolve(identity)
                continue
            registration = self.repository.by_name(threat.constraint_name)
            context_entity = self._resolve_context(coordinator, threat.context_ref)
            if threat.context_ref is not None and context_entity is None:
                report.postponed += 1
                continue
            outcome = ccmgr.validate_registration(registration, context_entity)
            if outcome.is_threat:
                # At least one affected object is still unreachable or
                # stale: postpone until further partitions reunify.
                report.postponed += 1
                continue
            if outcome.degree is SatisfactionDegree.SATISFIED:
                report.satisfied_removed += 1
                had_conflict = self._had_conflict(threat)
                if had_conflict and threat.instructions.notify_on_replica_conflict:
                    report.conflict_notifications += 1
                    if self.on_conflict_notification is not None:
                        self.on_conflict_notification(threat)
                resolve(identity)
                continue
            # Violated.
            report.violations_found += 1
            if threat.instructions.allow_rollback and self._try_rollback(
                coordinator, registration, threat, merged, report
            ):
                report.resolved_by_rollback += 1
                resolve(identity)
                continue
            if handler is None:
                report.deferred += 1
                store.mark_deferred(identity)
                continue
            violation = ConstraintViolationReport(
                threat=threat,
                context_ref=threat.context_ref,
                had_replica_conflict=self._had_conflict(threat),
                context_entity=context_entity,
            )
            solved_now = False
            for _ in range(MAX_HANDLER_RETRIES):
                if not handler(violation):
                    # Deferred reconciliation under the application's
                    # responsibility; recorded persistently (§4.4).
                    report.deferred += 1
                    store.mark_deferred(identity)
                    solved_now = True  # nothing further to do now
                    break
                context_entity = self._resolve_context(coordinator, threat.context_ref)
                outcome = ccmgr.validate_registration(registration, context_entity)
                if outcome.degree is SatisfactionDegree.SATISFIED:
                    report.resolved_by_handler += 1
                    if context_entity is not None:
                        # Make the application's clean-up visible on every
                        # replica of the reunified partition.
                        self._broadcast_state(
                            coordinator, threat.context_ref, context_entity, merged
                        )
                    resolve(identity)
                    solved_now = True
                    break
            if not solved_now:
                report.deferred += 1
                store.mark_deferred(identity)
        if resolved:
            # The other members drop what was resolved in their own handlers.
            self.channel.multicast(coordinator, THREAT_RESOLVED, tuple(resolved))

    # ------------------------------------------------------------------
    # rollback path (§3.3)
    # ------------------------------------------------------------------
    def _try_rollback(
        self,
        coordinator: NodeId,
        registration: Any,
        threat: ConsistencyThreat,
        merged: frozenset[NodeId],
        report: ReconciliationReport,
    ) -> bool:
        """Search the state history for a consistent state, newest first.

        Rolling back retrospectively reduces availability — the number of
        undone updates is reported.  Only the context object's history is
        searched; the paper notes that exploring combinations across all
        affected objects degenerates into a complex optimization problem
        and recommends the roll-forward approach instead (§5.2).
        """
        if threat.context_ref is None or self.replication is None:  # no history
            return False
        ref = threat.context_ref
        node = self.nodes[coordinator]
        if not node.container.has(ref):
            return False
        entity = node.container.resolve(ref)
        # The coordinator's own history, then the members' in one round.
        replies = self.channel.multicast(coordinator, "replica-history", ref)
        candidates = node.state_history.versions_of(ref) + [
            version for member in sorted(replies) if member in merged for version in replies[member]
        ]
        candidates.sort(key=lambda version: (-version.timestamp, -version.version))
        current_state = entity.state()
        current_version = entity.version
        ccmgr = self.ccmgrs[coordinator]
        for undone, candidate in enumerate(candidates, start=1):
            entity.apply_state(candidate.state, version=candidate.version)
            outcome = ccmgr.validate_registration(registration, entity)
            if outcome.degree is SatisfactionDegree.SATISFIED:
                report.updates_rolled_back += undone
                self._broadcast_state(coordinator, ref, entity, merged)
                return True
        entity.apply_state(current_state, version=current_version)
        return False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _broadcast_state(
        self, source: NodeId, ref: ObjectRef, entity: Any, merged: frozenset[NodeId]
    ) -> None:
        self.channel.multicast(
            source,
            "replica-update",
            {"ref": ref, "state": entity.state(), "version": entity.version},
        )
        entity.store(self.nodes[source].persistence.table("entities").put)

    def _resolve_context(self, node_id: NodeId, ref: ObjectRef | None) -> Any:
        if ref is None:
            return None
        container = self.nodes[node_id].container
        if not container.has(ref):
            return None
        return container.resolve(ref)

    def _had_conflict(self, threat: ConsistencyThreat) -> bool:
        if self.replication is None:
            return False
        refs = set(threat.affected_refs)
        if threat.context_ref is not None:
            refs.add(threat.context_ref)
        # sorted(): any() short-circuits, so the lookup order (and any
        # instrumentation it triggers) must not follow set order.
        return any(
            self.replication.had_replica_conflict(ref) for ref in sorted(refs, key=str)
        )
