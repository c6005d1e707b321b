"""Replication manager (§4.3).

Maintains replica placement, routes writes to the (possibly temporary)
primary, propagates updates synchronously from the primary to all reachable
backups via group communication, keeps degraded-mode state history and
update records, and detects write-write replica conflicts during the
reconciliation phase.

It also implements the CCMgr's staleness-provider interface: an object view
is possibly stale when the configured protocol says updates may have
happened in an unreachable part of the system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple

from ..membership import GroupMembershipService
from ..net import GroupChannel, Message, NodeId, SimNetwork, UnreachableError
from ..objects import Entity, Node, ObjectNotFound, ObjectRef
from ..obs import ensure_obs
from .protocols import ReplicationProtocol


class WriteAccessDenied(RuntimeError):
    """The protocol forbids writes in the caller's partition."""

    def __init__(self, ref: ObjectRef, partition: frozenset[NodeId]) -> None:
        super().__init__(
            f"write to {ref} not allowed in partition {sorted(partition)}"
        )
        self.ref = ref
        self.partition = partition


@dataclass(frozen=True)
class ReplicaInfo:
    """Placement of one replicated logical object."""

    ref: ObjectRef
    designated_primary: NodeId
    replica_nodes: tuple[NodeId, ...]


class UpdateRecord(NamedTuple):
    """One update applied somewhere during degraded mode.

    A tuple, so the manager builds one in C; a replica consistency
    handler may build its choice by keyword."""

    ref: ObjectRef
    kind: str  # "state", "create", or "delete"
    partition_key: frozenset[NodeId]
    node: NodeId
    version: int
    state: dict[str, Any] | None
    timestamp: float
    epoch: int
    record_id: int = 0  # numbered by the manager that keeps it


# ``tuple.__new__`` directly: a NamedTuple's own ``__new__`` is a Python
# function.
_record = tuple.__new__

# A record's sort keys, read in C: a tuple's field costs more to read from
# Python than an instance attribute, and reconciliation sorts every record.
_by_id = attrgetter("record_id")
_by_replay_order = attrgetter("epoch", "timestamp", "record_id")
_by_recency = attrgetter("timestamp", "version", "record_id")


@dataclass
class ReplicaConflict:
    """A write-write conflict detected during reconciliation."""

    ref: ObjectRef
    candidates: list[UpdateRecord]
    chosen: UpdateRecord | None = None


# Application callback producing a replica-consistent state from the
# conflicting candidates (Fig. 4.6).  Returning None falls back to the
# generic resolution (latest update wins).
ReplicaConsistencyHandler = Callable[[ReplicaConflict], UpdateRecord | None]


class ReplicationManager:
    """Cluster-wide replication service."""

    def __init__(
        self,
        nodes: Mapping[NodeId, Node],
        network: SimNetwork,
        gms: GroupMembershipService,
        channel: GroupChannel,
        protocol: ReplicationProtocol,
        obs: Any = None,
    ) -> None:
        self.nodes = dict(nodes)
        self.network = network
        self.gms = gms
        self.channel = channel
        self.protocol = protocol
        self.obs = ensure_obs(obs) if obs is not None else network.obs
        protocol.promotion_hook = self._note_promotion
        self._replicas: dict[ObjectRef, ReplicaInfo] = {}
        # Each node's degraded-mode update records; only its writes append.
        self._update_records: dict[NodeId, list[UpdateRecord]] = {n: [] for n in self.nodes}
        self._record_ids = itertools.count(1)
        # Record ids a coordinator reconciled but has not named to every member.
        self._unclosed: dict[NodeId, frozenset[int]] = {}
        # Objects whose write-write conflict a surviving threat may ask about.
        self._conflicted_refs: set[ObjectRef] = set()
        # The protocol's staleness answers by (designated primary, replica
        # nodes, partition); threads filling one entry at once agree.
        self._stale: dict[tuple[NodeId, tuple[NodeId, ...], frozenset[NodeId]], bool] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def is_replicated(self, ref: ObjectRef) -> bool:
        return ref in self._replicas

    def replicated_classes(self) -> list[str]:
        """Names of the classes with a replicated entity, sorted."""
        return sorted({ref.class_name for ref in self._replicas})

    def info(self, ref: ObjectRef) -> ReplicaInfo:
        try:
            return self._replicas[ref]
        except KeyError:
            raise ObjectNotFound(ref) from None

    def refs_of_class(self, class_name: str) -> list[ObjectRef]:
        """All replicated refs of one entity class, in stable order."""
        return sorted(
            (ref for ref in self._replicas if ref.class_name == class_name),
            key=str,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register_created(
        self, ref: ObjectRef, primary: NodeId, state: dict[str, Any]
    ) -> None:
        """Register a freshly created entity and replicate it.

        The primary has already created its instance; backups receive the
        (serialized) creation request.  Replica metadata — JNDI name,
        primary key, creation request — is persisted per node (§5.1).
        """
        info = ReplicaInfo(ref, primary, tuple(self.nodes))
        self._replicas[ref] = info
        self.nodes[primary].persistence.charge("replica_metadata_write")
        partition = self.gms.view_of(primary).members
        self.channel.multicast(
            primary,
            "replica-create",
            {"ref": ref, "state": state},
        )
        if self.obs.enabled:
            self.obs.emit(
                "replication_update",
                node=str(primary),
                ref=ref,
                kind="create",
                version=0,
                degraded=self._is_degraded(partition),
            )
        if self._is_degraded(partition):
            self._record_update(ref, "create", primary, 0, state, partition)

    def register_deleted(self, ref: ObjectRef, primary: NodeId) -> None:
        """Delete an entity everywhere reachable."""
        # Remove the replica bookkeeping record on the primary.
        self.nodes[primary].persistence.charge("db_write")
        partition = self.gms.view_of(primary).members
        self.channel.multicast(primary, "replica-delete", {"ref": ref})
        if self.obs.enabled:
            self.obs.emit(
                "replication_update",
                node=str(primary),
                ref=ref,
                kind="delete",
                version=0,
                degraded=self._is_degraded(partition),
            )
        if self._is_degraded(partition):
            self._record_update(ref, "delete", primary, 0, None, partition)
        else:
            self._replicas.pop(ref, None)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_write(self, ref: ObjectRef, caller: NodeId) -> NodeId:
        """The node that must execute a write issued from ``caller``."""
        info = self._replicas.get(ref) or self.info(ref)  # info() raises
        partition = self.gms.view_of(caller).members
        target = self.protocol.write_node(
            info.designated_primary, info.replica_nodes, partition
        )
        if target is None:
            raise WriteAccessDenied(ref, partition)
        return target

    def route_read(self, ref: ObjectRef, caller: NodeId) -> NodeId:
        """Reads are served locally whenever a replica exists (§4.3)."""
        info = self._replicas.get(ref) or self.info(ref)  # info() raises
        if caller in info.replica_nodes:
            return caller
        partition = self.gms.view_of(caller).members
        for node in info.replica_nodes:
            if node in partition:
                return node
        raise UnreachableError(caller, str(ref))

    # ------------------------------------------------------------------
    # update propagation
    # ------------------------------------------------------------------
    def propagate_update(self, primary: NodeId, entity: Entity) -> None:
        """Synchronously propagate the entity's state to reachable backups.

        In degraded mode the primary additionally records the intermediate
        state in its history (for reconciliation rollback) and an update
        record (for conflict detection), both noted in a transaction's
        undo map under the manager's own entry (:meth:`roll_back`).
        """
        ref = entity.ref
        if ref not in self._replicas:
            return
        # Per-update bookkeeping of replica details on the primary (§5.1).
        self.nodes[primary].persistence.charge("replica_detail_write")
        partition = self.gms.view_of(primary).members
        state = entity.state()
        self.channel.multicast(
            primary,
            "replica-update",
            {"ref": ref, "state": state, "version": entity.version},
        )
        if self.obs.enabled:
            self.obs.emit(
                "replication_update",
                node=str(primary),
                ref=ref,
                kind="state",
                version=entity.version,
                degraded=self._is_degraded(partition),
            )
        if self._is_degraded(partition):
            # The history, the update record and the backups share the one
            # snapshot ``state()`` made: none of them changes it in place.
            node = self.nodes[primary]
            entry = node.state_history.record(ref, entity.version, state)
            record = self._record_update(ref, "state", primary, entity.version, state, partition)
            tx = node.services.txmgr.current
            if tx is not None and tx.is_active:
                tx.undo.setdefault(self, []).append((entry, record))

    def roll_back(self, noted: list[tuple[Any, UpdateRecord]]) -> None:
        """Drop the history entries and update records that a rolled-back
        transaction's writes noted; uncharged, like every rollback."""
        for entry, record in noted:
            self.nodes[record.node].state_history.discard(record.ref, entry)
            self._update_records[record.node].remove(record)

    # ------------------------------------------------------------------
    # staleness (CCMgr interface)
    # ------------------------------------------------------------------
    def may_be_stale(self, node: NodeId) -> bool:
        """Whether ``node``'s view lacks a node.

        A view is the connected component of live nodes a node belongs
        to, so one full view means every live node's view is full.  Every
        replica node then lies inside the partition of whichever node
        holds the entity, and every protocol answers "not stale" for it.
        """
        return self._is_degraded(self.gms.view_of(node).members)

    def is_possibly_stale(self, entity: Entity) -> bool:
        """The protocol's answer for the entity's placement and its node's
        partition, asked once per distinct (designated primary, replica
        nodes, partition): it is a pure function of the three."""
        info = self._replicas.get(entity.ref)
        if info is None or entity.container is None:
            return False
        partition = self.gms.view_of(entity.container.node.node_id).members
        key = (info.designated_primary, info.replica_nodes, partition)
        stale = self._stale.get(key)
        if stale is None:
            stale = self._stale[key] = self.protocol.is_possibly_stale(*key)
        return stale

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        return ref in self._conflicted_refs

    # ------------------------------------------------------------------
    # reconciliation — replica phase (Fig. 4.6, upper half)
    # ------------------------------------------------------------------
    def reconcile_replicas(
        self,
        merged_partition: frozenset[NodeId],
        handler: ReplicaConsistencyHandler | None = None,
    ) -> list[ReplicaConflict]:
        """Propagate missed updates and resolve write-write conflicts.

        For every object updated during degraded mode, the recorded
        updates are grouped by the partition in which they happened.
        Disjoint partitions that both updated the object constitute a
        write-write conflict, resolved by the application-provided replica
        consistency handler (or generically: the latest update wins).  The
        chosen state is applied to every replica in the merged partition.
        Returns the conflicts found.  The coordinator, ``min(merged_partition)``,
        gathers the members' records in one ``replica-records`` round.
        """
        coordinator = min(merged_partition)
        replies = self.channel.multicast(coordinator, "replica-records")
        gathered = self._update_records[coordinator] + [
            r for node in sorted(replies) if node in merged_partition for r in replies[node]
        ]
        # Records a cut closing round left behind are named again, not merged again.
        unclosed = self._unclosed.get(coordinator, frozenset())
        self._unclosed[coordinator] = unclosed | {r.record_id for r in gathered}
        by_ref: dict[ObjectRef, list[UpdateRecord]] = {}
        for record in sorted(gathered, key=_by_id):
            if record.record_id not in unclosed:
                by_ref.setdefault(record.ref, []).append(record)
        conflicts: list[ReplicaConflict] = []
        for ref in sorted(by_ref, key=str):
            records = by_ref[ref]
            resolved = self._reconcile_object(ref, records, merged_partition, handler)
            if resolved is not None:
                conflicts.append(resolved)
        self._conflicted_refs.update(conflict.ref for conflict in conflicts)
        if self.obs.enabled and conflicts:
            for conflict in conflicts:
                self.obs.emit(
                    "replication_conflict",
                    ref=conflict.ref,
                    candidates=len(conflict.candidates),
                    chosen_node=(
                        str(conflict.chosen.node) if conflict.chosen is not None else None
                    ),
                )
        return conflicts

    def finish_reconciliation(
        self, merged_partition: frozenset[NodeId], surviving_refs: set[ObjectRef]
    ) -> set[NodeId]:
        """Keep conflicts and history only of ``surviving_refs`` (deferred /
        postponed threats re-evaluate them later) and drop the gathered
        records: one ``replica-reconciled`` round, applied by each member's
        handler.  Returns the nodes that applied it; a member it missed keeps
        both until the coordinator next reconciles the group."""
        coordinator = min(merged_partition)
        self._conflicted_refs.intersection_update(surviving_refs)
        refs, records = frozenset(surviving_refs), self._unclosed.pop(coordinator, frozenset())
        replies = self.channel.multicast(coordinator, "replica-reconciled", (refs, records))
        self._reconciled(self.nodes[coordinator], refs, records)
        applied = {node for node in replies if node in merged_partition} | {coordinator}
        if applied != merged_partition:
            self._unclosed[coordinator] = records
        return applied

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _reconcile_object(
        self,
        ref: ObjectRef,
        records: list[UpdateRecord],
        merged_partition: frozenset[NodeId],
        handler: ReplicaConsistencyHandler | None,
    ) -> ReplicaConflict | None:
        # Group the records into visibility chains.  Replaying them in
        # (epoch, time) order, a record continues an existing chain when
        # its writer node belonged to the partition that produced the
        # chain's latest record — update propagation at write time means
        # the writer saw that state.  A record whose writer saw none of
        # the chains starts a new one; two or more chains are a
        # write-write conflict.  Grouping by node-set *intersection*
        # instead masks conflicts across epochs: a node in {1,2} during
        # one epoch and {2,3} during the next would bridge two genuinely
        # independent lines of updates.
        chains: list[frozenset[NodeId]] = []  # current partition key per chain
        ordered = sorted(records, key=_by_replay_order)
        for record in ordered:
            for index, current_key in enumerate(chains):
                if record.node in current_key:
                    chains[index] = record.partition_key
                    break
            else:
                chains.append(record.partition_key)
        latest = max(records, key=_by_recency)
        conflict: ReplicaConflict | None = None
        chosen = latest
        if len(chains) > 1:
            conflict = ReplicaConflict(ref=ref, candidates=list(records))
            if handler is not None:
                selected = handler(conflict)
                if selected is not None:
                    chosen = selected
            conflict.chosen = chosen
        coordinator = min(merged_partition)
        self._apply_everywhere(ref, chosen, coordinator)
        if self._is_degraded(merged_partition):
            # A partial heal: the merge result is itself a degraded-mode
            # update of the (still minority) merged partition.  Keep a
            # record so a later, fuller merge propagates it — or detects
            # a genuine conflict with the other side's updates.  The
            # original write time is kept: merge time says nothing about
            # which concurrent update is newer.  The coordinator holds it.
            self._update_records[coordinator].append(
                UpdateRecord(
                    ref=ref,
                    kind=chosen.kind,
                    partition_key=merged_partition,
                    node=chosen.node if chosen.node in merged_partition else coordinator,
                    version=chosen.version,
                    state=chosen.state,
                    timestamp=chosen.timestamp,
                    epoch=self.gms.epoch,
                    record_id=next(self._record_ids),
                )
            )
        return conflict

    def _apply_everywhere(self, ref: ObjectRef, record: UpdateRecord, source: NodeId) -> None:
        """Apply the chosen record to ``source``'s copy and multicast it."""
        if record.kind == "delete":
            kind, payload = "replica-delete", {"ref": ref}
            self._replicas.pop(ref, None)
        else:
            kind = "replica-create" if record.kind == "create" else "replica-update"
            payload = {"ref": ref, "state": record.state, "version": record.version}
        self.channel.multicast(source, kind, payload)
        self._apply_replica(self.nodes[source], kind, payload)

    def _record_update(
        self,
        ref: ObjectRef,
        kind: str,
        node: NodeId,
        version: int,
        state: dict[str, Any] | None,
        partition: frozenset[NodeId],
    ) -> UpdateRecord:
        record = _record(
            UpdateRecord,
            (
                ref, kind, partition, node, version, state,
                self.nodes[node].services.clock.now, self.gms.epoch, next(self._record_ids),
            ),
        )
        self._update_records[node].append(record)
        return record

    def pending_update_records(self) -> list[UpdateRecord]:
        records = (r for node_records in self._update_records.values() for r in node_records)
        return sorted(records, key=_by_id)

    def _note_promotion(self, temporary: NodeId) -> None:
        """Protocol callback: a temporary primary replaced the designated
        one (the P4 promotion of §4.3)."""
        if self.obs.enabled:
            self.obs.emit(
                "primary_promotion",
                node=str(temporary),
                protocol=self.protocol.name,
            )

    def _is_degraded(self, partition: frozenset[NodeId]) -> bool:
        return len(partition) < len(self.network.nodes)

    def make_member_handler(self, node_id: NodeId) -> Callable[[Message], Any]:
        node = self.nodes[node_id]

        def handle(message: Message) -> Any:
            payload = message.payload or {}
            kind = message.kind
            if kind == "replica-update":
                # Associate the propagated transaction context and apply
                # the update within it (§4.3).
                node.persistence.charge("tx_remote_association")
                return self._apply_replica(node, kind, payload)
            if kind == "replica-create":
                node.persistence.charge("replica_metadata_write")
                return self._apply_replica(node, kind, payload)
            if kind == "replica-delete":
                return self._apply_replica(node, kind, payload)
            # Reconciliation rounds; the coordinator reads its own state directly.
            if kind == "replica-records":
                return list(self._update_records[node_id])
            if kind == "replica-history":
                return node.state_history.versions_of(payload)
            if kind == "replica-reconciled":
                return self._reconciled(node, *payload)
            return "ignored"

        return handle

    def _reconciled(self, node: Node, refs: frozenset[ObjectRef], records: frozenset[int]) -> str:
        """Drop ``node``'s history outside ``refs`` and its ``records``."""
        for ref in node.state_history.objects():
            if ref not in refs:
                node.state_history.prune(ref)
        own = self._update_records[node.node_id]
        own[:] = [record for record in own if record.record_id not in records]
        return "ack"

    def _apply_replica(self, node: Node, kind: str, payload: Mapping[str, Any]) -> str:
        """Apply one replica create / update / delete to ``node``'s copy —
        a backup's (member handlers) or that of the
        node reconciliation multicasts from.  Returns ``"ack"``, or
        ``"missing"`` when an update finds no replica to apply to."""
        ref: ObjectRef = payload["ref"]
        if kind == "replica-create":
            if not node.container.has(ref):
                node.container.create(ref.class_name, ref.oid, payload.get("state") or {})
            return "ack"
        if kind == "replica-delete":
            if node.container.has(ref):
                node.container.remove(ref)
            return "ack"
        try:
            entity = node.container.resolve(ref)
        except ObjectNotFound:
            return "missing"
        version, updated = entity.version, entity.last_update_time
        replaced = entity.apply_state(payload["state"], version=payload.get("version"))
        node.persistence.table("entities").put(
            (ref.class_name, ref.oid), payload["state"]
        )
        tx = node.services.txmgr.current
        if tx is not None and tx.is_active and entity not in tx.undo:
            tx.undo[entity] = (replaced, version, updated)
        return "ack"
