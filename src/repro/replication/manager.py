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
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..membership import GroupMembershipService
from ..net import GroupChannel, Message, NodeId, SimNetwork, UnreachableError
from ..objects import Entity, Node, ObjectNotFound, ObjectRef
from ..obs import ensure_obs
from .protocols import ReplicationProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.resilience import RetryPolicy
    from ..objects import Invocation


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


@dataclass
class UpdateRecord:
    """One update applied somewhere during degraded mode."""

    _ids = itertools.count(1)

    ref: ObjectRef
    kind: str  # "state", "create", or "delete"
    partition_key: frozenset[NodeId]
    node: NodeId
    version: int
    state: dict[str, Any] | None
    timestamp: float
    epoch: int
    record_id: int = field(default_factory=lambda: next(UpdateRecord._ids))


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
        batch_updates: bool = False,
    ) -> None:
        self.nodes = dict(nodes)
        self.network = network
        self.gms = gms
        self.channel = channel
        self.protocol = protocol
        # Batched write propagation (throughput engine): update multicasts
        # issued inside one transaction are coalesced per entity and
        # shipped as a single ``replica-update-batch`` round at commit.
        self.batch_updates = batch_updates
        self._pending_updates: dict[NodeId, dict[ObjectRef, dict[str, Any]]] = {}
        self.obs = ensure_obs(obs) if obs is not None else network.obs
        self._m_updates = self.obs.registry.counter(
            "repl_updates_total", "primary-to-backup update rounds, by kind"
        )
        self._m_update_batches = self.obs.registry.counter(
            "repl_update_batches_total", "batched write-propagation rounds shipped"
        )
        self._m_batched_updates = self.obs.registry.counter(
            "repl_batched_updates_total", "entity updates coalesced into batched rounds"
        )
        self._m_promotions = self.obs.registry.counter(
            "repl_primary_promotions_total",
            "temporary-primary promotions (designated primary unreachable)",
        )
        self._m_conflicts = self.obs.registry.counter(
            "repl_conflicts_total", "write-write replica conflicts detected"
        )
        protocol.promotion_hook = self._note_promotion
        self.retry_policy: "RetryPolicy | None" = None
        self._retry_rng = random.Random(0)
        self._m_redirect_retries = self.obs.registry.counter(
            "repl_redirect_retries_total", "primary-redirect sends retried"
        )
        self._replicas: dict[ObjectRef, ReplicaInfo] = {}
        self._replicated_classes: set[str] = set()
        # Runtime per-class protocol overrides (adaptation actuator): a
        # class listed here routes through its own protocol instead of the
        # cluster-wide default.
        self._protocol_overrides: dict[str, ReplicationProtocol] = {}
        self._update_records: list[UpdateRecord] = []
        self.conflicts_detected: list[ReplicaConflict] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def replicate_class(self, class_name: str) -> None:
        """Mark a deployed entity class as replicated."""
        self._replicated_classes.add(class_name)

    def is_replicated(self, ref: ObjectRef) -> bool:
        return ref in self._replicas

    def is_replicated_class(self, class_name: str) -> bool:
        return class_name in self._replicated_classes

    def replicated_classes(self) -> list[str]:
        """Names of the replicated entity classes, sorted."""
        return sorted(self._replicated_classes)

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
    # runtime protocol control (adaptation actuator)
    # ------------------------------------------------------------------
    def protocol_for(self, ref: ObjectRef) -> ReplicationProtocol:
        """The protocol routing ``ref``: its class override, else the
        cluster-wide default."""
        return self._protocol_overrides.get(ref.class_name, self.protocol)

    def set_class_protocol(
        self, class_name: str, protocol: ReplicationProtocol | None
    ) -> ReplicationProtocol | None:
        """Install (or with ``None`` drop) a per-class protocol override.

        The override gets the manager's promotion hook so temporary-primary
        promotions stay observable.  Returns the previous override (``None``
        when the class was on the default), so callers can undo.
        """
        previous = self._protocol_overrides.get(class_name)
        if protocol is None:
            self._protocol_overrides.pop(class_name, None)
        else:
            protocol.promotion_hook = (
                lambda temporary, _name=protocol.name: self._note_promotion(
                    temporary, _name
                )
            )
            self._protocol_overrides[class_name] = protocol
        return previous

    def rehome_primary(self, ref: ObjectRef, new_primary: NodeId) -> NodeId:
        """Move ``ref``'s designated primary to ``new_primary``.

        The target must already hold a replica; placement itself does not
        change.  Returns the previous designated primary, so callers can
        undo.
        """
        info = self.info(ref)
        if new_primary not in info.replica_nodes:
            raise ValueError(
                f"{new_primary!r} holds no replica of {ref} "
                f"(replicas: {list(info.replica_nodes)})"
            )
        self._replicas[ref] = ReplicaInfo(
            ref=ref,
            designated_primary=new_primary,
            replica_nodes=info.replica_nodes,
        )
        return info.designated_primary

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
        # Ship any coalesced state updates first so backups never observe
        # a create ordered before the writes that preceded it.
        self.flush_updates()
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
            self._m_updates.inc(kind="create")
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
        # Pending coalesced updates (including this entity's final state)
        # must not be reordered after the delete round.
        self.flush_updates()
        # Remove the replica bookkeeping record on the primary.
        self.nodes[primary].persistence.charge("db_write")
        partition = self.gms.view_of(primary).members
        self.channel.multicast(primary, "replica-delete", {"ref": ref})
        if self.obs.enabled:
            self._m_updates.inc(kind="delete")
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
        info = self.info(ref)
        partition = self.gms.view_of(caller).members
        target = self.protocol_for(ref).write_node(
            info.designated_primary, info.replica_nodes, partition
        )
        if target is None:
            raise WriteAccessDenied(ref, partition)
        return target

    def configure_resilience(self, policy: "RetryPolicy | None", seed: int = 0) -> None:
        """Enable retrying of primary-redirect sends with ``policy``."""
        self.retry_policy = policy
        self._retry_rng = random.Random(f"repl:{seed}")

    def send_redirect(self, source: NodeId, invocation: "Invocation") -> Any:
        """Forward a write to the current primary, riding out transients.

        The write target is *recomputed per attempt*: a topology change
        during the backoff (a scripted heal, a P4 temporary-primary
        promotion) legitimately changes where the write must go.  Without
        a retry policy this is a single routed send, exactly the previous
        behaviour.
        """
        attempt = 1
        policy = self.retry_policy
        while True:
            target = self.route_write(invocation.ref, source)
            try:
                return self.network.send(source, target, "invocation", invocation)
            except UnreachableError:
                if policy is None or attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_for(attempt, self._retry_rng)
                deadline = invocation.deadline
                clock = self.network.scheduler.clock
                if deadline is not None and clock.now + delay > deadline:
                    raise
                if self.obs.enabled:
                    self._m_redirect_retries.inc()
                    self.obs.emit(
                        "retry",
                        node=str(source),
                        ref=invocation.ref,
                        method=invocation.method_name,
                        attempt=attempt,
                        delay=delay,
                        destination=target,
                    )
                self.network.scheduler.run_until(clock.now + delay)
                attempt += 1

    def route_read(self, ref: ObjectRef, caller: NodeId) -> NodeId:
        """Reads are served locally whenever a replica exists (§4.3)."""
        info = self.info(ref)
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
        record (for conflict detection).

        With :attr:`batch_updates` set and an active transaction, the
        multicast is *deferred*: the entry is coalesced per entity (last
        write wins) into a pending batch flushed as one
        ``replica-update-batch`` round when the transaction commits.
        Degraded-mode bookkeeping still happens here, at write time, so
        reconciliation sees exactly the per-write records; backups simply
        receive the net state one round later — within the same scheduler
        step, so the same partitions produce the same stale replicas.
        """
        ref = entity.ref
        if ref not in self._replicas:
            return
        # Per-update bookkeeping of replica details on the primary (§5.1).
        self.nodes[primary].persistence.charge("replica_detail_write")
        partition = self.gms.view_of(primary).members
        state = entity.state()
        tx = self._current_tx(primary)
        batched = self.batch_updates and tx is not None
        if batched:
            pending = self._pending_updates.setdefault(primary, {})
            pending[ref] = {"ref": ref, "state": state, "version": entity.version}
            tx.enlist(self)
        else:
            self.channel.multicast(
                primary,
                "replica-update",
                {"ref": ref, "state": state, "version": entity.version},
            )
        if self.obs.enabled:
            self._m_updates.inc(kind="state")
            # The ``batched`` marker only appears on deferred updates so
            # the default per-write trace stays byte-identical.
            extra = {"batched": True} if batched else {}
            self.obs.emit(
                "replication_update",
                node=str(primary),
                ref=ref,
                kind="state",
                version=entity.version,
                degraded=self._is_degraded(partition),
                **extra,
            )
        if self._is_degraded(partition):
            self.nodes[primary].state_history.record(
                ref, entity.version, state, partition_epoch=self.gms.epoch
            )
            self._record_update(ref, "state", primary, entity.version, state, partition)

    def flush_updates(self) -> int:
        """Ship every pending coalesced update batch; returns entries sent.

        One ``replica-update-batch`` multicast round is issued per source
        node holding pending entries, paying ``update_batch_entry`` per
        coalesced entity for marshalling plus the usual multicast round
        cost once — instead of one full round per entity write.  Each
        recipient acknowledges per entry.
        """
        shipped = 0
        while self._pending_updates:
            source = next(iter(self._pending_updates))
            entries = list(self._pending_updates.pop(source).values())
            node = self.nodes[source]
            for _ in entries:
                node.persistence.charge("update_batch_entry")
            replies = self.channel.multicast(
                source, "replica-update-batch", {"entries": entries}
            )
            shipped += len(entries)
            if self.obs.enabled:
                acked = sum(
                    1
                    for reply in replies.values()
                    for status in (reply.get("acks", {}) if isinstance(reply, dict) else {}).values()
                    if status == "ack"
                )
                self._m_update_batches.inc()
                self._m_batched_updates.inc(len(entries))
                self.obs.emit(
                    "replication_batch",
                    node=str(source),
                    entries=len(entries),
                    recipients=sorted(replies),
                    acked=acked,
                )
        return shipped

    # ------------------------------------------------------------------
    # TransactionalResource (batched write propagation)
    # ------------------------------------------------------------------
    def prepare(self, tx: Any) -> bool:
        return True

    def commit(self, tx: Any) -> None:
        self.flush_updates()

    def rollback(self, tx: Any) -> None:
        # Nothing was multicast yet: aborted writes simply never leave the
        # primary (per-write propagation instead ships them and relies on
        # the backups' undo log).
        self._pending_updates.clear()

    def _current_tx(self, node_id: NodeId) -> Any:
        current = self.nodes[node_id].services.txmgr.current
        if current is not None and current.is_active:
            return current
        return None

    # ------------------------------------------------------------------
    # staleness (CCMgr interface)
    # ------------------------------------------------------------------
    def is_possibly_stale(self, entity: Entity) -> bool:
        ref = entity.ref
        info = self._replicas.get(ref)
        if info is None or entity.container is None:
            return False
        node = entity.container.node.node_id
        partition = self.gms.view_of(node).members
        return self.protocol_for(ref).is_possibly_stale(
            info.designated_primary, info.replica_nodes, partition
        )

    def had_replica_conflict(self, ref: ObjectRef) -> bool:
        return any(conflict.ref == ref for conflict in self.conflicts_detected)

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
        Returns the conflicts found.
        """
        by_ref: dict[ObjectRef, list[UpdateRecord]] = {}
        remaining: list[UpdateRecord] = []
        for record in self._update_records:
            if record.node in merged_partition:
                by_ref.setdefault(record.ref, []).append(record)
            else:
                remaining.append(record)
        conflicts: list[ReplicaConflict] = []
        # Swap in the survivor list first: a still-degraded merge re-records
        # its result below, and those records must land in the live list.
        self._update_records = remaining
        for ref in sorted(by_ref, key=str):
            records = by_ref[ref]
            resolved = self._reconcile_object(ref, records, merged_partition, handler)
            if resolved is not None:
                conflicts.append(resolved)
        self.conflicts_detected.extend(conflicts)
        if self.obs.enabled and conflicts:
            self._m_conflicts.inc(len(conflicts))
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

    def clear_conflicts(self, surviving_refs: set[ObjectRef] | None = None) -> None:
        """Forget resolved conflicts (called when reconciliation ends).

        With ``surviving_refs`` given, conflicts on those objects are kept:
        deferred/postponed threats still need ``had_replica_conflict``
        answers when they are re-evaluated on a later run.
        """
        if surviving_refs is None:
            self.conflicts_detected.clear()
            return
        self.conflicts_detected = [
            conflict
            for conflict in self.conflicts_detected
            if conflict.ref in surviving_refs
        ]

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
        ordered = sorted(records, key=lambda r: (r.epoch, r.timestamp, r.record_id))
        for record in ordered:
            for index, current_key in enumerate(chains):
                if record.node in current_key:
                    chains[index] = record.partition_key
                    break
            else:
                chains.append(record.partition_key)
        latest = max(records, key=lambda r: (r.timestamp, r.version, r.record_id))
        conflict: ReplicaConflict | None = None
        chosen = latest
        if len(chains) > 1:
            conflict = ReplicaConflict(ref=ref, candidates=list(records))
            if handler is not None:
                selected = handler(conflict)
                if selected is not None:
                    chosen = selected
            conflict.chosen = chosen
        self._apply_everywhere(ref, chosen, merged_partition)
        if self._is_degraded(merged_partition):
            # A partial heal: the merge result is itself a degraded-mode
            # update of the (still minority) merged partition.  Keep a
            # record so a later, fuller merge propagates it — or detects
            # a genuine conflict with the other side's updates.  The
            # original write time is kept: merge time says nothing about
            # which concurrent update is newer.
            node = chosen.node if chosen.node in merged_partition else min(merged_partition)
            self._update_records.append(
                UpdateRecord(
                    ref=ref,
                    kind=chosen.kind,
                    partition_key=merged_partition,
                    node=node,
                    version=chosen.version,
                    state=chosen.state,
                    timestamp=chosen.timestamp,
                    epoch=self.gms.epoch,
                )
            )
        return conflict

    def _apply_everywhere(
        self, ref: ObjectRef, record: UpdateRecord, merged_partition: frozenset[NodeId]
    ) -> None:
        """Apply the chosen record to every replica in the partition."""
        source = record.node if record.node in merged_partition else min(merged_partition)
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
    ) -> None:
        self._update_records.append(
            UpdateRecord(
                ref=ref,
                kind=kind,
                partition_key=partition,
                node=node,
                version=version,
                state=state,
                timestamp=self.network.scheduler.clock.now,
                epoch=self.gms.epoch,
            )
        )

    def pending_update_records(self) -> list[UpdateRecord]:
        return list(self._update_records)

    def _note_promotion(self, temporary: NodeId, protocol_name: str | None = None) -> None:
        """Protocol callback: a temporary primary replaced the designated
        one (the P4 promotion of §4.3)."""
        if self.obs.enabled:
            name = protocol_name if protocol_name is not None else self.protocol.name
            self._m_promotions.inc(protocol=name)
            self.obs.emit(
                "primary_promotion",
                node=str(temporary),
                protocol=name,
            )

    def _is_degraded(self, partition: frozenset[NodeId]) -> bool:
        return len(partition) < len(self.network.nodes)

    def make_member_handler(self, node_id: NodeId) -> Callable[[Message], Any]:
        def handle(message: Message) -> Any:
            node = self.nodes[node_id]
            payload = message.payload or {}
            kind = message.kind
            if kind == "replica-update":
                # Associate the propagated transaction context and apply
                # the update within it (§4.3).
                node.persistence.charge("tx_remote_association")
                self._apply_replica(node, kind, payload)
                return "ack"
            if kind == "replica-update-batch":
                # One transaction-context association covers the whole
                # coalesced round; each entry is acked individually.
                node.persistence.charge("tx_remote_association")
                acks: dict[str, str] = {}
                for entry in payload.get("entries", ()):
                    acks[str(entry["ref"])] = self._apply_replica(
                        node, "replica-update", entry
                    )
                return {"acks": acks}
            if kind == "replica-create":
                node.persistence.charge("replica_metadata_write")
                return self._apply_replica(node, kind, payload)
            if kind == "replica-delete":
                return self._apply_replica(node, kind, payload)
            return "ignored"

        return handle

    def _apply_replica(self, node: Node, kind: str, payload: Mapping[str, Any]) -> str:
        """Apply one replica create / update / delete to ``node``'s copy —
        a backup's (member handlers, per write or batched) or that of the
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
        old_state = entity.state()
        old_version = entity.version
        entity.apply_state(payload["state"], version=payload.get("version"))
        node.persistence.table("entities").put(
            (ref.class_name, ref.oid), payload["state"]
        )
        tx = node.services.txmgr.current
        if tx is not None and tx.is_active:
            tx.log_undo(
                lambda e=entity, s=old_state, v=old_version: e.apply_state(s, version=v)
            )
        return "ack"
