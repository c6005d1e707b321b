"""DeDiSys cluster facade.

Wires the full middleware stack of Fig. 4.1 together: simulated network,
group membership and communication, transactions, per-node containers with
client/server interceptor chains, the constraint consistency service, the
replication service, and the reconciliation manager.  This is the main
entry point of the library:

    >>> cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c")))
    >>> cluster.deploy(Flight)
    >>> ref = cluster.create_entity("a", "Flight", "LH1", {"seats": 80})
    >>> cluster.invoke("a", ref, "set_sold", 70)
    >>> cluster.network.partition({"a"}, {"b", "c"})   # degraded mode
    ...
    >>> cluster.network.heal_all()
    >>> report = cluster.reconcile()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core import (
    CCMInterceptor,
    CachingConstraintRepository,
    CompiledConstraintRepository,
    ConstraintConsistencyManager,
    ConstraintRegistration,
    ConstraintRepository,
    Negotiator,
    NullStalenessProvider,
    ReconciliationManager,
    ReconciliationReport,
    ThreatStoragePolicy,
    ThreatStore,
    parse_xml_configuration,
    register_negotiation_handler,
)
from .core.system_mode import SystemMode, SystemModeTracker
from .membership import topology_gms
from .net import GroupChannel, Message, NodeCrashedError, NodeId, SimNetwork
from .objects import (
    ContainerInvoker,
    Entity,
    InterceptorChain,
    LocationService,
    Node,
    ObjectRef,
)
from .obs import NullObservability, Observability, ensure_obs
from .replication import (
    AdaptiveVotingProtocol,
    PersistenceInterceptor,
    PrimaryPartitionProtocol,
    PrimaryPerPartitionProtocol,
    ReplicationManager,
    ReplicationProtocol,
    ReplicationServerInterceptor,
    TransportInterceptor,
)
from .transport import build_transport
from .tx import TransactionManager


def _build_protocol(spec: str | ReplicationProtocol, total_nodes: int) -> ReplicationProtocol:
    if isinstance(spec, ReplicationProtocol):
        return spec
    name = spec.lower()
    if name in ("p4", "primary-per-partition"):
        return PrimaryPerPartitionProtocol()
    if name in ("primary-partition", "pp"):
        return PrimaryPartitionProtocol(total_nodes)
    if name in ("adaptive-voting", "voting"):
        return AdaptiveVotingProtocol()
    raise ValueError(f"unknown replication protocol {spec!r}")


@dataclass
class ClusterConfig:
    """Static configuration of a simulated cluster."""

    node_ids: Sequence[NodeId] = ("node-1", "node-2", "node-3")
    # Explicit constraint consistency management (the DeDiSys service).
    enable_ccm: bool = True
    # Replication support (P4 by default).
    enable_replication: bool = True
    protocol: str | ReplicationProtocol = "p4"
    threat_policy: ThreatStoragePolicy = ThreatStoragePolicy.IDENTICAL_ONCE
    # Repository lookup strategy: "linear" (search per query), "cached"
    # (the optimized §2.2.1 repository) or "compiled" (the
    # throughput-engine dispatch table).  The CCMgr drives all three
    # through the same ``method_dispatch`` query.
    repository: str = "cached"
    node_weights: Mapping[NodeId, float] | None = None
    # Optional observability hub (sim-time tracing).  ``None``
    # attaches the shared no-op hub: zero instrumentation state, zero
    # simulated-time cost.
    obs: Observability | NullObservability | None = None
    # Execution substrate: ``"sim"`` (deterministic discrete-event
    # simulator, the default), ``"asyncio"`` (in-process threaded
    # backend: a worker-thread pool per node on the simulator's clock and
    # scheduler, real concurrency; the name is kept, there is no event
    # loop).
    transport: str = "sim"


class DedisysCluster:
    """A simulated DeDiSys deployment."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.obs = ensure_obs(self.config.obs)
        # The transport bundles clock + scheduler + network + channel; the
        # sim backend builds them exactly as this constructor historically
        # did, so default traces stay byte-identical.
        self.transport = build_transport(
            self.config.transport, self.config.node_ids, obs=self.obs
        )
        self.clock = self.transport.clock
        self.scheduler = self.transport.scheduler
        self.obs.bind_clock(self.clock)
        self.network = self.transport.network
        # One ledger for the whole deployment: the network's, which its
        # charge function is already bound to.
        self.ledger = self.network.ledger
        self.gms = topology_gms(self.network, self.config.node_weights)
        self.mode_tracker = SystemModeTracker(self.gms, self.clock)
        self.channel = self.transport.make_channel()
        self.txmgr = TransactionManager(obs=self.obs)
        self.location = LocationService()

        self.nodes: dict[NodeId, Node] = {}
        for node_id in self.config.node_ids:
            node = Node(node_id, self.clock, self.ledger, self.txmgr)
            self.nodes[node_id] = node

        # One application-wide repository (constraint names are unique per
        # application, §5.3); threat stores are per node and replicated.
        charge = next(iter(self.nodes.values())).persistence.charge
        kind = self.config.repository
        if kind == "compiled":
            self.repository: ConstraintRepository = CompiledConstraintRepository(
                charge=charge, obs=self.obs
            )
        elif kind == "cached":
            self.repository = CachingConstraintRepository(charge=charge)
        elif kind == "linear":
            self.repository = ConstraintRepository(charge=charge)
        else:
            raise ValueError(f"unknown repository kind {kind!r}")

        self.replication: ReplicationManager | None = None
        if self.config.enable_replication:
            protocol = _build_protocol(self.config.protocol, len(self.config.node_ids))
            self.replication = ReplicationManager(
                self.nodes,
                self.network,
                self.gms,
                self.channel,
                protocol,
            )

        self.threat_stores: dict[NodeId, ThreatStore] = {}
        self.ccmgrs: dict[NodeId, ConstraintConsistencyManager] = {}
        staleness = self.replication if self.replication is not None else NullStalenessProvider()
        for node_id, node in self.nodes.items():
            store = ThreatStore(node.persistence, self.config.threat_policy)
            self.threat_stores[node_id] = store
            if self.config.enable_ccm:
                ccmgr = ConstraintConsistencyManager(
                    node,
                    self.repository,
                    store,
                    negotiator=Negotiator(),
                    staleness=staleness,
                    obs=self.obs,
                )
                ccmgr.gms = self.gms
                ccmgr.threat_replicator = self._make_threat_replicator(node_id)
                ccmgr.threat_resolver = self._make_threat_resolver(node_id)
                self.ccmgrs[node_id] = ccmgr

        self._wire_chains()
        self._wire_messaging()

        self.reconciliation = ReconciliationManager(
            self.nodes,
            self.network,
            self.gms,
            self.channel,
            self.repository,
            self.threat_stores,
            self.ccmgrs if self.ccmgrs else self._fallback_ccmgrs(),
            replication=self.replication,
        )
        # The most recent reconciliation outcome; invariant probes consult
        # it to decide what "converged" and "accounted for" must mean now.
        self.last_reconciliation: ReconciliationReport | None = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _wire_chains(self) -> None:
        for node_id, node in self.nodes.items():
            transport = TransportInterceptor(
                node, self.network, self.gms, self.location, self.replication
            )
            server: list[Any] = []
            if self.replication is not None:
                server.append(ReplicationServerInterceptor(node, self.replication))
            if node_id in self.ccmgrs:
                server.append(CCMInterceptor(node, self.ccmgrs[node_id], obs=self.obs))
            server.append(PersistenceInterceptor(node))
            server.append(ContainerInvoker(node))
            node.invocation_service.client_chain = InterceptorChain([transport])
            node.invocation_service.server_chain = InterceptorChain(server)

    def _wire_messaging(self) -> None:
        for node_id, node in self.nodes.items():
            self.network.register_handler(node_id, self._make_node_handler(node_id))
            self.channel.join(node_id, self._make_member_handler(node_id))

    def _make_node_handler(self, node_id: NodeId) -> Callable[[Message], Any]:
        def handle(message: Message) -> Any:
            if message.kind == "invocation":
                return self.nodes[node_id].invocation_service.run_server_chain(
                    message.payload
                )
            raise ValueError(f"unexpected message kind {message.kind!r}")

        return handle

    def _make_member_handler(self, node_id: NodeId) -> Callable[[Message], Any]:
        replica_handler = (
            self.replication.make_member_handler(node_id)
            if self.replication is not None
            else None
        )

        txmgr = self.nodes[node_id].services.txmgr

        def handle(message: Message) -> Any:
            if message.kind.startswith("replica-") and replica_handler is not None:
                return replica_handler(message)
            store = self.threat_stores[node_id]
            if message.kind == "threat-replicate":
                store.note(txmgr.current, message.payload.identity)
                store.apply_remote(message.payload)
                return "ack"
            if message.kind == "threat-resolved":
                for identity in message.payload:
                    store.remove(identity)
                return "ack"
            if message.kind == "threat-digest":
                # Anti-entropy: this node's digest, and its records the
                # coordinator lacks.
                return store.digest(), store.missing_from(message.payload)
            if message.kind == "threat-sync":
                destination, records = message.payload
                if destination == node_id:
                    store.apply_synced(records)
                return "ack"
            return "ignored"

        return handle

    def _make_threat_replicator(self, node_id: NodeId) -> Callable[[Any], None]:
        def replicate(threat: Any) -> None:
            self.channel.multicast(node_id, "threat-replicate", threat)

        return replicate

    def _make_threat_resolver(self, node_id: NodeId) -> Callable[[Any], None]:
        def resolve(identity: Any) -> None:
            self.channel.multicast(node_id, "threat-resolved", (identity,))

        return resolve

    def _fallback_ccmgrs(self) -> dict[NodeId, ConstraintConsistencyManager]:
        """Minimal CCMgrs for reconciliation when CCM is disabled."""
        managers = {}
        staleness = self.replication if self.replication is not None else NullStalenessProvider()
        for node_id, node in self.nodes.items():
            ccmgr = ConstraintConsistencyManager(
                node, self.repository, self.threat_stores[node_id], staleness=staleness
            )
            ccmgr.gms = self.gms
            managers[node_id] = ccmgr
        return managers

    # ------------------------------------------------------------------
    # application deployment
    # ------------------------------------------------------------------
    def deploy(self, entity_cls: type[Entity]) -> None:
        """Deploy an entity class on every node; with replication enabled,
        each of its entities is replicated."""
        for node in self.nodes.values():
            node.container.deploy(entity_cls)

    def register_constraint(self, registration: ConstraintRegistration) -> None:
        self.repository.register(registration)

    def register_constraints(self, registrations: Iterable[ConstraintRegistration]) -> None:
        for registration in registrations:
            self.repository.register(registration)

    def load_constraint_configuration(
        self, xml_text: str, constraint_classes: Mapping[str, type]
    ) -> list[ConstraintRegistration]:
        """Read a Listing-4.1-style configuration file at deployment."""
        registrations = parse_xml_configuration(xml_text, constraint_classes)
        self.register_constraints(registrations)
        return registrations

    # ------------------------------------------------------------------
    # business API
    # ------------------------------------------------------------------
    def create_entity(
        self,
        node_id: NodeId,
        class_name: str,
        oid: str,
        attributes: dict[str, Any] | None = None,
    ) -> ObjectRef:
        """Create an entity with ``node_id`` as home/designated primary."""
        self._require_alive(node_id)
        node = self.nodes[node_id]

        def body(tx: Any) -> ObjectRef:
            node.persistence.charge("invocation_base")
            if node_id in self.ccmgrs:
                # constructor-invariant lookup by the CCM service
                node.persistence.charge("ccm_notification")
            entity = node.container.create(class_name, oid, attributes)
            self.location.register(entity.ref, node_id)
            if self.replication is not None:
                self.replication.register_created(entity.ref, node_id, entity.state())
            return entity.ref

        with self.transport.tx_guard():
            return self.txmgr.run(body)

    def delete_entity(self, node_id: NodeId, ref: ObjectRef) -> None:
        self._require_alive(node_id)
        node = self.nodes[node_id]

        def body(tx: Any) -> None:
            node.persistence.charge("invocation_base")
            if node_id in self.ccmgrs:
                node.persistence.charge("ccm_notification")
            if self.replication is not None and self.replication.is_replicated(ref):
                primary = self.replication.route_write(ref, node_id)
                self.nodes[primary].container.remove(ref)
                self.replication.register_deleted(ref, primary)
            else:
                home = self.location.home_of(ref)
                self.nodes[home].container.remove(ref)
            self.location.unregister(ref)

        with self.transport.tx_guard():
            self.txmgr.run(body)

    def invoke(
        self,
        node_id: NodeId,
        ref: ObjectRef,
        method_name: str,
        *args: Any,
        negotiation_handler: Any = None,
    ) -> Any:
        """Run one business invocation in its own transaction."""
        self._require_alive(node_id)
        node = self.nodes[node_id]

        def body(tx: Any) -> Any:
            if negotiation_handler is not None:
                register_negotiation_handler(tx, negotiation_handler)
            return node.invocation_service.invoke(ref, method_name, tuple(args))

        with self.transport.tx_guard():
            return self.txmgr.run(body)

    def run_in_tx(
        self,
        node_id: NodeId,
        body: Callable[[Any], Any],
        negotiation_handler: Any = None,
    ) -> Any:
        """Run a multi-invocation business transaction on ``node_id``.

        The body receives a proxy offering ``invoke(ref, method, *args)``.
        """
        self._require_alive(node_id)
        node = self.nodes[node_id]

        def wrapped(tx: Any) -> Any:
            if negotiation_handler is not None:
                register_negotiation_handler(tx, negotiation_handler)
            return body(_TxProxy(node, tx))

        with self.transport.tx_guard():
            return self.txmgr.run(wrapped)

    def entity_on(self, node_id: NodeId, ref: ObjectRef) -> Entity:
        """Direct access to a node's local replica (test introspection)."""
        return self.nodes[node_id].container.resolve(ref)

    def _require_alive(self, node_id: NodeId) -> None:
        if node_id in self.network.crashed:
            raise NodeCrashedError(node_id)

    # ------------------------------------------------------------------
    # failure control and reconciliation
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable[NodeId]) -> None:
        self.network.partition(*groups)

    def heal(self) -> None:
        self.network.heal_all()

    def reconcile(
        self,
        replica_handler: Any = None,
        constraint_handler: Any = None,
    ) -> ReconciliationReport:
        """Reconcile every merged partition group that changed since the
        last run; the returned report aggregates the per-group reports
        (kept in ``report.groups``)."""
        with self.transport.tx_guard():
            return self._reconcile_locked(replica_handler, constraint_handler)

    def _reconcile_locked(
        self,
        replica_handler: Any = None,
        constraint_handler: Any = None,
    ) -> ReconciliationReport:
        partitions = self.network.partitions()
        fallback = partitions[0] if partitions else frozenset()
        due = self.reconciliation.due_groups()
        if not due:
            # Nothing merged and nothing stored — still complete the
            # Fig. 1.4 state machine for nodes stuck in RECONCILIATION
            # (e.g. after a deferred clean-up was finished by a business
            # operation).
            self.mode_tracker.begin_reconciliation(fallback)
            self.mode_tracker.finish_reconciliation(fallback, clean=True)
            self.last_reconciliation = ReconciliationReport(
                merged_partition=fallback, epoch=self.gms.epoch
            )
            return self.last_reconciliation
        reports = []
        for group in due:
            self.mode_tracker.begin_reconciliation(group)
            report = self.reconciliation.reconcile_group(
                group, replica_handler, constraint_handler
            )
            clean = report.postponed == 0 and report.deferred == 0
            self.mode_tracker.finish_reconciliation(group, clean)
            reports.append(report)
        self.last_reconciliation = ReconciliationReport.aggregate(reports)
        return self.last_reconciliation

    def is_degraded(self) -> bool:
        return not self.network.is_healthy()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release transport resources (the nodes' threads and mailboxes).

        A no-op on the sim backend; required on the threaded backend,
        where the transport owns the nodes' worker threads.
        Clusters are also context managers: ``with DedisysCluster(cfg) as
        cluster: ...``.
        """
        self.transport.close()

    def __enter__(self) -> "DedisysCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # invariant probes (side-effect free; used by repro.check)
    # ------------------------------------------------------------------
    def write_targets(self, ref: ObjectRef) -> dict[frozenset, tuple[NodeId, ...]]:
        """Per partition: the distinct nodes a write may be routed to.

        Asks the replication routing once per potential caller with the
        protocol's promotion hook suppressed, so probing emits no events
        and charges no costs.  A correct protocol yields at most one
        target per partition; write-denied partitions map to ``()``.
        """
        from .replication import WriteAccessDenied

        if self.replication is None or not self.replication.is_replicated(ref):
            return {}
        targets: dict[frozenset, tuple[NodeId, ...]] = {}
        protocol = self.replication.protocol
        hook, protocol.promotion_hook = protocol.promotion_hook, None
        try:
            for partition in self.network.partitions():
                found: list[NodeId] = []
                for caller in sorted(partition):
                    try:
                        target = self.replication.route_write(ref, caller)
                    except WriteAccessDenied:
                        continue
                    if target not in found:
                        found.append(target)
                targets[partition] = tuple(found)
        finally:
            protocol.promotion_hook = hook
        return targets

    def replica_states(self, ref: ObjectRef) -> dict[NodeId, tuple | None]:
        """Each node's local view of ``ref`` as a sorted state tuple.

        ``None`` marks nodes without a local replica.  Purely reads the
        containers; no interceptors run and no costs are charged.
        """
        states: dict[NodeId, tuple | None] = {}
        for node_id, node in self.nodes.items():
            if node.container.has(ref):
                entity = node.container.resolve(ref)
                states[node_id] = tuple(sorted(entity.state().items()))
            else:
                states[node_id] = None
        return states

    def diverged_replicas(self, refs: Iterable[ObjectRef]) -> list[str]:
        """``"<ref>: [<states>]"`` per entity whose copies disagree: a
        replicated entity must be missing nowhere, an unreplicated one has
        the one copy, and only a ref the location service does not know
        (deleted, or never created) may have no copy on any node.
        ``ReplicaConvergence`` asks this."""
        diverged: list[str] = []
        for ref in refs:
            replicated = self.replication is not None and self.replication.is_replicated(ref)
            states = {
                state
                for state in self.replica_states(ref).values()
                if replicated or state is not None
            }
            if len(states) > 1 or (states <= {None} and self.location.knows(ref)):
                diverged.append(f"{ref}: {sorted(map(str, states))}")
        return diverged

    def mismatched_rows(self) -> list[str]:
        """``"<node>: <ref> row <row> but entity <state>"`` per entity whose
        node's ``entities`` row differs from its attributes.  Reads rows
        with :meth:`~repro.persistence.Table.peek`, so nothing is charged;
        ``RowsMatchEntities`` asks this."""
        mismatched: list[str] = []
        for node_id, node in self.nodes.items():
            table = node.persistence.table("entities")
            for ref in node.container.refs():
                state = node.container.resolve(ref).state()
                row = table.peek((ref.class_name, ref.oid))
                if row != state:
                    mismatched.append(f"{node_id}: {ref} row {row!r} but entity {state!r}")
        return mismatched

    def threat_accounting(self) -> dict[NodeId, tuple[int, int]]:
        """Per node: ``(in-memory threat records, persisted rows)``.

        The two must agree at every step; drift means the store and its
        backing table no longer describe the same set of accepted threats.
        """
        return {
            node_id: (store.stored_records(), store.persisted_records())
            for node_id, store in self.threat_stores.items()
        }

    def mode_of(self, node_id: NodeId) -> SystemMode:
        """The node's perceived Fig. 1.4 system state."""
        return self.mode_tracker.mode_of(node_id)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Trace digest of everything observed so far.

        Returns the no-op hub's empty snapshot when no observability was
        attached via :attr:`ClusterConfig.obs`.
        """
        return self.obs.snapshot()

    def export_trace(self, target: Any) -> int:
        """Write the buffered event trace as JSON lines to ``target``
        (path or text stream); returns the number of lines written."""
        return self.obs.export_jsonl(target)

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def throughput(self, operation: Callable[[int], Any], count: int) -> float:
        """Operations per simulated second for ``count`` runs of
        ``operation(i)``."""
        started = self.clock.now
        for index in range(count):
            operation(index)
        elapsed = self.clock.now - started
        if elapsed <= 0:
            raise RuntimeError("operations consumed no simulated time")
        return count / elapsed


class _TxProxy:
    """Invocation helper handed to ``run_in_tx`` bodies."""

    def __init__(self, node: Node, tx: Any) -> None:
        self.node = node
        self.tx = tx

    def invoke(self, ref: ObjectRef, method_name: str, *args: Any) -> Any:
        return self.node.invocation_service.invoke(ref, method_name, tuple(args))
