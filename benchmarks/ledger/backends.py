"""Every call the ledger makes into ``repro`` goes through this file.

The rest of the benchmark (plans, oracles, block timing, span arithmetic)
imports nothing from the program under test, so an API move in ``src/``
needs a benchmark PR that touches this one file.  Two adaptors share one
surface:

* :class:`ClusterBackend` — a 3-node :class:`DedisysCluster` on the
  ``sim`` or ``asyncio`` transport;
* :class:`ProcBackend` — three ``procnode`` worker processes behind a
  :class:`ProcessCluster`; its "partition" is ``kill -9`` of the primary
  and its "heal" a respawn, which is the only split that backend has.

Both expose ``invoke`` (returns the result or raises :class:`Refused`),
``partition`` / ``heal`` / ``reconcile``, replica-state read-back for the
oracle, and plain counters read from the program's public statistics.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

SRC = Path(__file__).resolve().parents[2] / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.apps.flightbooking import (  # noqa: E402
    AdditiveSoldMerge,
    Flight,
    RebookingReconciliationHandler,
    ticket_constraint_registration,
)
from repro.apps.registry import get_domain  # noqa: E402
from repro.check.invariants import (  # noqa: E402
    AtMostOnePrimaryPerPartition,
    InvariantRegistry,
    ReplicaConvergence,
    RunProbe,
    ThreatAccounting,
)
from repro.cluster import ClusterConfig, DedisysCluster  # noqa: E402
from repro.core import (  # noqa: E402
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintPriority,
    ConstraintViolated,
    SatisfactionDegree,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration  # noqa: E402
from repro.core.model import PredicateConstraint  # noqa: E402
from repro.corpus.grammars import GRAMMARS  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.transport.proccluster import ProcessCluster  # noqa: E402

NODES = ("a", "b", "c")

#: The split every cluster workload uses: the first node alone, the
#: other two together — both sides keep writing (P4).
PARTITION = (("a",), ("b", "c"))


def partition_groups(kind: str) -> tuple[tuple[str, ...], ...]:
    """The sides that serve clients while ``kind``'s backend is split.

    On the process backend the split is the primary's death, so only one
    side exists: b serves as temporary primary and c forwards to it.
    """
    return (("b", "c"),) if kind == "proc" else PARTITION

Key = tuple[str, str]  # (class name, object id)

_REFUSALS = (ConstraintViolated, ConsistencyThreatRejected)


class Refused(Exception):
    """The middleware refused the operation on constraint grounds."""


#: Layer boundaries the traced pass wraps: ``(layer, module, owner,
#: attribute)``; ``owner`` is a class name, or ``None`` for a module-level
#: function.  Layers are named after the ``src/repro`` modules.  Methods
#: overridden by the repository strategies are listed per class.
SPAN_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("objects", "repro.objects.invocation", "InvocationService", "invoke"),
    ("objects", "repro.objects.invocation", "InvocationService", "run_server_chain"),
    ("core.ccmgr", "repro.core.ccmgr", "ConstraintConsistencyManager", "before_invocation"),
    ("core.ccmgr", "repro.core.ccmgr", "ConstraintConsistencyManager", "after_invocation"),
    ("core.repository", "repro.core.repository", "ConstraintRepository", "affected_constraints"),
    ("core.repository", "repro.core.repository", "ConstraintRepository", "method_dispatch"),
    ("core.repository", "repro.core.repository", "CachingConstraintRepository", "affected_constraints"),
    ("core.repository", "repro.core.repository", "CompiledConstraintRepository", "affected_constraints"),
    ("core.repository", "repro.core.repository", "CompiledConstraintRepository", "method_dispatch"),
    ("core.threats", "repro.core.threats", "ThreatStore", "record"),
    ("core.threats", "repro.core.threats", "ThreatStore", "remove"),
    ("core.negotiation", "repro.core.negotiation", "Negotiator", "negotiate"),
    ("core.reconciliation", "repro.core.reconciliation", "ReconciliationManager", "reconcile_group"),
    ("tx", "repro.tx.transactions", "TransactionManager", "run"),
    ("tx", "repro.tx.transactions", "TransactionManager", "commit"),
    ("replication", "repro.replication.manager", "ReplicationManager", "route_write"),
    ("replication", "repro.replication.manager", "ReplicationManager", "propagate_update"),
    ("replication", "repro.replication.manager", "ReplicationManager", "is_possibly_stale"),
    ("net", "repro.net.multicast", "GroupChannel", "multicast"),
    ("net", "repro.net.network", "SimNetwork", "send"),
    ("membership", "repro.membership.gms", "GroupMembershipService", "view_of"),
    ("persistence", "repro.persistence.store", "Table", "insert"),
    ("persistence", "repro.persistence.store", "Table", "put"),
    ("transport.asyncio", "repro.transport.asyncio_backend", "AsyncioNetwork", "send"),
    ("transport.asyncio", "repro.transport.asyncio_backend", "AsyncioNetwork", "deliver_member"),
    ("transport.asyncio", "repro.transport.asyncio_backend", "AsyncioGroupChannel", "multicast"),
    ("transport.frames", "repro.transport.frames", None, "request"),
    ("transport.frames", "repro.transport.frames", None, "encode_frame"),
    ("transport.frames", "repro.transport.frames", None, "decode_body"),
    ("transport.proc", "repro.transport.proccluster", "ProcessCluster", "invoke"),
)

#: Byte counters for the frame codec: ``name -> f(args, result) -> bytes``.
SPAN_SIZES: dict[str, Callable[[tuple, Any], int]] = {
    "encode_frame": lambda args, result: len(result),
    "decode_body": lambda args, result: len(args[0]),
}

LAYERS = tuple(dict.fromkeys(target[0] for target in SPAN_TARGETS))


def grammar(domain: str) -> tuple[Any, ...]:
    """The corpus op templates of ``domain`` (cls, method, weight,
    sample_args, read) — the plan generator samples from these."""
    return GRAMMARS[domain]


def domain_layout(domain: str) -> tuple[str, ...]:
    return get_domain(domain).layout


def _always_true(ctx: Any) -> bool:
    return True


class ClusterBackend:
    """The full middleware stack on the ``sim`` or ``asyncio`` transport."""

    def __init__(
        self,
        transport: str,
        enable_ccm: bool = True,
        enable_replication: bool = True,
        obs: bool = False,
    ) -> None:
        self.name = transport
        self.obs = Observability() if obs else None
        self.cluster = DedisysCluster(
            ClusterConfig(
                node_ids=NODES,
                transport=transport,
                enable_ccm=enable_ccm,
                enable_replication=enable_replication,
                obs=self.obs,
            )
        )
        self._refs: dict[Key, Any] = {}
        self._handler: Any = None
        self._bystanders: list[str] = []
        self._last_report: Any = None
        self.repository_changes = 0
        self.cluster.repository.on_change(self._count_change)
        self._invariants = InvariantRegistry(
            (AtMostOnePrimaryPerPartition(), ThreatAccounting(), ReplicaConvergence())
        )

    def _count_change(self) -> None:
        self.repository_changes += 1

    # -- deployment ----------------------------------------------------
    def deploy_flights(self, flights: Sequence[tuple[str, int, int]]) -> list[Key]:
        """Create ``(oid, seats, sold)`` flights, primaries spread over
        the nodes round-robin."""
        self.cluster.deploy(Flight)
        self.cluster.register_constraint(ticket_constraint_registration())
        keys = []
        for index, (oid, seats, sold) in enumerate(flights):
            ref = self.cluster.create_entity(
                NODES[index % len(NODES)],
                "Flight",
                oid,
                {"flight_number": oid, "seats": seats, "sold": sold},
            )
            keys.append(self._remember(ref))
        return keys

    def deploy_corpus(
        self,
        domains: Sequence[str],
        groups: int,
        params: Mapping[str, Any],
        bystanders: int,
    ) -> list[Key]:
        """Deploy corpus domains side by side; returns the entity keys
        domain by domain, group by group, in each domain's layout order.

        ``bystanders`` always-true constraints are spread round-robin
        over the domains' write methods, so the repository holds far more
        registrations than any one invocation triggers (Ch. 2's scale).
        """
        keys = []
        for name in domains:
            domain = get_domain(name)
            domain.deploy(self.cluster, params)
            for ref in domain.create_entities(self.cluster, NODES, groups, params):
                keys.append(self._remember(ref))
        writes = [
            (template.cls, template.method)
            for name in domains
            for template in GRAMMARS[name]
            if not template.read
        ]
        for index in range(bystanders):
            cls, method = writes[index % len(writes)]
            constraint = PredicateConstraint(
                f"bystander-{index}",
                _always_true,
                priority=ConstraintPriority.RELAXABLE,
                min_satisfaction_degree=SatisfactionDegree.UNCHECKABLE,
                context_class=cls,
            )
            self.cluster.register_constraint(
                ConstraintRegistration(constraint, (AffectedMethod(cls, method),))
            )
            self._bystanders.append(constraint.name)
        return keys

    def _remember(self, ref: Any) -> Key:
        key = (ref.class_name, ref.oid)
        self._refs[key] = ref
        return key

    def registrations(self) -> int:
        return len(self.cluster.repository)

    def toggle_bystander(self, index: int) -> None:
        """Disable and re-enable one bystander through the repository's
        public API — the 'write beside the reads' for lookup strategies."""
        name = self._bystanders[index % len(self._bystanders)]
        self.cluster.repository.disable(name)
        self.cluster.repository.enable(name)

    # -- business operations -------------------------------------------
    def invoke(self, caller: str, key: Key, method: str, args: tuple) -> Any:
        try:
            return self.cluster.invoke(
                caller, self._refs[key], method, *args, negotiation_handler=self._handler
            )
        except _REFUSALS as exc:
            raise Refused(type(exc).__name__) from None

    # -- failure control -----------------------------------------------
    def partition(self) -> None:
        self.cluster.partition(*PARTITION)
        self._handler = AcceptAllHandler()

    def heal(self) -> None:
        self._handler = None
        self.cluster.heal()

    def reconcile(self, baselines: Mapping[Key, int]) -> dict[str, int]:
        """Additive merge of the given flights' sales over ``baselines``
        plus the rebooking clean-up handler, as in §1.3."""
        handler = RebookingReconciliationHandler(
            lambda ref: self.cluster.entity_on(NODES[0], ref)
        )
        merge = AdditiveSoldMerge(
            {self._refs[key]: sold for key, sold in baselines.items()}
        )
        report = self.cluster.reconcile(merge, handler)
        self._last_report = report
        return {
            "threats": report.threats_reevaluated,
            "conflicts": report.replica_conflicts,
            "unresolved": report.deferred + report.postponed,
        }

    def check_invariants(self, reconciled: bool) -> list[str]:
        """Violations of the ``repro.check`` invariants right now: single
        primary per partition, threat accounting, and (just after a
        reconciliation) replica convergence."""
        probe = RunProbe(
            cluster=self.cluster,
            refs=tuple(self._refs.values()),
            just_reconciled=self._last_report if reconciled else None,
        )
        return [
            f"{violation.invariant}: {violation.detail}"
            for violation in self._invariants.evaluate(probe)
        ]

    def stored_threats(self) -> int:
        return sum(records for records, _rows in self.cluster.threat_accounting().values())

    # -- read-back -------------------------------------------------------
    def replica_states(self, key: Key) -> dict[str, dict[str, Any] | None]:
        return {
            node: (dict(state) if state is not None else None)
            for node, state in self.cluster.replica_states(self._refs[key]).items()
        }

    def counters(self) -> dict[str, float]:
        """Monotone counters from the program's public statistics; the
        harness differences two readings around a phase."""
        cluster = self.cluster
        stats = [ccmgr.stats for ccmgr in cluster.ccmgrs.values()]
        return {
            "journal_entries": sum(
                len(node.persistence.journal()) for node in cluster.nodes.values()
            ),
            "validations": sum(stat["validations"] for stat in stats),
            "repository_lookups": cluster.ledger.counts.get("repository_search", 0),
            "repository_changes": self.repository_changes,
            "charged_s": cluster.clock.now if self.name == "sim" else 0.0,
            "obs_events": self.obs.tracer.emitted if self.obs is not None else 0,
            "ctx_switches": resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw,
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.cluster.close()


def _proc_ticks(pid: int) -> tuple[float, int]:
    """(CPU seconds, context switches) of every thread of ``pid``."""
    hertz = os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / hertz  # utime + stime
    switches = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status") as handle:
                for line in handle:
                    if "ctxt_switches" in line:
                        switches += int(line.split()[1])
        except OSError:
            continue  # a worker thread ended between listdir and open
    return cpu, switches


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ProcBackend:
    """Three worker processes; the primary ``a`` is what gets killed."""

    def __init__(self) -> None:
        self.name = "proc"
        self.cluster = ProcessCluster(NODES, primary="a")
        # Peak RSS of worker incarnations that were killed: /proc forgets
        # a process with its pid.
        self._killed_rss = 0.0

    def deploy_flights(self, flights: Sequence[tuple[str, int, int]]) -> list[Key]:
        keys = []
        for index, (oid, seats, sold) in enumerate(flights):
            reply = self.cluster.create(
                NODES[index % len(NODES)],
                "Flight",
                oid,
                {"flight_number": oid, "seats": seats, "sold": sold},
            )
            if not reply.get("ok"):
                raise RuntimeError(f"create {oid} failed: {reply}")
            keys.append(("Flight", oid))
        return keys

    def registrations(self) -> int:
        return 1  # each worker registers the ticket constraint

    def invoke(self, caller: str, key: Key, method: str, args: tuple) -> Any:
        reply = self.cluster.invoke(caller, key[0], key[1], method, *args)
        if reply.get("ok"):
            return reply["result"]
        if reply.get("error") in ("ConstraintViolated", "ConsistencyThreatRejected"):
            raise Refused(reply["error"])
        raise RuntimeError(f"worker error: {reply}")

    def ping(self, node: str) -> bool:
        return self.cluster.ping(node)

    def partition(self) -> None:
        pid = self.cluster.processes["a"].pid
        self._killed_rss = max(self._killed_rss, _proc_peak_rss_mb(pid))
        self.cluster.kill("a")

    def heal(self) -> None:
        self.cluster.restart("a")

    def reconcile(self, baselines: Mapping[Key, int]) -> dict[str, int]:
        report = self.cluster.reconcile(
            {f"{cls}|{oid}": {"sold": sold} for (cls, oid), sold in baselines.items()}
        )
        return {
            "threats": report["threats_reevaluated"],
            "conflicts": 0,
            "unresolved": report["deferred"],
        }

    def check_invariants(self, reconciled: bool) -> list[str]:
        if not reconciled:
            return []
        leftovers = {
            node: self.cluster.status(node)["stored"] for node in NODES
        }
        if any(leftovers.values()):
            return [f"threat_accounting: threats left after reconciliation: {leftovers}"]
        return []

    def stored_threats(self) -> int:
        total = 0
        for node in NODES:
            if self.cluster.processes[node].poll() is None:
                total += self.cluster.status(node)["stored"]
        return total

    def replica_states(self, key: Key) -> dict[str, dict[str, Any] | None]:
        return self.cluster.states(key[0], key[1])

    def counters(self) -> dict[str, float]:
        cpu = switches = 0.0
        for process in self.cluster.processes.values():
            if process.poll() is None:
                ticks = _proc_ticks(process.pid)
                cpu += ticks[0]
                switches += ticks[1]
        return {"worker_cpu_s": cpu, "ctx_switches": switches}

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workers = {
            node: _proc_peak_rss_mb(process.pid)
            for node, process in self.cluster.processes.items()
            if process.poll() is None
        }
        workers["a"] = max(workers.get("a", 0.0), self._killed_rss)
        return own + sum(workers.values())

    def close(self) -> None:
        self.cluster.close()


def build(kind: str, **options: Any) -> "ClusterBackend | ProcBackend":
    if kind == "proc":
        return ProcBackend()
    return ClusterBackend(kind, **options)
