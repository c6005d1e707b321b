"""Chapter-5 evaluation harness (§5.1, §5.2, §5.5).

Reproduces the dissertation's DedisysTest measurement methodology on the
simulated cluster: batches of create / setter / getter / empty /
satisfied-constraint / violated-constraint / accepted-threat / delete
operations, executed one transaction each, reported as operations per
simulated second.

The entity and constraint setup follows §5.1: string-attribute setters and
getters, an empty method without constraints, empty methods with an
always-satisfied and an always-violated constraint (``validate`` simply
returns a constant, eliminating the R5 validation overhead from the
comparison), and an empty method whose relaxable constraint produces
consistency threats in degraded mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..cluster import ClusterConfig, DedisysCluster
from ..core import (
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintPriority,
    ConstraintType,
    ConstraintViolated,
    PredicateConstraint,
    SatisfactionDegree,
    ThreatStoragePolicy,
)
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..objects import Entity
from ..tx import TransactionRolledBack


class TestBean(Entity):
    """The measured entity bean (DedisysTest analogue, [Ke07])."""

    fields = {"text": "", "value": 0}

    def empty_op(self) -> None:
        """Empty method without associated constraints."""

    def checked_op(self) -> None:
        """Empty method with an always-satisfied constraint."""

    def failing_op(self) -> None:
        """Empty method with an always-violated constraint."""

    def threat_op(self) -> None:
        """Empty method whose constraint produces threats in degraded mode."""


def _bean_constraints() -> list[ConstraintRegistration]:
    satisfied = PredicateConstraint(
        "AlwaysSatisfied",
        lambda ctx: True,
        priority=ConstraintPriority.RELAXABLE,
    )
    violated = PredicateConstraint(
        "AlwaysViolated",
        lambda ctx: False,
        priority=ConstraintPriority.RELAXABLE,
    )
    threat = PredicateConstraint(
        "ThreatProducer",
        lambda ctx: True,
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.UNCHECKABLE,
    )
    return [
        ConstraintRegistration(satisfied, (AffectedMethod("TestBean", "checked_op"),)),
        ConstraintRegistration(violated, (AffectedMethod("TestBean", "failing_op"),)),
        ConstraintRegistration(threat, (AffectedMethod("TestBean", "threat_op"),)),
    ]


def build_cluster(
    nodes: int = 3,
    ccm: bool = True,
    replication: bool = True,
    policy: ThreatStoragePolicy = ThreatStoragePolicy.IDENTICAL_ONCE,
    constraint_types: Mapping[str, ConstraintType] | None = None,
    obs: Any = None,
) -> DedisysCluster:
    """A cluster with the evaluation bean deployed.

    ``constraint_types`` optionally overrides constraint types by name
    (e.g. making ``ThreatProducer`` soft or asynchronous for §5.5.3).
    ``obs`` optionally attaches an :class:`~repro.obs.Observability` hub.
    """
    node_ids = tuple(f"n{i}" for i in range(1, nodes + 1))
    cluster = DedisysCluster(
        ClusterConfig(
            node_ids=node_ids,
            enable_ccm=ccm,
            enable_replication=replication,
            threat_policy=policy,
            obs=obs,
        )
    )
    cluster.deploy(TestBean)
    if ccm:
        for registration in _bean_constraints():
            if constraint_types and registration.name in constraint_types:
                registration.constraint.constraint_type = constraint_types[registration.name]
            cluster.register_constraint(registration)
    return cluster


@dataclass
class OperationRates:
    """Operations per simulated second, by operation type."""

    rates: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, op: str) -> float:
        return self.rates[op]

    def __contains__(self, op: str) -> bool:
        return op in self.rates

    def relative_to(self, other: "OperationRates") -> dict[str, float]:
        return {
            op: self.rates[op] / other.rates[op]
            for op in self.rates
            if op in other.rates and other.rates[op] > 0
        }


def _measure(cluster: DedisysCluster, operation: Callable[[int], Any], count: int) -> float:
    return cluster.throughput(operation, count)


def measure_operations(
    cluster: DedisysCluster,
    node: str,
    count: int = 50,
    operations: Iterable[str] = ("create", "setter", "getter", "empty", "delete"),
    negotiation_handler: Any = None,
) -> OperationRates:
    """Measure a batch of each requested operation type from ``node``.

    ``satisfied``/``violated``/``threat_good``/``threat_bad`` require the
    CCM-enabled cluster.  ``violated`` and rejected threats count the
    aborted operation (the middleware served it, §5.1).
    """
    operations = list(operations)
    rates = OperationRates()
    handler = negotiation_handler

    beans = [
        cluster.create_entity(node, "TestBean", f"bean-{node}-{index}")
        for index in range(count)
    ]
    target = beans[0]

    if "create" in operations:
        rates.rates["create"] = _measure(
            cluster,
            lambda i: cluster.create_entity(node, "TestBean", f"created-{node}-{i}"),
            count,
        )
    if "setter" in operations:
        rates.rates["setter"] = _measure(
            cluster, lambda i: cluster.invoke(node, target, "set_text", f"v{i}"), count
        )
    if "getter" in operations:
        rates.rates["getter"] = _measure(
            cluster, lambda i: cluster.invoke(node, target, "get_text"), count
        )
    if "empty" in operations:
        rates.rates["empty"] = _measure(
            cluster, lambda i: cluster.invoke(node, target, "empty_op"), count
        )
    if "satisfied" in operations:
        rates.rates["satisfied"] = _measure(
            cluster,
            lambda i: cluster.invoke(node, target, "checked_op", negotiation_handler=handler),
            count,
        )
    if "violated" in operations:

        def violated_op(i: int) -> None:
            try:
                cluster.invoke(node, target, "failing_op")
            except (ConstraintViolated, ConsistencyThreatRejected, TransactionRolledBack):
                pass

        rates.rates["violated"] = _measure(cluster, violated_op, count)
    if "threat_good" in operations:
        # §5.1 good case: identical threats on a single object.
        rates.rates["threat_good"] = _measure(
            cluster,
            lambda i: cluster.invoke(
                node, target, "threat_op", negotiation_handler=AcceptAllHandler()
            ),
            count,
        )
    if "threat_bad" in operations:
        # §5.1 bad case: every operation produces a different threat.
        rates.rates["threat_bad"] = _measure(
            cluster,
            lambda i: cluster.invoke(
                node, beans[i], "threat_op", negotiation_handler=AcceptAllHandler()
            ),
            count,
        )
    if "delete" in operations:
        rates.rates["delete"] = _measure(
            cluster, lambda i: cluster.delete_entity(node, beans[i]), count
        )
    return rates


# ----------------------------------------------------------------------
# Figure 5.1 — overhead of explicit constraint consistency management
# ----------------------------------------------------------------------
def figure_5_1(count: int = 50) -> dict[str, OperationRates]:
    """Single node, no replication: with vs. without explicit CCM."""
    with_ccm = build_cluster(nodes=1, ccm=True, replication=False)
    without_ccm = build_cluster(nodes=1, ccm=False, replication=False)
    ops = ("create", "setter", "getter", "empty", "delete")
    return {
        "with_ccm": measure_operations(with_ccm, "n1", count, ops),
        "without_ccm": measure_operations(without_ccm, "n1", count, ops),
    }


# ----------------------------------------------------------------------
# Figures 5.2 / 5.3 — No DeDiSys vs DeDiSys healthy/degraded
# ----------------------------------------------------------------------
_MODE_OPS = (
    "create",
    "setter",
    "getter",
    "empty",
    "satisfied",
    "violated",
    "delete",
)


def figure_5_2(count: int = 50) -> dict[str, OperationRates]:
    """Same number of nodes in healthy and degraded mode (3 nodes).

    The degraded configuration uses a 4-node system split 3/1 so the
    measured partition also has three nodes.
    """
    results: dict[str, OperationRates] = {}
    no_dedisys = build_cluster(nodes=1, ccm=False, replication=False)
    results["no_dedisys"] = measure_operations(
        no_dedisys, "n1", count, ("create", "setter", "getter", "empty", "delete")
    )
    healthy = build_cluster(nodes=3)
    results["dedisys_healthy"] = measure_operations(healthy, "n1", count, _MODE_OPS)
    degraded = build_cluster(nodes=4)
    degraded.partition({"n1", "n2", "n3"}, {"n4"})
    results["dedisys_degraded"] = measure_operations(
        degraded,
        "n1",
        count,
        _MODE_OPS + ("threat_good", "threat_bad"),
        negotiation_handler=AcceptAllHandler(),
    )
    return results


def figure_5_3(count: int = 50) -> dict[str, OperationRates]:
    """Healthy with 3 nodes vs degraded 2-node partition of the same
    3-node system."""
    results: dict[str, OperationRates] = {}
    no_dedisys = build_cluster(nodes=1, ccm=False, replication=False)
    results["no_dedisys"] = measure_operations(
        no_dedisys, "n1", count, ("create", "setter", "getter", "empty", "delete")
    )
    healthy = build_cluster(nodes=3)
    results["dedisys_healthy"] = measure_operations(healthy, "n1", count, _MODE_OPS)
    degraded = build_cluster(nodes=3)
    degraded.partition({"n1", "n2"}, {"n3"})
    results["dedisys_degraded"] = measure_operations(
        degraded,
        "n1",
        count,
        _MODE_OPS + ("threat_good", "threat_bad"),
        negotiation_handler=AcceptAllHandler(),
    )
    return results


# ----------------------------------------------------------------------
# Figure 5.4 — replication effects vs. number of nodes
# ----------------------------------------------------------------------
def figure_5_4(max_nodes: int = 4, count: int = 40) -> dict[str, dict[int, float]]:
    """Per-operation rates for 1..max_nodes replicated nodes, plus the
    No-DeDiSys baseline (node count 0), aggregate read capacity, and the
    multicast+transaction-handling ceiling."""
    series: dict[str, dict[int, float]] = {
        "create": {},
        "setter": {},
        "getter": {},
        "getter_aggregate": {},
        "empty": {},
        "delete": {},
        "multicast_tx": {},
    }
    baseline = build_cluster(nodes=1, ccm=False, replication=False)
    rates = measure_operations(
        baseline, "n1", count, ("create", "setter", "getter", "empty", "delete")
    )
    for op in ("create", "setter", "getter", "empty", "delete"):
        series[op][0] = rates[op]
    series["getter_aggregate"][0] = rates["getter"]

    for nodes in range(1, max_nodes + 1):
        cluster = build_cluster(nodes=nodes)
        rates = measure_operations(
            cluster, "n1", count, ("create", "setter", "getter", "empty", "delete")
        )
        for op in ("create", "setter", "getter", "empty", "delete"):
            series[op][nodes] = rates[op]
        # Reads are always served locally (§4.3): total read capacity is
        # the sum over the nodes.
        aggregate = 0.0
        bean = cluster.create_entity("n1", "TestBean", "agg-bean")
        for node in cluster.nodes:
            aggregate += cluster.throughput(
                lambda i, n=node: cluster.invoke(n, bean, "get_text"), count
            )
        series["getter_aggregate"][nodes] = aggregate
        series["multicast_tx"][nodes] = _multicast_tx_ceiling(cluster, count)
    return series


def _multicast_tx_ceiling(cluster: DedisysCluster, count: int) -> float:
    """§5.1: ping/pong multicast plus remote transaction association."""
    recipients = [n for n in cluster.nodes if n != "n1"]

    def ping(i: int) -> None:
        # A deliberately unhandled kind: the §5.1 ceiling measures pure
        # transport + ack cost, so members must answer "ignored".
        cluster.channel.multicast("n1", "ping")  # replint: ignore[MSG001]
        for node in recipients:
            cluster.nodes[node].persistence.charge("tx_remote_association")

    if not recipients:
        # single node: only local transaction handling remains
        def ping(i: int) -> None:  # noqa: F811
            cluster.nodes["n1"].persistence.charge("tx_remote_association")

    return cluster.throughput(ping, count)


# ----------------------------------------------------------------------
# Figure 5.6 — reconciliation time
# ----------------------------------------------------------------------
@dataclass
class ReconciliationTiming:
    replica_phase_seconds: float
    constraint_phase_seconds: float
    threats_stored: int
    threats_reevaluated: int


def figure_5_6(
    distinct_threats: int = 40,
    occurrences_each: int = 5,
) -> dict[str, ReconciliationTiming]:
    """Reconciliation timing for identical-once vs. full-history storage.

    §5.2's setup: operations in degraded mode producing N identical
    consistency threats (here: ``distinct_threats`` identities with
    ``occurrences_each`` occurrences), reconciled after reunification with
    every threat actually satisfied (the best case).
    """
    results = {}
    for label, policy in (
        ("identical_once", ThreatStoragePolicy.IDENTICAL_ONCE),
        ("full_history", ThreatStoragePolicy.FULL_HISTORY),
    ):
        cluster = build_cluster(nodes=3, policy=policy)
        beans = [
            cluster.create_entity("n1", "TestBean", f"bean-{index}")
            for index in range(distinct_threats)
        ]
        cluster.partition({"n1", "n2"}, {"n3"})
        handler = AcceptAllHandler()
        for _ in range(occurrences_each):
            for bean in beans:
                cluster.invoke("n1", bean, "threat_op", negotiation_handler=handler)
        stored = cluster.threat_stores["n1"].stored_records()
        cluster.heal()
        report = cluster.reconcile()
        results[label] = ReconciliationTiming(
            replica_phase_seconds=report.replica_phase_seconds,
            constraint_phase_seconds=report.constraint_phase_seconds,
            threats_stored=stored,
            threats_reevaluated=report.threats_reevaluated,
        )
    return results


# ----------------------------------------------------------------------
# Figure 5.8 — identical-threat-once improvement over iterations
# ----------------------------------------------------------------------
def figure_5_8(
    iterations: int = 5,
    operations_per_iteration: int = 40,
) -> dict[str, list[float]]:
    """Accepted-threat throughput per iteration for both storage policies.

    Each iteration performs the same operations on the same objects, so
    from the second iteration on every threat is identical to a stored
    one: the identical-once policy reduces to read-only dedup checks while
    the full history keeps persisting records.
    """
    results: dict[str, list[float]] = {}
    for label, policy in (
        ("full_history", ThreatStoragePolicy.FULL_HISTORY),
        ("identical_once", ThreatStoragePolicy.IDENTICAL_ONCE),
    ):
        cluster = build_cluster(nodes=3, policy=policy)
        beans = [
            cluster.create_entity("n1", "TestBean", f"bean-{index}")
            for index in range(operations_per_iteration)
        ]
        cluster.partition({"n1", "n2"}, {"n3"})
        handler = AcceptAllHandler()
        per_iteration: list[float] = []
        for _ in range(iterations):
            rate = cluster.throughput(
                lambda i: cluster.invoke(
                    "n1", beans[i], "threat_op", negotiation_handler=handler
                ),
                operations_per_iteration,
            )
            per_iteration.append(rate)
        results[label] = per_iteration
    return results


# ----------------------------------------------------------------------
# §5.5.3 — asynchronous constraints
# ----------------------------------------------------------------------
def async_constraint_improvement(count: int = 60) -> dict[str, float]:
    """Degraded-mode throughput: soft vs. asynchronous threat constraint.

    Both use the identical-threats-once policy; the asynchronous variant
    skips validation and negotiation entirely in degraded mode (§5.5.3:
    up to two times the soft-constraint rate).
    """
    results = {}
    for label, ctype in (
        ("soft", ConstraintType.INVARIANT_SOFT),
        ("async", ConstraintType.INVARIANT_ASYNC),
    ):
        cluster = build_cluster(
            nodes=3, constraint_types={"ThreatProducer": ctype}
        )
        bean = cluster.create_entity("n1", "TestBean", "bean")
        cluster.partition({"n1", "n2"}, {"n3"})
        handler = AcceptAllHandler()
        results[label] = cluster.throughput(
            lambda i: cluster.invoke(
                "n1", bean, "threat_op", negotiation_handler=handler
            ),
            count,
        )
    return results
