"""The one invariant registry: every step of a checked schedule, and
after every scenario replay.

Invariants are the safety properties the dissertation's availability /
integrity trade rests on, phrased as side-effect-free probes over a live
cluster.  The model checker evaluates every registered invariant after
every scheduler step of every explored schedule; the first violation
aborts the run and becomes a counterexample.  A replay
(:func:`~repro.faults.chaos.replay_scenario`, on any transport) evaluates
the same registry once, after its closing heal + reconciliation.

Built-ins:

* :class:`AtMostOnePrimaryPerPartition` — under P4 each partition elects
  at most one (temporary) primary per object; two write targets inside
  one partition is split brain.
* :class:`LatticeMonotonicity` — a stored threat's satisfaction degree
  only moves *down* the §3.1 lattice while the threat lives (occurrences
  are merged with ``meet``), and stored degrees are actual threat degrees.
* :class:`ThreatAccounting` — no accepted threat is lost: a node's
  in-memory threat records and its persisted rows never drift apart,
  every threat a reconciliation found on the nodes it merged is
  re-evaluated and handled, and a *clean* reconciliation of a healthy
  network leaves every threat store empty.
* :class:`ReplicaConvergence` — after a reconciliation of a healthy
  network, every node holds byte-identical replica state per object.
* :class:`NoCrossPartitionDelivery` — no message is delivered between
  nodes that were unreachable from each other when it was sent.
* :class:`AdaptationGuardrails` — the adaptation loop agrees with its
  own action ledger.
* :class:`CommittedStateSurvives` — a field the scenario drives through
  plain setters only ever holds its creation value or one a served write
  set.
* :class:`ClusterHealthyAgain` — a clean reconciliation of a healthy
  network brings every node back to the HEALTHY system mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.model import SatisfactionDegree

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import DedisysCluster
    from ..net import Message
    from ..objects import ObjectRef


@dataclass
class RunProbe:
    """Per-step view of the cluster handed to every invariant.

    The runner refreshes the bookkeeping fields around each scheduler
    step so invariants can reason about *what just happened* without
    instrumenting the middleware themselves.
    """

    cluster: "DedisysCluster"
    refs: tuple["ObjectRef", ...]
    step: int = 0
    # Messages delivered during the current step (the runner's recorder,
    # see ``Network.record_deliveries``).
    delivered: Sequence["Message"] = ()
    # Network topology version before the current step; when it moved
    # during the step, reachability "now" no longer describes delivery
    # time and delivery checks stand down for this step.
    topology_before: int = 0
    # Reconciliation report produced *during the current step*, if any.
    just_reconciled: Any = None
    # Filled by ``OpDriver.fill_probe`` for a runner that drives a
    # scenario's ops; a probe without them (the ledger's) leaves the
    # checks that read them vacuous.
    # (ref index, field) -> every value the field may hold: its creation
    # value, then each one a served setter wrote.
    settable: Mapping[tuple[int, str], Sequence[Any]] = field(default_factory=dict)
    # The reconciliations to account for now, each paired with every
    # node's threat identities just before it ran.
    rounds: Sequence[tuple[Mapping[Any, frozenset], Any]] = ()

    @property
    def topology_changed(self) -> bool:
        return self.cluster.network.topology_version != self.topology_before


@dataclass(frozen=True)
class Violation:
    """One invariant violation found at a specific step of a schedule."""

    invariant: str
    detail: str
    step: int
    sim_time: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "step": self.step,
            "sim_time": self.sim_time,
        }


class Invariant:
    """One safety property; ``check`` returns a violation detail or None."""

    name = "abstract"

    def begin_run(self) -> None:
        """Reset any cross-step state before a new schedule runs."""

    def check(self, probe: RunProbe) -> str | None:
        raise NotImplementedError


class AtMostOnePrimaryPerPartition(Invariant):
    """No partition may route writes for one object to two nodes."""

    name = "at_most_one_primary_per_partition"

    def check(self, probe: RunProbe) -> str | None:
        for ref in probe.refs:
            for partition, targets in probe.cluster.write_targets(ref).items():
                if len(targets) > 1:
                    return (
                        f"{ref}: partition {sorted(partition)} routes writes "
                        f"to {list(targets)}"
                    )
                if targets and targets[0] not in partition:
                    return (
                        f"{ref}: partition {sorted(partition)} routes writes "
                        f"outside itself to {targets[0]}"
                    )
        return None


class LatticeMonotonicity(Invariant):
    """Stored threat degrees only move down the satisfaction lattice."""

    name = "lattice_monotonicity"

    def __init__(self) -> None:
        self._last_seen: dict[tuple[str, Any], SatisfactionDegree] = {}

    def begin_run(self) -> None:
        self._last_seen = {}

    def check(self, probe: RunProbe) -> str | None:
        seen: dict[tuple[str, Any], SatisfactionDegree] = {}
        for node_id, store in probe.cluster.threat_stores.items():
            for threat in store.pending():
                key = (node_id, threat.identity)
                degree = threat.degree
                if not degree.is_threat:
                    return (
                        f"{node_id}: stored threat {threat.identity} carries "
                        f"non-threat degree {degree.name}"
                    )
                previous = self._last_seen.get(key)
                if previous is not None and degree > previous:
                    return (
                        f"{node_id}: threat {threat.identity} degree rose "
                        f"{previous.name} -> {degree.name}"
                    )
                seen[key] = degree
        # Identities that disappear were resolved; re-recording later
        # legitimately starts a fresh monotone descent.
        self._last_seen = seen
        return None


class ThreatAccounting(Invariant):
    """Threat stores and their persisted rows stay in lockstep; every
    distinct threat a reconciliation found on the nodes it merged is
    re-evaluated and removed, resolved or postponed; clean reconciliation
    of a healthy network empties the stores."""

    name = "threat_accounting"

    def check(self, probe: RunProbe) -> str | None:
        for node_id, (records, rows) in probe.cluster.threat_accounting().items():
            if records != rows:
                return (
                    f"{node_id}: {records} in-memory threat records but "
                    f"{rows} persisted rows"
                )
        for stored, round_report in probe.rounds:
            for group in round_report.groups:
                found = len({identity for n in group.merged_partition for identity in stored[n]})
                handled = group.satisfied_removed + group.violations_found + group.postponed
                if min(group.threats_reevaluated, handled) < found:
                    return (
                        f"reconciling {sorted(group.merged_partition)} found {found} "
                        f"threats but re-evaluated {group.threats_reevaluated} and "
                        f"handled {handled}"
                    )
        report = probe.just_reconciled
        if (
            report is not None
            and report.postponed == 0
            and report.deferred == 0
            and probe.cluster.network.is_healthy()
        ):
            leftovers = {
                node_id: store.count_identities()
                for node_id, store in probe.cluster.threat_stores.items()
                if store.count_identities()
            }
            if leftovers:
                return (
                    "clean reconciliation of a healthy network left threats "
                    f"behind: {leftovers}"
                )
        return None


class ReplicaConvergence(Invariant):
    """After a reconciliation of a healthy network every replica agrees —
    constraint work it postponed or deferred included, since the replica
    phase runs first."""

    name = "replica_convergence"

    def check(self, probe: RunProbe) -> str | None:
        if probe.just_reconciled is None or not probe.cluster.network.is_healthy():
            return None
        diverged = probe.cluster.diverged_replicas(probe.refs)
        return f"replicas diverge post-reconciliation: {diverged[0]}" if diverged else None


class NoCrossPartitionDelivery(Invariant):
    """Messages delivered during the step respected the topology."""

    name = "no_cross_partition_delivery"

    def check(self, probe: RunProbe) -> str | None:
        if probe.topology_changed:
            # The step itself moved the topology; reachability "now" says
            # nothing about delivery time.  Skip this step.
            return None
        network = probe.cluster.network
        for message in probe.delivered:
            if message.source == message.destination:
                continue
            if not network.reachable(message.source, message.destination):
                return (
                    f"{message.kind} delivered {message.source} -> "
                    f"{message.destination} across a severed link"
                )
        return None


class AdaptationGuardrails(Invariant):
    """Runtime adaptation must stay consistent with its own ledger.

    The adaptation loop switches modes *mid-flight*: the other five
    invariants already guarantee no switch breaks routing, the lattice,
    threat accounting, convergence, or delivery — this one pins the
    loop's own bookkeeping at every step:

    * the cluster-wide shed flag on every CCMgr matches the ledger of
      applied-but-not-undone ``shed_load`` actions;
    * every designated primary (after any ``rehome_primaries``) is one
      of the object's replica holders;
    * the engine never re-fires a policy before its cooldown elapsed
      after a release or rollback.
    """

    name = "adaptation_guardrails"

    def check(self, probe: RunProbe) -> str | None:
        cluster = probe.cluster
        actions = getattr(cluster, "adaptation_actions", [])
        shed_expected = any(
            action.action == "shed_load" and not action.undone for action in actions
        )
        for node_id in sorted(cluster.ccmgrs):
            flag = cluster.ccmgrs[node_id].shed_tradeable_writes
            if flag != shed_expected:
                return (
                    f"node {node_id}: shed flag {flag} disagrees with the "
                    f"action ledger (expected {shed_expected})"
                )
        if cluster.replication is not None:
            for ref in probe.refs:
                if not cluster.replication.is_replicated(ref):
                    continue
                info = cluster.replication.info(ref)
                if info.designated_primary not in info.replica_nodes:
                    return (
                        f"{ref}: designated primary {info.designated_primary} "
                        f"holds no replica ({sorted(info.replica_nodes)})"
                    )
        engine = getattr(cluster, "adaptation", None)
        if engine is not None:
            released_at: dict[str, tuple[float, float]] = {}
            for entry in engine.trace:
                policy_name = entry["policy"]
                if entry["phase"] in ("release", "rollback", "veto"):
                    cooldown = engine.state_of(policy_name).policy.cooldown
                    released_at[policy_name] = (entry["t"], cooldown)
                elif entry["phase"] == "fire" and policy_name in released_at:
                    since, cooldown = released_at[policy_name]
                    if entry["t"] - since < cooldown - 1e-9:
                        return (
                            f"policy {policy_name!r} re-fired {entry['t'] - since:.6f}s "
                            f"after release; cooldown is {cooldown}s"
                        )
        return None


class CommittedStateSurvives(Invariant):
    """Committed updates survive: on an entity the scenario drives through
    ``set_<field>`` / ``get_<field>`` only, each set field holds its
    creation value or one a served setter wrote — there, every value ever
    written is scenario data (``RunProbe.settable``)."""

    name = "committed_state_survives"

    def check(self, probe: RunProbe) -> str | None:
        for (index, name), values in probe.settable.items():
            ref = probe.refs[index]
            states = probe.cluster.replica_states(ref).values()
            value = dict(next(s for s in states if s is not None))[name]
            if value not in values:
                return f"{ref}: {name}={value!r} was never written"
        return None


class ClusterHealthyAgain(Invariant):
    """A clean reconciliation of a healthy network brings every node back
    to the HEALTHY system mode (Fig. 1.4); postponed or deferred work
    legitimately keeps nodes out."""

    name = "cluster_healthy_again"

    def check(self, probe: RunProbe) -> str | None:
        from ..core.system_mode import SystemMode  # loaded with the cluster

        report = probe.just_reconciled
        if report is None or report.postponed or report.deferred:
            return None
        cluster = probe.cluster
        if not cluster.network.is_healthy():
            return None
        stuck = {
            str(node): mode.value
            for node in cluster.nodes
            if (mode := cluster.mode_of(node)) is not SystemMode.HEALTHY
        }
        return f"nodes not HEALTHY after a clean reconciliation: {stuck}" if stuck else None


class InvariantRegistry:
    """An ordered set of invariants evaluated together at each step."""

    def __init__(self, invariants: tuple[Invariant, ...] = ()) -> None:
        self.invariants: list[Invariant] = list(invariants)

    def register(self, invariant: Invariant) -> "InvariantRegistry":
        self.invariants.append(invariant)
        return self

    def names(self) -> list[str]:
        return [invariant.name for invariant in self.invariants]

    def begin_run(self) -> None:
        for invariant in self.invariants:
            invariant.begin_run()

    def evaluate(self, probe: RunProbe) -> list[Violation]:
        violations: list[Violation] = []
        for invariant in self.invariants:
            detail = invariant.check(probe)
            if detail is not None:
                violations.append(
                    Violation(
                        invariant=invariant.name,
                        detail=detail,
                        step=probe.step,
                        sim_time=probe.cluster.clock.now,
                    )
                )
        return violations


def default_registry() -> InvariantRegistry:
    """Fresh instances of every built-in invariant."""
    return InvariantRegistry(
        (
            AtMostOnePrimaryPerPartition(),
            LatticeMonotonicity(),
            ThreatAccounting(),
            ReplicaConvergence(),
            NoCrossPartitionDelivery(),
            AdaptationGuardrails(),
            CommittedStateSurvives(),
            ClusterHealthyAgain(),
        )
    )
