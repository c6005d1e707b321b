"""Deterministic chaos runner: seeded random fault sequences + invariants.

The Chapter-5 experiments script clean partitions by hand.  The
:class:`ChaosRunner` instead *generates* a fault script from a seed —
link failures, heals, crashes, recoveries, partitions — installs it as a
:class:`~repro.faults.schedule.FaultSchedule` on the simulation
scheduler, optionally smears Gilbert–Elliott burst loss over every link,
and drives a seeded read/write workload through the middle of it.  After
the run it heals everything, reconciles, and checks the system invariants
the dissertation's availability/integrity trade rests on:

* **convergence** — after ``heal_all`` + reconciliation every replica of
  every entity holds the same state;
* **threat accounting** — no accepted threat is lost from the threat
  log: every distinct threat recorded during degraded mode is
  re-evaluated by reconciliation and ends up removed, resolved, deferred
  or postponed;
* **durability** — the surviving state of each entity is one that a
  committed write (or the initial create) actually produced;
* **recovery** — the cluster returns to a healthy topology and every
  node perceives the HEALTHY system mode again.

Everything — fault times, fault choices, workload, backoff jitter, burst
loss — derives from seeds, so one seed maps to exactly one trace: running
the same configuration twice yields byte-identical event traces and equal
metric snapshots, which the test suite enforces.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from typing import Any

from ..core import (
    AcceptAllHandler,
    ConstraintPriority,
    PredicateConstraint,
    SatisfactionDegree,
)
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..core.system_mode import SystemMode
from ..objects import Entity
from ..obs import Observability
from .injector import FaultInjector
from .resilience import ResilienceConfig
from .schedule import FaultSchedule


class ChaosRecord(Entity):
    """The workload entity: a bounded counter, one constraint on it."""

    fields = {"counter": 0, "bound": 10**9}


def _chaos_constraint() -> ConstraintRegistration:
    constraint = PredicateConstraint(
        "ChaosCounterBound",
        lambda ctx: ctx.get_context_object().get_counter()
        <= ctx.get_context_object().get_bound(),
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
        context_class="ChaosRecord",
    )
    return ConstraintRegistration(
        constraint, (AffectedMethod("ChaosRecord", "set_counter"),)
    )


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one post-run invariant check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    seed: int
    fault_events: list[tuple[float, str, tuple[Any, ...]]] = field(default_factory=list)
    attempted: int = 0
    served: int = 0
    blocked: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    threats_recorded: int = 0
    invariants: list[InvariantResult] = field(default_factory=list)
    reconciliation: Any = None
    snapshot: dict[str, Any] = field(default_factory=dict)
    trace_jsonl: str = ""

    @property
    def availability(self) -> float:
        return self.served / self.attempted if self.attempted else 0.0

    @property
    def all_invariants_hold(self) -> bool:
        return all(result.ok for result in self.invariants)

    @property
    def failed_invariants(self) -> list[InvariantResult]:
        return [result for result in self.invariants if not result.ok]


@dataclass
class ChaosConfig:
    """One chaos scenario; everything is derived from ``seed``."""

    node_count: int = 5
    entities: int = 6
    operations: int = 150
    fault_events: int = 20
    seed: int = 0
    protocol: str = "p4"
    read_ratio: float = 0.6
    # Simulated seconds between consecutive workload operations (the gap
    # the scheduler advances through, letting scripted faults fire).
    op_gap: float = 0.05
    resilience: ResilienceConfig | None = None
    # Steady-state burst-loss target smeared over every link via a
    # Gilbert-Elliott default model; ``None`` disables the injector.
    burst_loss: float | None = None

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("chaos needs at least two nodes")
        if self.entities < 1 or self.operations < 0 or self.fault_events < 0:
            raise ValueError("entities/operations/fault_events must be sensible")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be within [0, 1]")
        if self.burst_loss is not None and not 0.0 < self.burst_loss < 0.5:
            raise ValueError("burst_loss must be within (0, 0.5)")


class ChaosRunner:
    """Builds a cluster, unleashes a seeded fault script, checks invariants."""

    def __init__(self, config: ChaosConfig | None = None, **overrides: Any) -> None:
        if config is None:
            config = ChaosConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ChaosConfig or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        """One full chaos run: build, script, load, heal, reconcile, check."""
        # Imported here: the cluster module imports this package for the
        # resilience wiring, so a module-level import would be circular.
        from ..cluster import ClusterConfig, DedisysCluster

        cfg = self.config
        obs = Observability()
        node_ids = tuple(f"n{i}" for i in range(1, cfg.node_count + 1))
        cluster = DedisysCluster(
            ClusterConfig(
                node_ids=node_ids,
                protocol=cfg.protocol,
                seed=cfg.seed,
                obs=obs,
                resilience=cfg.resilience,
            )
        )
        cluster.deploy(ChaosRecord)
        cluster.register_constraint(_chaos_constraint())
        if cfg.burst_loss is not None:
            cluster.network.install_fault_injector(
                FaultInjector.burst_loss(cfg.burst_loss, seed=cfg.seed)
            )

        refs = [
            cluster.create_entity(
                node_ids[index % cfg.node_count], "ChaosRecord", f"chaos-{index}"
            )
            for index in range(cfg.entities)
        ]
        committed: dict[Any, set[int]] = {ref: {0} for ref in refs}

        rng = random.Random(f"chaos:{cfg.seed}")
        report = ChaosReport(seed=cfg.seed)
        schedule = self._generate_schedule(rng, node_ids, start=cluster.clock.now)
        report.fault_events = schedule.to_events()
        schedule.install(cluster.network)

        self._drive_workload(cluster, rng, refs, committed, report)

        # Quiesce: let any still-pending scripted faults fire, then repair
        # everything and reconcile.
        cluster.scheduler.drain()
        pre_reconcile_identities = {
            identity
            for store in cluster.threat_stores.values()
            for identity in store.identities()
        }
        report.threats_recorded = len(pre_reconcile_identities)
        cluster.heal()
        recon = cluster.reconcile()
        report.reconciliation = recon

        self._check_invariants(
            cluster, refs, committed, pre_reconcile_identities, recon, report
        )

        report.snapshot = cluster.snapshot()
        stream = io.StringIO()
        cluster.export_trace(stream)
        report.trace_jsonl = stream.getvalue()
        return report

    # ------------------------------------------------------------------
    # fault-script generation
    # ------------------------------------------------------------------
    def _generate_schedule(
        self, rng: random.Random, node_ids: tuple[str, ...], start: float = 0.0
    ) -> FaultSchedule:
        """A seeded random fault script over the workload window.

        The generator tracks the topology it has scripted so far so heals
        and recoveries target things that are actually broken, and it
        keeps at least one node un-crashed.  All events land strictly
        inside the workload window so every one fires during the run.
        """
        cfg = self.config
        horizon = max(cfg.operations, 1) * cfg.op_gap
        schedule = FaultSchedule()
        failed_links: set[frozenset[str]] = set()
        crashed: set[str] = set()
        for index in range(cfg.fault_events):
            at = start + (index + 1) / (cfg.fault_events + 1) * horizon
            choices = ["fail_link", "partition"]
            if failed_links:
                choices.append("heal_link")
            if crashed:
                choices += ["recover_node", "recover_node"]
            if len(crashed) < len(node_ids) - 1:
                choices.append("crash_node")
            if failed_links or crashed:
                choices.append("heal_all")
            action = rng.choice(choices)
            if action == "fail_link":
                a, b = rng.sample(node_ids, 2)
                failed_links.add(frozenset((a, b)))
                schedule.fail_link(at, a, b)
            elif action == "heal_link":
                link = rng.choice(sorted(failed_links, key=sorted))
                failed_links.discard(link)
                a, b = sorted(link)
                schedule.heal_link(at, a, b)
            elif action == "crash_node":
                node = rng.choice(sorted(set(node_ids) - crashed))
                crashed.add(node)
                schedule.crash_node(at, node)
            elif action == "recover_node":
                node = rng.choice(sorted(crashed))
                crashed.discard(node)
                schedule.recover_node(at, node)
            elif action == "partition":
                shuffled = list(node_ids)
                rng.shuffle(shuffled)
                cut = rng.randint(1, len(shuffled) - 1)
                failed_links = {
                    frozenset((a, b))
                    for a in shuffled[:cut]
                    for b in shuffled[cut:]
                }
                schedule.partition(at, shuffled[:cut], shuffled[cut:])
            else:  # heal_all
                failed_links.clear()
                crashed.clear()
                schedule.heal_all(at)
        return schedule

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _drive_workload(
        self,
        cluster: Any,
        rng: random.Random,
        refs: list[Any],
        committed: dict[Any, set[int]],
        report: ChaosReport,
    ) -> None:
        # Imported here for the same reason as the cluster in ``run``.
        from ..check.runner import BLOCKING_ERRORS

        cfg = self.config
        node_ids = list(cluster.nodes)
        handler = AcceptAllHandler()
        value_counter = 0
        for _ in range(cfg.operations):
            # Advance simulated time so scripted faults fire between ops.
            cluster.scheduler.run_until(cluster.clock.now + cfg.op_gap)
            node = rng.choice(node_ids)
            ref = rng.choice(refs)
            is_read = rng.random() < cfg.read_ratio
            value_counter += 1
            report.attempted += 1
            try:
                if is_read:
                    cluster.invoke(node, ref, "get_counter")
                else:
                    cluster.invoke(
                        node,
                        ref,
                        "set_counter",
                        value_counter,
                        negotiation_handler=handler,
                    )
            except BLOCKING_ERRORS as exc:
                report.blocked += 1
                name = type(exc).__name__
                report.errors[name] = report.errors.get(name, 0) + 1
            else:
                report.served += 1
                if not is_read:
                    committed[ref].add(value_counter)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _check_invariants(
        self,
        cluster: Any,
        refs: list[Any],
        committed: dict[Any, set[int]],
        pre_identities: set[Any],
        recon: Any,
        report: ChaosReport,
    ) -> None:
        report.invariants = [
            check_replicas_converge(cluster, refs),
            self._committed_state_survives(cluster, refs, committed),
            check_no_accepted_threat_lost(cluster, pre_identities, recon),
            check_cluster_healthy_again(cluster, recon),
        ]

    @staticmethod
    def _committed_state_survives(
        cluster: Any, refs: list[Any], committed: dict[Any, set[int]]
    ) -> InvariantResult:
        # Committed updates survive: the surviving counter value was
        # actually produced by a committed write (or the initial create).
        lost: list[str] = []
        for ref in refs:
            first = cluster.nodes[next(iter(cluster.nodes))]
            if not first.container.has(ref):
                lost.append(f"{ref}: entity missing")
                continue
            value = first.container.resolve(ref).state()["counter"]
            if value not in committed[ref]:
                lost.append(f"{ref}: final {value} not in committed set")
        return InvariantResult(
            "committed_state_survives", not lost, "; ".join(lost[:3])
        )


# ----------------------------------------------------------------------
# post-run invariants (shared between chaos runs and corpus replays)
# ----------------------------------------------------------------------
def check_replicas_converge(cluster: Any, refs: Any) -> InvariantResult:
    """After heal + reconciliation every replica holds the same state."""
    diverged: list[str] = []
    for ref in refs:
        states = set()
        for node_id in cluster.nodes:
            node = cluster.nodes[node_id]
            if not node.container.has(ref):
                states.add(("missing", node_id))
                continue
            entity = node.container.resolve(ref)
            states.add(tuple(sorted(entity.state().items())))
        if len(states) != 1:
            diverged.append(f"{ref}: {sorted(map(str, states))}")
    return InvariantResult(
        "replicas_converge",
        not diverged,
        "; ".join(diverged[:3]),
    )


def check_no_accepted_threat_lost(
    cluster: Any, pre_identities: set[Any], recon: Any
) -> InvariantResult:
    """Every distinct threat present before reconciliation is accounted
    for — re-evaluated and removed/resolved/deferred/postponed."""
    accounted = (
        recon.satisfied_removed
        + recon.violations_found
        + recon.postponed
    )
    threat_ok = recon.threats_reevaluated >= len(pre_identities) and accounted >= len(
        pre_identities
    )
    remaining = sum(
        store.count_identities() for store in cluster.threat_stores.values()
    )
    if recon.postponed == 0 and recon.deferred == 0:
        threat_ok = threat_ok and remaining == 0
    return InvariantResult(
        "no_accepted_threat_lost",
        threat_ok,
        f"recorded={len(pre_identities)} reevaluated={recon.threats_reevaluated} "
        f"accounted={accounted} remaining={remaining}",
    )


def check_cluster_healthy_again(cluster: Any, recon: Any) -> InvariantResult:
    """One partition, no crashes, every node back in HEALTHY mode (when
    reconciliation ran clean — postponed/deferred work legitimately keeps
    nodes out)."""
    healthy = cluster.network.is_healthy()
    if recon.postponed == 0 and recon.deferred == 0:
        modes = {node: cluster.mode_of(node) for node in cluster.nodes}
        healthy = healthy and all(
            mode is SystemMode.HEALTHY for mode in modes.values()
        )
        detail = "" if healthy else str({n: m.value for n, m in modes.items()})
    else:
        detail = f"postponed={recon.postponed} deferred={recon.deferred}"
    return InvariantResult("cluster_healthy_again", healthy, detail)


def run_chaos(**overrides: Any) -> ChaosReport:
    """Convenience one-shot: ``run_chaos(seed=3, fault_events=25).availability``."""
    return ChaosRunner(ChaosConfig(**overrides)).run()


# ----------------------------------------------------------------------
# scenario replay: the corpus-facing entry point
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Everything one scenario replay produced."""

    scenario: str
    domain: str
    attempted: int = 0
    served: int = 0
    blocked: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    threats_recorded: int = 0
    invariants: list[InvariantResult] = field(default_factory=list)
    reconciliation: Any = None
    # Every reconciliation run of the replay (mid-run ops + final), with
    # the constraint handler each one used — tests read integrity
    # damage (e.g. rebooked tickets) off these.
    reconciliations: list[Any] = field(default_factory=list)
    constraint_handlers: list[Any] = field(default_factory=list)
    # Availability over time: one entry per bucket of the op window.
    availability_curve: list[dict[str, Any]] = field(default_factory=list)
    # Canonical JSON lines from the adaptation engine's decision log
    # (empty when the scenario attached no policies).
    adaptation_trace: list[str] = field(default_factory=list)
    snapshot: dict[str, Any] = field(default_factory=dict)
    trace_jsonl: str = ""

    @property
    def availability(self) -> float:
        return self.served / self.attempted if self.attempted else 0.0

    @property
    def integrity_violations(self) -> int:
        """Definite constraint violations found across all reconciliations."""
        return sum(
            int(getattr(recon, "violations_found", 0))
            for recon in self.reconciliations
            if recon is not None
        )

    @property
    def all_invariants_hold(self) -> bool:
        return all(result.ok for result in self.invariants)

    @property
    def failed_invariants(self) -> list[InvariantResult]:
        return [result for result in self.invariants if not result.ok]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary (sorted-key friendly; no trace, no snapshot)."""
        return {
            "scenario": self.scenario,
            "domain": self.domain,
            "attempted": self.attempted,
            "served": self.served,
            "blocked": self.blocked,
            "availability": round(self.availability, 6),
            "errors": dict(sorted(self.errors.items())),
            "threats_recorded": self.threats_recorded,
            "integrity_violations": self.integrity_violations,
            "invariants": [
                {"name": result.name, "ok": result.ok, "detail": result.detail}
                for result in self.invariants
            ],
            "violations": [result.name for result in self.failed_invariants],
            "availability_curve": self.availability_curve,
        }


def _availability_curve(
    samples: list[tuple[float, bool]],
    horizon: float,
    buckets: int,
    bucket_width: float | None = None,
) -> list[dict[str, Any]]:
    """Bucket ``(at, ok)`` samples over ``[0, horizon]``.

    ``bucket_width`` (simulated seconds) takes precedence over the
    ``buckets`` count when given, so curves from scenarios of different
    lengths are comparable bucket for bucket.  An empty window — no
    samples and no horizon — yields an empty curve rather than dividing
    by zero.
    """
    if not samples and horizon <= 0:
        return []
    if bucket_width is not None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        span = max(horizon, max((at for at, _ok in samples), default=0.0))
        span = span if span > 0 else bucket_width
        buckets = max(1, -(-int(round(span * 10**9)) // int(round(bucket_width * 10**9))))
        counts = [[0, 0] for _ in range(buckets)]
        for at, ok in samples:
            slot = min(int(at / bucket_width), buckets - 1)
            counts[slot][0] += 1
            if ok:
                counts[slot][1] += 1
        return [
            {
                "until": round((slot + 1) * bucket_width, 6),
                "attempted": attempted,
                "served": served,
                "availability": round(served / attempted, 6) if attempted else None,
            }
            for slot, (attempted, served) in enumerate(counts)
        ]
    buckets = max(1, buckets)
    span = horizon if horizon > 0 else 1.0
    counts = [[0, 0] for _ in range(buckets)]
    for at, ok in samples:
        slot = min(int(at / span * buckets), buckets - 1)
        counts[slot][0] += 1
        if ok:
            counts[slot][1] += 1
    return [
        {
            "until": round((slot + 1) * span / buckets, 6),
            "attempted": attempted,
            "served": served,
            "availability": round(served / attempted, 6) if attempted else None,
        }
        for slot, (attempted, served) in enumerate(counts)
    ]


def replay_scenario(
    scenario: Any,
    obs: Any = None,
    buckets: int = 8,
    bucket_width: float | None = None,
) -> ReplayReport:
    """Replay one :class:`~repro.check.scenario.Scenario` under chaos rules.

    The same scenario JSON the model checker explores runs here as a
    single FIFO execution through the checker's own op driver: ops fire
    as scheduler events, the fault script installs on the network, and
    after a drain + heal + reconcile the shared post-run invariants
    (convergence, threat accounting, recovery) are evaluated.  The report
    carries a bucketed availability curve over the op window — the
    per-domain series the corpus sweep records.
    """
    # Imported here: ``repro.check`` imports the cluster, which imports us.
    from ..check.runner import OpDriver

    obs = obs if obs is not None else Observability()
    cluster, refs = scenario.build(obs)
    driver = OpDriver(cluster, refs)
    driver.install(scenario, cluster.clock.now)
    cluster.scheduler.drain()
    report = ReplayReport(
        scenario=scenario.name,
        domain=scenario.domain,
        attempted=driver.attempted,
        served=driver.served,
        blocked=driver.blocked,
        errors=driver.errors,
        reconciliations=driver.reconciliations,
        constraint_handlers=driver.constraint_handlers,
    )

    pre_identities = {
        identity
        for store in cluster.threat_stores.values()
        for identity in store.identities()
    }
    report.threats_recorded = len(pre_identities)
    cluster.heal()
    final_handler = scenario.reconcile_handler(cluster)
    report.constraint_handlers.append(final_handler)
    recon = cluster.reconcile(constraint_handler=final_handler)
    report.reconciliation = recon
    report.reconciliations.append(recon)

    report.invariants = [
        check_replicas_converge(cluster, refs),
        check_no_accepted_threat_lost(cluster, pre_identities, recon),
        check_cluster_healthy_again(cluster, recon),
    ]
    horizon = max((op.at for op in scenario.ops), default=0.0)
    report.availability_curve = _availability_curve(
        driver.samples, horizon, buckets, bucket_width=bucket_width
    )

    obs.emit(
        "corpus_replay",
        scenario=scenario.name,
        domain=scenario.domain,
        attempted=report.attempted,
        served=report.served,
        blocked=report.blocked,
        violations=[result.name for result in report.failed_invariants],
    )
    obs.registry.counter(
        "corpus_replay_ops_total", "workload ops replayed from corpus scenarios"
    ).inc(report.attempted, domain=scenario.domain)

    if cluster.adaptation is not None:
        report.adaptation_trace = cluster.adaptation.trace_lines()
    report.snapshot = cluster.snapshot()
    stream = io.StringIO()
    cluster.export_trace(stream)
    report.trace_jsonl = stream.getvalue()
    return report
