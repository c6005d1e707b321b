"""Scenario replay under chaos rules: one run, four post-run invariants.

A chaos run is scenario *data*: the corpus generator's ``chaos`` preset
(``generate_scenario(preset_config("counter", seed, "chaos"))``) draws a
seeded random walk of link failures, heals, crashes, recoveries and
partitions over a bounded-counter workload, with burst loss and
client-side resilience as scenario ``params``.  :func:`replay_scenario`
runs it, like any other :class:`~repro.check.scenario.Scenario`, through
the checker's own :class:`~repro.check.runner.OpDriver`, then heals
everything, reconciles, and checks the invariants the dissertation's
availability/integrity trade rests on:

* **convergence** — after ``heal_all`` + reconciliation every replica of
  every entity holds the same state;
* **durability** — an entity driven through plain setters ends in a
  state that a served write (or its creation) actually produced;
* **threat accounting** — no accepted threat is lost from the threat
  log: every distinct threat a reconciliation finds on the nodes it
  merges is re-evaluated and ends up removed, resolved, deferred or
  postponed;
* **recovery** — the cluster returns to a healthy topology and every
  node perceives the HEALTHY system mode again.

Everything — fault times, fault choices, workload, backoff jitter, burst
loss — derives from seeds, so one scenario maps to exactly one trace:
replaying it twice yields byte-identical event traces and equal metric
snapshots, which the test suite enforces.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from ..core.system_mode import SystemMode
from ..obs import Observability


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one post-run invariant check."""

    name: str
    ok: bool
    detail: str = ""


def _state_of(cluster: Any, ref: Any) -> dict[str, Any]:
    """The entity's state on the first node that holds a replica."""
    return dict(next(s for s in cluster.replica_states(ref).values() if s is not None))


def check_replicas_converge(cluster: Any, refs: Any) -> InvariantResult:
    """After heal + reconciliation every replica holds the same state; a
    replicated entity is missing nowhere, an unreplicated one has the one
    copy."""
    diverged = cluster.diverged_replicas(refs)
    return InvariantResult("replicas_converge", not diverged, "; ".join(diverged[:3]))


def settable_values(
    cluster: Any, refs: Any, ops: Iterable[Any]
) -> dict[tuple[int, str], list[Any]]:
    """``(ref index, field) -> [current value]`` for every field set on an
    entity the ops drive through ``set_<field>`` / ``get_<field>`` only —
    there, each value ever written is scenario data."""
    methods: dict[int, set[str]] = {}
    for op in ops:
        if op.kind == "invoke":
            methods.setdefault(op.ref_index, set()).add(op.method)
    return {
        (index, name[4:]): [_state_of(cluster, refs[index])[name[4:]]]
        for index, names in methods.items()
        if all(name.startswith(("set_", "get_")) for name in names)
        for name in sorted(names)
        if name.startswith("set_")
    }


def check_committed_state_survives(
    cluster: Any,
    refs: Any,
    created: dict[tuple[int, str], list[Any]],
    outcomes: Iterable[tuple[Any, bool]],
) -> InvariantResult:
    """Committed updates survive: each field in ``created`` (the
    :func:`settable_values` at creation) ends at its creation value or at
    one a served setter wrote."""
    produced = {key: list(values) for key, values in created.items()}
    for op, served in outcomes:
        if served and op.method.startswith("set_") and (op.ref_index, op.method[4:]) in produced:
            produced[op.ref_index, op.method[4:]].append(op.args[0])
    lost = [
        f"{refs[index]}: final {name}={final!r} was never written"
        for (index, name), values in produced.items()
        if (final := _state_of(cluster, refs[index])[name]) not in values
    ]
    covered = f"covered={len({index for index, _name in produced})}"
    return InvariantResult("committed_state_survives", not lost, "; ".join([covered] + lost[:3]))


def check_no_accepted_threat_lost(
    cluster: Any, rounds: Iterable[tuple[dict[Any, frozenset[Any]], Any]]
) -> InvariantResult:
    """Every distinct threat a reconciliation found on the nodes it
    merged is accounted for — re-evaluated and removed/resolved/deferred/
    postponed.  ``rounds`` pairs each reconciliation report with every
    node's threat identities just before it ran; a clean last round must
    leave no threat behind."""
    recorded = reevaluated = accounted = 0
    threat_ok = True
    recon = None
    for stored, recon in rounds:
        for group in recon.groups:
            found = len(frozenset().union(*(stored[n] for n in group.merged_partition)))
            handled = group.satisfied_removed + group.violations_found + group.postponed
            threat_ok = threat_ok and min(group.threats_reevaluated, handled) >= found
            recorded += found
            reevaluated += group.threats_reevaluated
            accounted += handled
    remaining = sum(store.count_identities() for store in cluster.threat_stores.values())
    if recon is not None and recon.postponed == 0 and recon.deferred == 0:
        threat_ok = threat_ok and remaining == 0
    return InvariantResult(
        "no_accepted_threat_lost",
        threat_ok,
        f"recorded={recorded} reevaluated={reevaluated} "
        f"accounted={accounted} remaining={remaining}",
    )


def check_cluster_healthy_again(cluster: Any, recon: Any) -> InvariantResult:
    """One partition, no crashes, every node back in HEALTHY mode (when
    reconciliation ran clean — postponed/deferred work legitimately keeps
    nodes out)."""
    healthy = cluster.network.is_healthy()
    if recon.postponed == 0 and recon.deferred == 0:
        modes = {node: cluster.mode_of(node) for node in cluster.nodes}
        healthy = healthy and all(mode is SystemMode.HEALTHY for mode in modes.values())
        detail = "" if healthy else str({n: m.value for n, m in modes.items()})
    else:
        detail = f"postponed={recon.postponed} deferred={recon.deferred}"
    return InvariantResult("cluster_healthy_again", healthy, detail)


@dataclass
class ReplayReport:
    """Everything one scenario replay produced."""

    scenario: str
    domain: str
    attempted: int = 0
    served: int = 0
    blocked: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    # One ``(op, served)`` per scenario op, in firing order.
    outcomes: list[tuple[Any, bool]] = field(default_factory=list)
    # Distinct threat identities found in the stores by any reconciliation.
    threats_recorded: int = 0
    # Threats the CCMgrs accepted, every occurrence counted.
    threats_accepted: int = 0
    # Simulated time from the first scenario tick to the end of the final
    # reconciliation, and the part of it spent reconciling.
    simulated_seconds: float = 0.0
    reconciliation_seconds: float = 0.0
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
        return sum(recon.violations_found for recon in self.reconciliations)

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
            "invariants": [asdict(result) for result in self.invariants],
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
    by_count = bucket_width is None
    if by_count:
        buckets = max(1, buckets)
        span = horizon if horizon > 0 else 1.0
        bucket_width = span / buckets
    elif bucket_width <= 0:
        raise ValueError(f"bucket_width must be positive, got {bucket_width}")
    else:
        span = max(horizon, max((at for at, _ok in samples), default=0.0))
        span = span if span > 0 else bucket_width
        buckets = max(1, -(-int(round(span * 10**9)) // int(round(bucket_width * 10**9))))
    counts = [[0, 0] for _ in range(buckets)]
    for at, ok in samples:
        # Not ``at / bucket_width`` for both: a sample on a bucket edge
        # would change sides with the rounding of the derived width.
        position = at / span * buckets if by_count else at / bucket_width
        slot = min(int(position), buckets - 1)
        counts[slot][0] += 1
        counts[slot][1] += ok
    return [
        {
            "until": round((slot + 1) * bucket_width, 6),
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
    (convergence, durability, threat accounting, recovery) are evaluated.
    The report carries a bucketed availability curve over the op window —
    the per-domain series the corpus sweep records.
    """
    # Imported here: ``repro.check`` imports the cluster, which imports us.
    from ..check.runner import OpDriver

    obs = obs if obs is not None else Observability()
    cluster, refs = scenario.build(obs)
    created = settable_values(cluster, refs, scenario.ops)
    started = cluster.clock.now
    driver = OpDriver(cluster, refs)
    driver.install(scenario, started)
    cluster.scheduler.drain()
    cluster.heal()
    recon = driver.reconcile(scenario)
    snapshots = driver.threat_snapshots
    report = ReplayReport(
        scenario=scenario.name,
        domain=scenario.domain,
        attempted=driver.attempted,
        served=driver.served,
        blocked=driver.attempted - driver.served,
        errors=driver.errors,
        outcomes=driver.outcomes,
        threats_recorded=len(
            frozenset().union(*(ids for stored in snapshots for ids in stored.values()))
        ),
        threats_accepted=sum(
            ccmgr.stats["threats_accepted"] for ccmgr in cluster.ccmgrs.values()
        ),
        simulated_seconds=cluster.clock.now - started,
        reconciliation_seconds=driver.reconcile_seconds,
        invariants=[
            check_replicas_converge(cluster, refs),
            check_committed_state_survives(cluster, refs, created, driver.outcomes),
            check_no_accepted_threat_lost(cluster, zip(snapshots, driver.reconciliations)),
            check_cluster_healthy_again(cluster, recon),
        ],
        reconciliation=recon,
        reconciliations=driver.reconciliations,
        constraint_handlers=driver.constraint_handlers,
        availability_curve=_availability_curve(
            driver.samples,
            max((op.at for op in scenario.ops), default=0.0),
            buckets,
            bucket_width=bucket_width,
        ),
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
