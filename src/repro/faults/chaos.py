"""Scenario replay: the one way to run a scenario outside the checker.

A chaos run is scenario *data*: the corpus generator's ``chaos`` preset
(``generate_scenario(preset_config("counter", seed, "chaos"))``) draws a
seeded random walk of link failures, heals, crashes, recoveries and
partitions over a bounded-counter workload (a ``burst_loss`` override
adds seeded burst loss as a scenario param).  :func:`replay_scenario`
runs it, like any other :class:`~repro.check.scenario.Scenario`, through
the checker's own :class:`~repro.check.runner.OpDriver` on any transport,
then heals everything, reconciles, and evaluates the checker's own
invariant registry (:func:`~repro.check.invariants.default_registry`):
the properties the dissertation's availability/integrity trade rests on —
convergence, durability of committed writes, no accepted threat lost,
recovery to the HEALTHY mode — hold on every backend or the report says
which did not.

On the simulator everything — fault times, fault choices, workload,
burst loss — derives from seeds, so one scenario maps to
exactly one trace: replaying it twice yields byte-identical event traces
and equal metric snapshots, which the test suite enforces.  The threaded
backend runs on the same clock and scheduler, so a replay there ends with
the simulator's outcome digest (:func:`~repro.check.runner.outcome_digest`)
at the simulator's simulated time.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
from typing import Any

from ..obs import Observability


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one registry invariant after the replay."""

    name: str
    ok: bool
    detail: str = ""


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
    # The backend-independent outcome (see ``check.runner.outcome_digest``).
    digest: dict[str, Any] = field(default_factory=dict)
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
    transport: Any = "sim",
) -> ReplayReport:
    """Replay one :class:`~repro.check.scenario.Scenario` on ``transport``.

    The same scenario JSON the model checker explores runs here as a
    single FIFO execution through the checker's own op driver
    (:meth:`~repro.check.runner.OpDriver.play`); after a heal + reconcile
    the checker's invariant registry is evaluated once.  The report
    carries the outcome digest and a bucketed availability curve over the
    op window — the per-domain series the corpus sweep records.
    """
    # Imported here: ``repro.check`` imports the cluster, which imports us.
    from ..check.invariants import RunProbe, default_registry
    from ..check.runner import OpDriver, outcome_digest

    obs = obs if obs is not None else Observability()
    cluster, refs = scenario.build(obs, transport)
    with cluster:
        started = cluster.clock.now
        driver = OpDriver(cluster, refs)
        driver.play(scenario)
        cluster.heal()
        recon = driver.reconcile(scenario)
        registry = default_registry()
        probe = driver.fill_probe(RunProbe(cluster, refs))
        failed = {violation.invariant: violation.detail for violation in registry.evaluate(probe)}
        report = ReplayReport(
            scenario=scenario.name,
            domain=scenario.domain,
            attempted=driver.attempted,
            served=driver.served,
            blocked=driver.attempted - driver.served,
            errors=driver.errors,
            outcomes=[(op, served) for op, served, _result in driver.outcomes],
            threats_recorded=len(
                frozenset().union(*(ids for stored, _ in driver.rounds for ids in stored.values()))
            ),
            threats_accepted=sum(
                ccmgr.stats["threats_accepted"] for ccmgr in cluster.ccmgrs.values()
            ),
            simulated_seconds=cluster.clock.now - started,
            reconciliation_seconds=driver.reconcile_seconds,
            invariants=[
                InvariantResult(name, name not in failed, failed.get(name, ""))
                for name in registry.names()
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
            digest=outcome_digest(driver),
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
