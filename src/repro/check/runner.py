"""One controlled run of a scenario under an ordering policy.

:func:`run_schedule` rebuilds the world from the scenario, installs the
fault script and the workload as simulator events, then drives the
scheduler step by step with the given :class:`OrderingPolicy` deciding
among enabled events.  Every registered invariant is evaluated after
every step; the first violation aborts the schedule and is returned with
the full decision sequence, so the explorer can replay and shrink it.

Observability: each run exports ``check_*`` counters (steps, decisions,
invariant evaluations, violations) and a final ``check_schedule`` trace
event carrying the run's schedule fingerprint.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

from ..core import (
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintViolated,
    OperationShedded,
)
from ..faults.resilience import CircuitOpenError
from ..net import DeadlineExceededError, NodeCrashedError, UnreachableError
from ..obs import Observability
from ..replication import WriteAccessDenied
from ..tx import TransactionRolledBack
from .invariants import InvariantRegistry, RunProbe, Violation, default_registry
from .policies import ChoicePoint, FifoPolicy, RecordingPolicy
from .scenario import Op, Scenario

# Errors a workload op may legitimately hit mid-fault; the op counts as
# blocked, the schedule continues.
BLOCKING_ERRORS = (
    UnreachableError,
    NodeCrashedError,
    DeadlineExceededError,
    CircuitOpenError,
    WriteAccessDenied,
    ConsistencyThreatRejected,
    ConstraintViolated,
    OperationShedded,
    TransactionRolledBack,
)

# A mutation is a test-only fault *in the middleware itself*: a callable
# receiving the freshly built cluster and returning a context manager that
# holds the breakage in place for the duration of the run.
Mutation = Callable[[Any], ContextManager[None]]


@dataclass
class RunResult:
    """Everything one controlled schedule produced."""

    scenario: str
    policy: str
    fingerprint: str
    decisions: tuple[ChoicePoint, ...]
    violations: tuple[Violation, ...]
    steps: int
    sim_time: float
    ops_attempted: int = 0
    ops_served: int = 0
    ops_blocked: int = 0
    trace_jsonl: str = ""
    snapshot: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def prescription(self) -> tuple[int, ...]:
        """The decision sequence replaying this exact schedule."""
        return tuple(decision.chosen for decision in self.decisions)


class OpDriver:
    """Fires a scenario's ops inside scheduler events and tallies outcomes
    (shared by the model checker and the chaos replayer)."""

    def __init__(self, cluster: Any, refs: tuple[Any, ...]) -> None:
        self.cluster = cluster
        self.refs = refs
        self.attempted = 0
        self.served = 0
        self.blocked = 0
        self.errors: dict[str, int] = {}  # blocked ops per error class
        self.samples: list[tuple[float, bool]] = []  # (op.at, served)
        # Mid-run reconciliation reports and the handler each one used.
        self.reconciliations: list[Any] = []
        self.constraint_handlers: list[Any] = []
        self._handler = AcceptAllHandler()

    def install(self, scenario: Scenario, start: float) -> None:
        # Scenario times are relative to the end of cluster construction
        # (building charges simulated cost, so absolute zero is long gone).
        for op in scenario.ops:
            self.cluster.scheduler.schedule_at(
                start + op.at, self._fire, scenario, op, label=op.label()
            )
        scenario.shifted_fault_schedule(start).install(self.cluster.network)

    def _fire(self, scenario: Scenario, op: Op) -> None:
        self.attempted += 1
        try:
            if op.kind == "reconcile":
                handler = scenario.reconcile_handler(self.cluster)
                self.constraint_handlers.append(handler)
                self.reconciliations.append(
                    self.cluster.reconcile(constraint_handler=handler)
                )
            else:
                self.cluster.invoke(
                    op.node,
                    self.refs[op.ref_index],
                    op.method,
                    *op.args,
                    negotiation_handler=self._handler,
                )
        except BLOCKING_ERRORS as exc:
            self.blocked += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.samples.append((op.at, False))
        else:
            self.served += 1
            self.samples.append((op.at, True))


@contextlib.contextmanager
def _no_mutation(cluster: Any) -> Iterator[None]:
    yield


def run_schedule(
    scenario: Scenario,
    policy: RecordingPolicy | None = None,
    registry: InvariantRegistry | None = None,
    mutation: Mutation | None = None,
    max_steps: int = 10_000,
    collect_trace: bool = True,
    obs: Observability | None = None,
) -> RunResult:
    """Run one schedule of ``scenario`` under ``policy``; check invariants.

    Stops at the first invariant violation (the remaining events never
    fire — the violating prefix is the counterexample).  ``mutation``
    optionally installs a test-only middleware breakage for the whole run.
    """
    policy = policy if policy is not None else FifoPolicy()
    registry = registry if registry is not None else default_registry()
    obs = obs if obs is not None else Observability()
    cluster, refs = scenario.build(obs)

    m_steps = obs.registry.counter("check_steps_total", "scheduler steps driven by the checker")
    m_decisions = obs.registry.counter("check_decisions_total", "non-trivial scheduling choice points")
    m_evals = obs.registry.counter("check_invariant_evals_total", "invariant evaluations performed")
    m_violations = obs.registry.counter("check_violations_total", "invariant violations found")

    probe = RunProbe(cluster=cluster, refs=refs)
    driver = OpDriver(cluster, refs)
    driver.install(scenario, cluster.clock.now)

    policy.begin_run()
    registry.begin_run()
    violations: list[Violation] = []
    steps = 0
    scheduler = cluster.scheduler
    scheduler.set_ordering_policy(policy)
    try:
        with (mutation or _no_mutation)(cluster):
            while True:
                probe.delivered_before = cluster.network.delivered_count
                probe.topology_before = cluster.network.topology_version
                reconciled = len(driver.reconciliations)
                if scheduler.step() is None:
                    break
                fresh = driver.reconciliations[reconciled:]
                probe.just_reconciled = fresh[0] if fresh else None
                steps += 1
                probe.step = steps
                violations = registry.evaluate(probe)
                m_evals.inc(len(registry.invariants))
                if violations:
                    break
                if steps >= max_steps:
                    raise RuntimeError(
                        f"schedule exceeded {max_steps} steps (runaway scenario?)"
                    )
    finally:
        scheduler.set_ordering_policy(None)

    fingerprint = policy.fingerprint()
    m_steps.inc(steps)
    m_decisions.inc(len(policy.decisions))
    if violations:
        m_violations.inc(len(violations))
    obs.emit(
        "check_schedule",
        scenario=scenario.name,
        policy=policy.name,
        fingerprint=fingerprint,
        decisions=len(policy.decisions),
        steps=steps,
        violations=[violation.invariant for violation in violations],
    )

    trace = ""
    if collect_trace:
        stream = io.StringIO()
        obs.export_jsonl(stream)
        trace = stream.getvalue()
    return RunResult(
        scenario=scenario.name,
        policy=policy.name,
        fingerprint=fingerprint,
        decisions=tuple(policy.decisions),
        violations=tuple(violations),
        steps=steps,
        sim_time=cluster.clock.now,
        ops_attempted=driver.attempted,
        ops_served=driver.served,
        ops_blocked=driver.blocked,
        trace_jsonl=trace,
        snapshot=obs.snapshot(),
    )
