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
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager

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
    """Fires a scenario's ops inside scheduler events and records one
    ``(op, served)`` outcome per op — the only workload loop there is:
    the model checker, the chaos replayer and the availability study all
    read their tallies off :attr:`outcomes`."""

    def __init__(self, cluster: Any, refs: tuple[Any, ...]) -> None:
        self.cluster = cluster
        self.refs = refs
        self.outcomes: list[tuple[Op, bool]] = []  # in firing order
        self.errors: dict[str, int] = {}  # blocked ops per error class
        # Per reconciliation fired here: its report, the handler it used,
        # and every node's threat identities just before it ran.
        self.reconciliations: list[Any] = []
        self.constraint_handlers: list[Any] = []
        self.threat_snapshots: list[dict[Any, frozenset[Any]]] = []
        self.reconcile_seconds = 0.0  # simulated
        self._handler = AcceptAllHandler()
        self._due: deque[Op] = deque()  # the op in flight, then those waiting

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(served for _op, served in self.outcomes)

    @property
    def samples(self) -> list[tuple[float, bool]]:
        return [(op.at, served) for op, served in self.outcomes]

    def install(self, scenario: Scenario, start: float) -> None:
        # Scenario times are relative to the end of cluster construction
        # (building charges simulated cost, so absolute zero is long gone).
        for op in scenario.ops:
            self.cluster.scheduler.schedule_at(
                start + op.at, self._fire, scenario, op, label=op.label()
            )
        scenario.shifted_fault_schedule(start).install(self.cluster.network)

    def reconcile(self, scenario: Scenario) -> Any:
        """One timed reconciliation with the domain's constraint handler."""
        cluster = self.cluster
        handler = scenario.reconcile_handler(cluster)
        self.constraint_handlers.append(handler)
        stored = {
            node: frozenset(store.identities())
            for node, store in cluster.threat_stores.items()
        }
        began = cluster.clock.now
        report = cluster.reconcile(constraint_handler=handler)
        self.reconcile_seconds += cluster.clock.now - began
        self.threat_snapshots.append(stored)
        self.reconciliations.append(report)
        return report

    def _fire(self, scenario: Scenario, op: Op) -> None:
        # A retry that backs off drives the scheduler from inside its
        # invocation; an op coming due meanwhile waits for it, like the
        # next request of one busy client (one transaction at a time).
        self._due.append(op)
        if len(self._due) > 1:
            return
        while self._due:
            self._run(scenario, self._due[0])
            self._due.popleft()

    def _run(self, scenario: Scenario, op: Op) -> None:
        try:
            if op.kind == "reconcile":
                self.reconcile(scenario)
            else:
                self.cluster.invoke(
                    op.node,
                    self.refs[op.ref_index],
                    op.method,
                    *op.args,
                    negotiation_handler=self._handler,
                )
        except BLOCKING_ERRORS as exc:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.outcomes.append((op, False))
        else:
            self.outcomes.append((op, True))


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

    delivered = cluster.network.record_deliveries()
    probe = RunProbe(cluster=cluster, refs=refs, delivered=delivered)
    driver = OpDriver(cluster, refs)
    driver.install(scenario, cluster.clock.now)

    policy.begin_run()
    registry.begin_run()
    violations: list[Violation] = []
    steps = 0
    scheduler = cluster.scheduler
    scheduler.set_ordering_policy(policy)
    try:
        with mutation(cluster) if mutation else contextlib.nullcontext():
            while True:
                delivered.clear()
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
        ops_blocked=driver.attempted - driver.served,
        trace_jsonl=trace,
        snapshot=obs.snapshot(),
    )
