"""One controlled run of a scenario under an ordering policy.

:func:`run_schedule` rebuilds the world from the scenario, installs the
fault script and the workload as simulator events, then drives the
scheduler step by step with the given :class:`OrderingPolicy` deciding
among enabled events.  Every registered invariant is evaluated after
every step; the first violation aborts the schedule and is returned with
the full decision sequence, so the explorer can replay and shrink it.
:class:`OpDriver` is the workload loop it shares with every other
scenario runner, and :func:`outcome_digest` the backend-independent
summary of what a run produced.

Observability: each run exports ``check_*`` counters (steps, decisions,
invariant evaluations, violations) and a final ``check_schedule`` trace
event carrying the run's schedule fingerprint.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager

from ..core import (
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintViolated,
    OperationShedded,
)
from ..net import NodeCrashedError, UnreachableError
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
    """Fires a scenario's ops and records one ``(op, served, result)``
    outcome per op — the only workload loop there is: the model checker,
    the chaos replayer, the availability study and the cross-backend
    conformance suite all read their tallies off :attr:`outcomes`, and
    hand its run to the invariants through :meth:`fill_probe`."""

    def __init__(self, cluster: Any, refs: tuple[Any, ...]) -> None:
        self.cluster = cluster
        self.refs = refs
        # In firing order; the result is what the op returned, or its
        # error class if blocked.
        self.outcomes: list[tuple[Op, bool, Any]] = []
        self.errors: dict[str, int] = {}  # blocked ops per error class
        # Per reconciliation fired here: every node's threat identities
        # just before it ran, and its report; and the handler it used.
        self.rounds: list[tuple[dict[Any, frozenset[Any]], Any]] = []
        self.constraint_handlers: list[Any] = []
        # (ref index, field) -> the creation value, then every value a
        # served setter wrote, for each field set on an entity the
        # scenario drives through ``set_<field>`` / ``get_<field>`` only.
        self.settable: dict[tuple[int, str], list[Any]] = {}
        self.reconcile_seconds = 0.0  # on the transport's clock
        self._handler = AcceptAllHandler()

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(served for _op, served, _result in self.outcomes)

    @property
    def samples(self) -> list[tuple[float, bool]]:
        return [(op.at, served) for op, served, _result in self.outcomes]

    @property
    def reconciliations(self) -> list[Any]:
        return [report for _stored, report in self.rounds]

    def fill_probe(self, probe: RunProbe, since: int = 0) -> RunProbe:
        """Hand ``probe`` this run: the settable fields, and the
        reconciliations from index ``since`` on, the last of them as
        ``just_reconciled``."""
        probe.settable = self.settable
        probe.rounds = self.rounds[since:]
        probe.just_reconciled = probe.rounds[-1][1] if probe.rounds else None
        return probe

    def install(self, scenario: Scenario, start: float) -> None:
        """Schedule every op and fault as a simulator event."""
        self._note_settable(scenario)
        # Scenario times are relative to the end of cluster construction
        # (building charges simulated cost, so absolute zero is long gone).
        for op in scenario.ops:
            self.cluster.scheduler.schedule_at(
                start + op.at, self._run, scenario, op, label=op.label()
            )
        scenario.shifted_fault_schedule(start).install(self.cluster.network)

    def play(self, scenario: Scenario) -> None:
        """Run the whole timeline on the cluster's scheduler, whatever
        the transport: schedule it from now, then drain."""
        self.install(scenario, self.cluster.clock.now)
        self.cluster.scheduler.drain()

    def _note_settable(self, scenario: Scenario) -> None:
        methods: dict[int, set[str]] = {}
        for op in scenario.ops:
            if op.kind == "invoke":
                methods.setdefault(op.ref_index, set()).add(op.method)
        for index, names in methods.items():
            if not all(name.startswith(("set_", "get_")) for name in names):
                continue
            states = self.cluster.replica_states(self.refs[index]).values()
            state = dict(next(s for s in states if s is not None))
            for name in sorted(names):
                if name.startswith("set_"):
                    self.settable[index, name[4:]] = [state[name[4:]]]

    def reconcile(self, scenario: Scenario) -> Any:
        """One timed reconciliation with the domain's handlers."""
        cluster = self.cluster
        handler = scenario.reconcile_handler(cluster)
        self.constraint_handlers.append(handler)
        stored = {
            node: frozenset(store.identities())
            for node, store in cluster.threat_stores.items()
        }
        began = cluster.clock.now
        report = cluster.reconcile(
            replica_handler=scenario.replica_handler(self.refs), constraint_handler=handler
        )
        self.reconcile_seconds += cluster.clock.now - began
        self.rounds.append((stored, report))
        return report

    def _run(self, scenario: Scenario, op: Op) -> None:
        try:
            if op.kind == "reconcile":
                self.reconcile(scenario)
                result = None
            else:
                result = self.cluster.invoke(
                    op.node,
                    self.refs[op.ref_index],
                    op.method,
                    *op.args,
                    negotiation_handler=self._handler,
                )
        except BLOCKING_ERRORS as exc:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.outcomes.append((op, False, name))
        else:
            self.outcomes.append((op, True, result))
            if op.method.startswith("set_") and (op.ref_index, op.method[4:]) in self.settable:
                self.settable[op.ref_index, op.method[4:]].append(op.args[0])


def outcome_digest(driver: OpDriver) -> dict[str, Any]:
    """Everything the driver's run promises, timing excluded — equal on
    every backend for one scenario: each op's outcome and result, every
    entity's state per node, the threat stores (identities and record /
    row counts) now and before each reconciliation, each reconciliation's
    counters, and every node's system mode."""
    cluster = driver.cluster

    def by_node(values: Any) -> dict[str, Any]:
        return {str(node): value for node, value in sorted(values.items())}

    def identities(stores: Any) -> dict[str, list[str]]:
        return by_node({node: sorted(map(str, ids)) for node, ids in stores.items()})

    return {
        "ops": [[op.label(), served, result] for op, served, result in driver.outcomes],
        "states": {str(ref): by_node(cluster.replica_states(ref)) for ref in driver.refs},
        "threats": identities({n: store.identities() for n, store in cluster.threat_stores.items()}),
        "threat_accounting": by_node(cluster.threat_accounting()),
        "threats_before": [identities(stored) for stored, _report in driver.rounds],
        "reconciliations": [
            {name: getattr(report, name) for name in report._SUMMED if not name.endswith("_seconds")}
            for _stored, report in driver.rounds
        ],
        "modes": by_node({node: cluster.mode_of(node).value for node in cluster.nodes}),
    }


def run_schedule(
    scenario: Scenario,
    policy: RecordingPolicy | None = None,
    registry: InvariantRegistry | None = None,
    mutation: Mutation | None = None,
    max_steps: int = 10_000,
    collect_trace: bool = True,
) -> RunResult:
    """Run one schedule of ``scenario`` under ``policy``; check invariants.

    Stops at the first invariant violation (the remaining events never
    fire — the violating prefix is the counterexample).  ``mutation``
    optionally installs a test-only middleware breakage for the whole run.
    """
    policy = policy if policy is not None else FifoPolicy()
    registry = registry if registry is not None else default_registry()
    obs = Observability()
    cluster, refs = scenario.build(obs)

    m_steps = obs.registry.counter("check_steps_total", "scheduler steps driven by the checker")
    m_decisions = obs.registry.counter("check_decisions_total", "non-trivial scheduling choice points")
    m_evals = obs.registry.counter("check_invariant_evals_total", "invariant evaluations performed")
    m_violations = obs.registry.counter("check_violations_total", "invariant violations found")

    delivered = cluster.network.record_deliveries()
    driver = OpDriver(cluster, refs)
    driver.install(scenario, cluster.clock.now)
    probe = RunProbe(cluster=cluster, refs=refs, delivered=delivered)

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
                reconciled = len(driver.rounds)
                if scheduler.step() is None:
                    break
                driver.fill_probe(probe, since=reconciled)
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
