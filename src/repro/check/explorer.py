"""Systematic schedule exploration and counterexample shrinking.

The :class:`ModelChecker` walks the tree of scheduling decisions with a
stateless bounded-depth DFS: each explored schedule is one full scenario
run under a :class:`ReplayPolicy` whose prescription fixes a decision
prefix (everything beyond the prefix defaults to FIFO).  After a run, the
recorded choice points spawn sibling prefixes — the same prefix with one
later decision flipped to an unexplored alternative — so every schedule
in the bounded space is visited exactly once, without storing any state
between runs beyond the prefix stack.

A violating run becomes a :class:`Counterexample`: the scenario (as plain
data), the decision prescription, the violation, and the schedule
fingerprint.  :func:`shrink_counterexample` then greedily minimizes it —
zero out reordering decisions (FIFO is the "no reordering" default), trim
the prescription, drop fault events, drop workload ops — re-running after
each candidate edit and keeping it only when the same invariant still
fails.  The result is a small deterministic repro, serializable as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .invariants import default_registry
from .policies import ReplayPolicy
from .runner import Mutation, RunResult, run_schedule
from .scenario import Scenario


@dataclass
class CheckConfig:
    """Exploration bounds.

    ``max_schedules`` caps the number of full runs; ``max_decisions``
    bounds the DFS branching depth (decisions beyond it always take the
    FIFO default); ``window`` widens what counts as concurrently enabled
    (0.0 = only same-timestamp/overdue events); ``max_branch`` caps the
    alternatives tried per choice point.
    """

    max_schedules: int = 1000
    max_decisions: int = 12
    max_branch: int = 4
    window: float = 0.0
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if self.max_schedules < 1 or self.max_decisions < 0 or self.max_branch < 1:
            raise ValueError("exploration bounds must be positive")
        if self.window < 0:
            raise ValueError("window must be non-negative")


@dataclass(frozen=True)
class Counterexample:
    """A self-contained, replayable repro of one invariant violation."""

    scenario: Scenario
    prescription: tuple[int, ...]
    fingerprint: str
    violations: tuple[Any, ...]
    window: float = 0.0

    @property
    def invariant(self) -> str:
        return self.violations[0].invariant if self.violations else ""

    @property
    def decision_count(self) -> int:
        """Non-FIFO decisions plus prescription length after trimming."""
        trimmed = list(self.prescription)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return len(trimmed)

    def replay(
        self, mutation: Mutation | None = None, max_steps: int = 10_000
    ) -> RunResult:
        return run_schedule(
            self.scenario,
            policy=ReplayPolicy(self.prescription, window=self.window),
            registry=default_registry(),
            mutation=mutation,
            max_steps=max_steps,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "prescription": list(self.prescription),
            "window": self.window,
            "fingerprint": self.fingerprint,
            "violations": [violation.to_dict() for violation in self.violations],
        }

    def write(self, path: str | Path) -> Path:
        """Emit the JSON repro; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Counterexample":
        from .invariants import Violation

        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            prescription=tuple(data["prescription"]),
            window=data.get("window", 0.0),
            fingerprint=data["fingerprint"],
            violations=tuple(
                Violation(
                    invariant=item["invariant"],
                    detail=item["detail"],
                    step=item["step"],
                    sim_time=item["sim_time"],
                )
                for item in data["violations"]
            ),
        )


@dataclass
class ExplorationReport:
    """Outcome of one bounded DFS sweep."""

    scenario: str
    schedules_explored: int = 0
    unique_fingerprints: int = 0
    max_decision_depth: int = 0
    total_steps: int = 0
    complete: bool = False  # the bounded space was exhausted
    counterexample: Counterexample | None = None

    @property
    def found_violation(self) -> bool:
        return self.counterexample is not None


class ModelChecker:
    """Bounded systematic search over a scenario's schedule space."""

    def __init__(
        self,
        scenario: Scenario,
        config: CheckConfig | None = None,
        mutation: Mutation | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config if config is not None else CheckConfig()
        self.mutation = mutation

    # ------------------------------------------------------------------
    def run_one(self, prescription: tuple[int, ...] = ()) -> RunResult:
        """One schedule under a replayed decision prefix."""
        return run_schedule(
            self.scenario,
            policy=ReplayPolicy(prescription, window=self.config.window),
            registry=default_registry(),
            mutation=self.mutation,
            max_steps=self.config.max_steps,
        )

    def explore(self) -> ExplorationReport:
        """Bounded-depth DFS; stops at the first violation or budget end."""
        cfg = self.config
        report = ExplorationReport(scenario=self.scenario.name)
        fingerprints: set[str] = set()
        stack: list[tuple[int, ...]] = [()]
        while stack and report.schedules_explored < cfg.max_schedules:
            prefix = stack.pop()
            result = self.run_one(prefix)
            report.schedules_explored += 1
            report.total_steps += result.steps
            report.max_decision_depth = max(
                report.max_decision_depth, len(result.decisions)
            )
            fingerprints.add(result.fingerprint)
            if result.violations:
                report.counterexample = Counterexample(
                    scenario=self.scenario,
                    prescription=result.prescription,
                    fingerprint=result.fingerprint,
                    violations=result.violations,
                    window=cfg.window,
                )
                break
            chosen = result.prescription
            # Spawn siblings: flip each decision beyond the prefix to a
            # not-yet-explored alternative.  Reversed push order keeps the
            # walk depth-first in natural (left-to-right) order.
            depth_cap = min(len(result.decisions), cfg.max_decisions)
            for index in range(depth_cap - 1, len(prefix) - 1, -1):
                decision = result.decisions[index]
                branch_cap = min(decision.arity, cfg.max_branch)
                for alternative in range(branch_cap - 1, decision.chosen, -1):
                    stack.append(chosen[:index] + (alternative,))
        report.unique_fingerprints = len(fingerprints)
        report.complete = not stack and report.counterexample is None
        return report


@dataclass
class ShrinkResult:
    """Outcome of greedy counterexample minimization."""

    original: Counterexample
    shrunk: Counterexample
    runs: int = 0


def shrink_counterexample(
    counterexample: Counterexample,
    mutation: Mutation | None = None,
    max_runs: int = 300,
) -> ShrinkResult:
    """Greedily minimize a counterexample, preserving the violation.

    Passes, repeated to fixpoint: set each prescribed reordering back to
    the FIFO default, drop each fault event, drop each workload op.  An
    edit survives only when re-running still violates the *same*
    invariant.
    """
    target = counterexample.invariant
    runs = 0

    def reproduces(candidate: Counterexample) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        result = candidate.replay(mutation)
        return any(violation.invariant == target for violation in result.violations)

    current = counterexample
    changed = True
    while changed and runs < max_runs:
        changed = False
        # 1. Undo reorderings one at a time (0 = the FIFO default).
        prescription = list(current.prescription)
        for index in range(len(prescription)):
            if prescription[index] == 0:
                continue
            attempt = list(prescription)
            attempt[index] = 0
            candidate = _with(current, prescription=tuple(attempt))
            if reproduces(candidate):
                prescription = attempt
                current = candidate
                changed = True
        # 2. Trim the trailing FIFO defaults (pure normalization).
        trimmed = list(current.prescription)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if len(trimmed) != len(current.prescription):
            current = _with(current, prescription=tuple(trimmed))
        # 3. Drop fault events.
        index = len(current.scenario.fault_events) - 1
        while index >= 0:
            candidate = _with(current, scenario=current.scenario.without_fault(index))
            if reproduces(candidate):
                current = candidate
                changed = True
            index -= 1
        # 4. Drop workload ops.
        index = len(current.scenario.ops) - 1
        while index >= 0:
            candidate = _with(current, scenario=current.scenario.without_op(index))
            if reproduces(candidate):
                current = candidate
                changed = True
            index -= 1

    # Re-run the final form once to stamp the true fingerprint/violations.
    final = current.replay(mutation)
    runs += 1
    if final.violations:
        current = Counterexample(
            scenario=current.scenario,
            prescription=current.prescription,
            fingerprint=final.fingerprint,
            violations=final.violations,
            window=current.window,
        )
    return ShrinkResult(original=counterexample, shrunk=current, runs=runs)


def _with(
    counterexample: Counterexample,
    scenario: Scenario | None = None,
    prescription: tuple[int, ...] | None = None,
) -> Counterexample:
    return Counterexample(
        scenario=scenario if scenario is not None else counterexample.scenario,
        prescription=(
            prescription if prescription is not None else counterexample.prescription
        ),
        fingerprint=counterexample.fingerprint,
        violations=counterexample.violations,
        window=counterexample.window,
    )
