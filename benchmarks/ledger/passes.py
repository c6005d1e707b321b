"""Running a plan once: blocks of closed-loop operations between passes
of the reference kernel, partition cycles in between, oracle at the end.

Nothing here does arithmetic on the timings (that is ``metrics.py``) and
nothing here knows the program under test (that is ``backends.py``).
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any

import backends
import spans
import workloads
from refkernel import timed_pass


def run_block(invoke, ops, latencies, outcomes, tracer) -> None:
    """The closed loop: the next call is issued when the previous one
    returns.  Each op first advances ``tracer.op`` so that its spans, if
    any wrapper is installed, can be told apart."""
    clock = perf_counter
    for caller, key, method, args in ops:
        tracer.op += 1
        started = clock()
        try:
            result = invoke(caller, key, method, args)
        except backends.Refused:
            result = workloads.REFUSED
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            result = ("error", f"{type(exc).__name__}: {exc}"[:120])
        latencies.append(clock() - started)
        outcomes.append(result)


class Pass:
    """Everything one run of a plan measured, before any arithmetic.

    A *block* is ``{"s", "k0", "k1", "lat", "ops", "first_op",
    "counters"}``: elapsed seconds, the kernel passes before and after,
    per-op latencies, the plan ops, the tracer index of its first op and
    (when collected) the program-counter deltas across it.
    """

    def __init__(self, plan: workloads.Plan) -> None:
        self.plan = plan
        self.build_s = 0.0  # backend constructor (process spawn on "proc")
        self.build_k = (0.0, 0.0)
        self.kernel: list[float] = []
        self.blocks: list[dict[str, Any]] = []
        self.cycles: list[dict[str, Any]] = []
        self.healthy_outcomes: list[Any] = []
        self.degraded_outcomes: list[Any] = []
        self.problems: list[str] = []
        self.digest = ""
        self.registrations = 0
        self.peak_rss_mb = 0.0
        self.extras: dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.healthy_outcomes) + len(self.degraded_outcomes)

    @property
    def failed(self) -> int:
        """Ops whose outcome differs from the oracle's prediction."""
        plan = self.plan
        expected = [o for block in plan.expected_healthy for o in block]
        expected += [o for block in plan.expected_degraded for o in block]
        actual = self.healthy_outcomes + self.degraded_outcomes
        wrong = sum(1 for want, got in zip(expected, actual) if want != got)
        return wrong + abs(len(expected) - len(actual))


def run_pass(
    plan: workloads.Plan,
    tracer: spans.Tracer | None = None,
    collect: bool = False,
    healthy_only: bool = False,
    probe: Any = None,
    **options: Any,
) -> Pass:
    """Run ``plan`` once on a fresh backend and tear the backend down.

    ``tracer`` numbers the ops and records spans inside timed regions —
    if its wrappers are installed (``spans.installed``); otherwise it only
    counts.  ``collect`` reads the program's counters around every block (trace
    mode only; the reads happen between blocks, never inside one).
    ``healthy_only`` skips the partition cycles and the oracle — for the
    R1–R5 slices, whose truncated stacks change what gets refused.
    ``probe(backend)`` runs before teardown and fills ``Pass.extras``.
    """
    spec = plan.spec
    tracer = tracer if tracer is not None else spans.Tracer()
    result = Pass(plan)
    k0 = timed_pass()
    started = perf_counter()
    backend = backends.build(spec.backend, **options)
    result.build_s = perf_counter() - started
    result.build_k = (k0, timed_pass())
    try:
        keys = workloads.deploy(backend, spec)
        if not healthy_only:
            result.problems += workloads.state_mismatches(
                workloads.read_states(backend, keys), plan.initial
            )

        def timed_block(ops, outcomes, before=None):
            bound = [(c, keys[i], m, a) for c, i, m, a, _w in ops]
            first_op = tracer.op + 1
            counters = backend.counters() if collect else None
            latencies: list[float] = []
            k0 = timed_pass()
            tracer.recording = True
            t0 = perf_counter()
            if before is not None:
                before()
            run_block(backend.invoke, bound, latencies, outcomes, tracer)
            elapsed = perf_counter() - t0
            tracer.recording = False
            k1 = timed_pass()
            result.kernel += [k0, k1]
            if collect:
                after = backend.counters()
                counters = {name: after[name] - counters[name] for name in after}
            return {"s": elapsed, "k0": k0, "k1": k1, "lat": latencies,
                    "ops": ops, "first_op": first_op, "counters": counters}

        for index, ops in enumerate(plan.healthy):
            toggle = partial(backend.toggle_bystander, index) if spec.corpus else None
            result.blocks.append(timed_block(ops, result.healthy_outcomes, toggle))
            cycle = plan.cycle_after(index)
            if cycle is None or healthy_only:
                continue
            backend.partition()
            degraded = timed_block(plan.degraded[cycle], result.degraded_outcomes)
            stored = backend.stored_threats()
            result.problems += backend.check_invariants(reconciled=False)
            t0 = perf_counter()
            backend.heal()
            heal_s = perf_counter() - t0
            baselines = {keys[i]: sold for i, sold in plan.baselines[cycle].items()}
            k0 = timed_pass()
            tracer.op += 1  # the reconciliation is one traced "op"
            tracer.recording = True
            t0 = perf_counter()
            report = backend.reconcile(baselines)
            reconcile_s = perf_counter() - t0
            tracer.recording = False
            k1 = timed_pass()
            result.kernel += [k0, k1]
            result.problems += backend.check_invariants(reconciled=True)
            if report["unresolved"]:
                result.problems.append(
                    f"cycle {cycle}: {report['unresolved']} threats left unresolved"
                )
            result.cycles.append({
                "degraded": degraded, "stored": stored, "report": report,
                "heal_s": heal_s, "heal_k": (degraded["k1"], k0),
                "reconcile_s": reconcile_s, "reconcile_k": (k0, k1),
                "reconcile_op": tracer.op,
            })
        if not healthy_only:
            states = workloads.read_states(backend, keys)
            result.problems += workloads.state_mismatches(states, plan.final)
            result.digest = workloads.outcome_digest(
                result.healthy_outcomes + result.degraded_outcomes, states
            )
        result.registrations = backend.registrations()
        if probe is not None:
            result.extras = probe(backend)
        result.peak_rss_mb = backend.peak_rss_mb()
        return result
    finally:
        backend.close()
