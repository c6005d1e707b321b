"""Cross-backend conformance: one scenario, one outcome, on every backend.

Each scenario below replays through :func:`repro.faults.replay_scenario`
on the simulator and on the threaded backend (``transport="asyncio"``),
which runs on the simulator's own clock and scheduler: the op driver
schedules ops and faults and drains the same scheduler, on both.  Their
outcome digests (:func:`repro.check.outcome_digest`: per-op results,
committed entity states, threat stores, reconciliation counters, system
modes) must be *equal*, not merely similar, and so must the simulated
seconds the replay and its reconciliations took.
No invariant of :func:`repro.check.default_registry` may fail after the
replay on either (``no_cross_partition_delivery`` has no step to look at
in a replay, and the clean-reconciliation checks stand down when the
closing round deferred work — ``docs/CORPUS.md`` lists them).  The sim
trace stays the golden reference.

The ``slow`` tier (``RUN_SLOW=1``) widens the generated part to seeds 0–9
of the ``medium`` and ``chaos`` presets in every corpus domain and
replays seeds 0–2 of ``medium`` with burst loss in every domain.
"""

import json
import os
from functools import partial

import pytest

from repro.apps.registry import domain_names
from repro.check import BOOKING_SCENARIOS, CANONICAL_SCENARIOS
from repro.corpus import generate_scenario, preset_config
from repro.faults import replay_scenario
from repro.transport import build_transport


def generated(domain, seed, preset, **overrides):
    return generate_scenario(preset_config(domain, seed, preset, **overrides))


CONFORMANCE = {
    **BOOKING_SCENARIOS,
    **CANONICAL_SCENARIOS,
    **{f"medium-{domain}": partial(generated, domain, 0, "medium") for domain in domain_names()},
    **{
        f"oscillating-{domain}": partial(generated, domain, 0, "medium", fault_plan="oscillating")
        for domain in domain_names()
    },
    "burst_loss-dtms": partial(generated, "dtms", 0, "medium", burst_loss=0.05),
}


def canonical(digest: dict) -> str:
    return json.dumps(digest, sort_keys=True, default=str)


def nonconformance(scenario) -> list[str]:
    """What differs between the two backends' replays, or failed on one."""
    sim = replay_scenario(scenario)
    real = replay_scenario(scenario, transport="asyncio")
    problems = [] if canonical(real.digest) == canonical(sim.digest) else ["digests differ"]
    problems += [
        f"{name} differs"
        for name in ("simulated_seconds", "reconciliation_seconds")
        if getattr(real, name) != getattr(sim, name)
    ]
    for backend, report in (("sim", sim), ("asyncio", real)):
        problems += [f"{backend}: {result}" for result in report.failed_invariants]
    return problems


@pytest.mark.parametrize("name", sorted(CONFORMANCE))
def test_asyncio_matches_sim_golden(name):
    assert nonconformance(CONFORMANCE[name]()) == []


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("RUN_SLOW") != "1",
    reason="120 generated scenarios on both backends; set RUN_SLOW=1 (CI nightly flag)",
)
def test_generated_scenarios_conform_across_seeds():
    found = {
        f"{preset}-{domain}-s{seed}": problems
        for preset in ("medium", "chaos")
        for domain in domain_names()
        for seed in range(10)
        if (problems := nonconformance(generated(domain, seed, preset)))
    }
    assert found == {}


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("RUN_SLOW") != "1",
    reason="18 burst-loss replays on both backends; set RUN_SLOW=1",
)
def test_clocked_params_conform_across_seeds():
    scenarios = {
        f"medium-burst_loss-{domain}-s{seed}": partial(
            generated, domain, seed, "medium", burst_loss=0.05
        )
        for domain in domain_names()
        for seed in range(3)
    }
    assert len(scenarios) == 18
    found = {
        name: problems
        for name, build in scenarios.items()
        if (problems := nonconformance(build()))
    }
    assert found == {}


@pytest.mark.parametrize("name", sorted(BOOKING_SCENARIOS))
def test_sim_digest_is_deterministic(name):
    first = replay_scenario(BOOKING_SCENARIOS[name]())
    second = replay_scenario(BOOKING_SCENARIOS[name]())
    assert canonical(first.digest) == canonical(second.digest)


def test_expected_scenarios_present():
    assert {"flight_booking", "oscillating_partition", "reconcile_threats"} <= set(
        CONFORMANCE
    )
    assert len(CONFORMANCE) >= 12


@pytest.mark.parametrize("name", sorted(BOOKING_SCENARIOS))
def test_digest_excludes_wall_time(name):
    flat = canonical(replay_scenario(BOOKING_SCENARIOS[name]()).digest)
    assert "_seconds" not in flat
    assert "phase" not in flat


def test_digest_covers_the_guarantee_surface():
    report = replay_scenario(BOOKING_SCENARIOS["flight_booking"]())
    digest = report.digest
    assert set(digest["threats"]) == {"a", "b", "c"}
    assert [[label, served] for label, served, _ in digest["ops"]] == [
        ["op:sell_tickets:F0@a", True],
        ["op:sell_tickets:F0@a", True],
        ["op:sell_tickets:F0@b", True],
        ["op:reconcile", True],
    ]
    # §1.3: the additive merge overbooks (75 + 4 + 3 = 82 of 80), the
    # rebooking handler moves two passengers, and the replicas converge.
    assert digest["reconciliations"][0]["resolved_by_handler"] == 1
    assert [count for _ref, count in report.constraint_handlers[0].rebooked] == [2]
    (states,) = digest["states"].values()
    assert {dict(state)["sold"] for state in states.values()} == {80}


def test_unknown_transport_spec_rejected():
    with pytest.raises(ValueError):
        build_transport("carrier-pigeon", ("a", "b"))
