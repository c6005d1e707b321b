"""Determinism regression: one generated scenario, three byte-stable runs.

The corpus promise is that a scenario is a *pure function* of its config
and a run is a pure function of its scenario.  This suite pins both on a
committed golden fixture (an auction-domain scenario, seed 11): the
generator must reproduce the fixture JSON byte-for-byte, the chaos
replayer must produce the committed replay trace byte-for-byte on every
run, and the FIFO model-checker schedule must produce its committed
trace too.  Any drift — event ordering, payload content, RNG draw order,
grammar weights — fails here and demands a deliberate fixture update.

Regenerate (only after auditing the diff)::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.corpus import GeneratorConfig, generate_scenario
    from repro.faults.chaos import replay_scenario
    from repro.check import run_schedule
    cfg = GeneratorConfig(domain="auction", seed=11, nodes=4, entities=3,
                          ops=18, faults=2)
    s = generate_scenario(cfg)
    open("tests/fixtures/corpus/auction_s11_scenario.json", "w").write(
        json.dumps(s.to_dict(), sort_keys=True, indent=2) + "\n")
    open("tests/fixtures/corpus/auction_s11_replay_trace.jsonl", "w").write(
        replay_scenario(s).trace_jsonl)
    open("tests/fixtures/corpus/auction_s11_fifo_trace.jsonl", "w").write(
        run_schedule(s).trace_jsonl)
    EOF
"""

import json
from pathlib import Path

from repro.check import run_schedule
from repro.check.scenario import Scenario
from repro.corpus import GeneratorConfig, generate_scenario
from repro.faults.chaos import replay_scenario

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"
CONFIG = GeneratorConfig(domain="auction", seed=11, nodes=4, entities=3, ops=18, faults=2)


def _fixture_scenario() -> Scenario:
    return Scenario.from_dict(
        json.loads((FIXTURES / "auction_s11_scenario.json").read_text())
    )


def test_generator_reproduces_the_committed_scenario_bytes():
    generated = json.dumps(
        generate_scenario(CONFIG).to_dict(), sort_keys=True, indent=2
    ) + "\n"
    assert generated.encode("utf-8") == (
        FIXTURES / "auction_s11_scenario.json"
    ).read_bytes()


def test_replay_trace_matches_golden_fixture_and_repeats_byte_identically():
    scenario = _fixture_scenario()
    first = replay_scenario(scenario)
    second = replay_scenario(scenario)
    assert first.trace_jsonl == second.trace_jsonl
    assert first.trace_jsonl.encode("utf-8") == (
        FIXTURES / "auction_s11_replay_trace.jsonl"
    ).read_bytes()
    assert not first.failed_invariants, first.failed_invariants
    assert first.snapshot == second.snapshot


def test_fifo_schedule_trace_matches_golden_fixture():
    scenario = _fixture_scenario()
    result = run_schedule(scenario)
    assert result.ok
    assert result.trace_jsonl.encode("utf-8") == (
        FIXTURES / "auction_s11_fifo_trace.jsonl"
    ).read_bytes()


def test_fixture_traces_are_wellformed_jsonl():
    for name in ("auction_s11_replay_trace.jsonl", "auction_s11_fifo_trace.jsonl"):
        lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) > 50
        for line in lines:
            json.loads(line)


def test_replay_availability_curve_is_deterministic():
    scenario = _fixture_scenario()
    first = replay_scenario(scenario).availability_curve
    second = replay_scenario(scenario).availability_curve
    assert first == second
    assert sum(bucket["attempted"] for bucket in first) == len(scenario.ops)
