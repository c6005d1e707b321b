"""Generator shapes, validator rejections, CLI plumbing, sweep stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.registry import domain_names, get_domain
from repro.check.scenario import Op, Scenario
from repro.corpus import (
    GeneratorConfig,
    PRESETS,
    generate_scenario,
    grammar_for,
    preset_config,
    run_sweep,
    validate_scenario,
)
from repro.corpus.cli import main as corpus_main
from repro.corpus.sweep import healthy_violations
from repro.faults.chaos import replay_scenario


# ----------------------------------------------------------------------
# generator shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("domain", domain_names())
def test_generated_scenarios_are_valid_by_construction(domain):
    for seed in range(5):
        scenario = generate_scenario(
            GeneratorConfig(domain=domain, seed=seed, nodes=5, entities=3, ops=20, faults=2)
        )
        assert validate_scenario(scenario) == []


@pytest.mark.parametrize("domain", domain_names())
def test_generated_scenarios_replay_with_every_invariant_holding(domain):
    for seed in range(2):
        scenario = generate_scenario(
            GeneratorConfig(domain=domain, seed=seed, nodes=5, entities=4, ops=40, faults=2)
        )
        report = replay_scenario(scenario)
        assert report.all_invariants_hold, (seed, report.failed_invariants)


@pytest.mark.parametrize("domain", domain_names())
def test_ops_only_use_grammar_methods(domain):
    scenario = generate_scenario(GeneratorConfig(domain=domain, seed=3, ops=30, faults=1))
    spec = get_domain(domain)
    allowed = {
        (template.cls, template.method) for template in grammar_for(domain)
    }
    for op in scenario.ops:
        if op.kind == "invoke":
            assert (spec.ref_class(op.ref_index), op.method) in allowed


def test_threats_reconciled_inside_the_scenario_are_accounted(monkeypatch):
    # Every generated scenario ends with its own heal_all + reconcile, so
    # the threats are gone by the time the replay's closing reconciliation
    # runs; the accounting has to look at the round that handled them.
    from repro.check import ThreatAccounting

    probes = []
    check = ThreatAccounting.check
    monkeypatch.setattr(
        ThreatAccounting, "check", lambda self, probe: probes.append(probe) or check(self, probe)
    )
    scenario = generate_scenario(preset_config("flight_booking", 0, "small"))
    assert "partition" in [action for _at, action, _args in scenario.fault_events]
    report = replay_scenario(scenario)
    in_scenario, closing = report.reconciliations
    assert in_scenario.threats_reevaluated > 0
    assert closing.threats_reevaluated == 0
    # The invariant itself saw both rounds, the first with the threats
    # every node held before it.
    (probe,) = probes
    assert [round_report for _stored, round_report in probe.rounds] == [in_scenario, closing]
    before_in_scenario = frozenset().union(*probe.rounds[0][0].values())
    assert len(before_in_scenario) == in_scenario.threats_reevaluated
    assert report.threats_recorded == in_scenario.threats_reevaluated
    assert [inv.ok for inv in report.invariants if inv.name == "threat_accounting"] == [True]


def test_a_threat_an_earlier_round_dropped_is_caught():
    from repro.check import RunProbe, ThreatAccounting
    from repro.core.reconciliation import ReconciliationReport

    cluster, refs = generate_scenario(preset_config("counter", 0, "small")).build()
    merged = frozenset(cluster.nodes)
    stored = {node: frozenset({("CounterBound", "rec-0")}) for node in cluster.nodes}

    def round_with(**counts):
        group = ReconciliationReport(merged_partition=merged, **counts)
        return stored, ReconciliationReport.aggregate([group])

    def accounting(*rounds):
        return ThreatAccounting().check(RunProbe(cluster, refs, rounds=rounds))

    dropped = round_with(threats_reevaluated=0)
    handled = round_with(threats_reevaluated=1, satisfied_removed=1)
    quiet = ({node: frozenset() for node in cluster.nodes}, ReconciliationReport())
    assert accounting(handled, quiet) is None
    assert "found 1 threats but re-evaluated 0" in accounting(dropped, quiet)


def test_fault_plan_is_closed_and_ends_healed():
    scenario = generate_scenario(
        GeneratorConfig(domain="flight_booking", seed=5, nodes=6, ops=24, faults=3)
    )
    assert scenario.fault_events[-1][1] == "heal_all"
    # Every crash has a recovery before the terminal heal.
    crashes = [e for e in scenario.fault_events if e[1] == "crash_node"]
    recoveries = [e for e in scenario.fault_events if e[1] == "recover_node"]
    assert len(crashes) == len(recoveries)
    # The final op reconciles after the terminal heal.
    assert scenario.ops[-1].kind == "reconcile"
    assert scenario.ops[-1].at > scenario.fault_events[-1][0]


def test_collision_rate_produces_shared_timestamps():
    scenario = generate_scenario(
        GeneratorConfig(domain="auction", seed=2, ops=40, faults=0, collision_rate=0.6)
    )
    times = [op.at for op in scenario.ops if op.kind == "invoke"]
    assert len(set(times)) < len(times)


def test_presets_scale_and_unknown_preset_raises():
    assert PRESETS["large"]["nodes"] >= 100
    assert PRESETS["large"]["entities"] >= 1000
    large = generate_scenario(preset_config("dtms", 1, "large"))
    assert len(large.node_ids) == PRESETS["large"]["nodes"]
    assert validate_scenario(large) == []
    with pytest.raises(KeyError):
        preset_config("dtms", 1, "colossal")


def test_unknown_domain_raises_at_generation():
    with pytest.raises(KeyError):
        generate_scenario(GeneratorConfig(domain="warehouse", seed=0))


# ----------------------------------------------------------------------
# validator rejections
# ----------------------------------------------------------------------
def _codes(scenario):
    return {issue.code for issue in validate_scenario(scenario)}


def test_validator_rejects_unknown_domain():
    assert _codes(Scenario(name="x", domain="warehouse")) == {"unknown-domain"}


def test_validator_rejects_unknown_op_and_node():
    scenario = Scenario(
        name="x",
        ops=(
            Op(at=0.1, kind="invoke", node="n9", ref_index=0, method="sell_tickets"),
            Op(at=0.2, kind="invoke", node="n1", ref_index=0, method="steal_tickets"),
        ),
    )
    assert _codes(scenario) == {"unknown-node", "unknown-op"}


def test_validator_rejects_out_of_range_ref():
    scenario = Scenario(
        name="x",
        entities=2,
        ops=(Op(at=0.1, kind="invoke", node="n1", ref_index=7, method="sell_tickets"),),
    )
    assert _codes(scenario) == {"bad-ref"}


def test_validator_rejects_op_on_crashed_node():
    scenario = Scenario(
        name="x",
        ops=(Op(at=0.3, kind="invoke", node="n2", ref_index=0, method="sell_tickets"),),
        fault_events=(
            (0.1, "crash_node", ("n2",)),
            (0.5, "recover_node", ("n2",)),
        ),
    )
    assert _codes(scenario) == {"op-on-crashed-node"}


def test_validator_accepts_op_after_recovery():
    scenario = Scenario(
        name="x",
        ops=(Op(at=0.6, kind="invoke", node="n2", ref_index=0, method="sell_tickets"),),
        fault_events=(
            (0.1, "crash_node", ("n2",)),
            (0.5, "recover_node", ("n2",)),
        ),
    )
    assert validate_scenario(scenario) == []


def test_validator_rejects_bad_faults():
    scenario = Scenario(
        name="x",
        fault_events=(
            (0.1, "explode", ("n1",)),
            (0.2, "crash_node", ()),
            (0.3, "fail_link", ("n1", "n9")),
        ),
    )
    assert _codes(scenario) == {"unknown-fault", "bad-fault-arity", "unknown-node"}


def test_validator_tracks_links_as_the_topology_does():
    # A partition replaces whatever link failures came before it: the
    # n1-n2 link is intact again inside the group, so failing it is fine;
    # n1-n3 is cut by the partition, so failing it again is not.
    def script(a, b):
        return Scenario(
            name="x",
            fault_events=(
                (0.1, "fail_link", ("n1", "n2")),
                (0.2, "partition", (("n1", "n2"), ("n3",))),
                (0.3, "fail_link", (a, b)),
                (0.4, "heal_all", ()),
            ),
        )

    assert _codes(script("n1", "n2")) == set()
    assert _codes(script("n1", "n3")) == {"overlapping-fault"}


def test_validator_rejects_overlapping_faults():
    double_crash = Scenario(
        name="x",
        fault_events=(
            (0.1, "crash_node", ("n1",)),
            (0.2, "crash_node", ("n1",)),
        ),
    )
    assert "overlapping-fault" in _codes(double_crash)
    split_overlap = Scenario(
        name="y",
        fault_events=((0.1, "partition", (("n1", "n2"), ("n2", "n3"))),),
    )
    assert "overlapping-fault" in _codes(split_overlap)


# ----------------------------------------------------------------------
# sweep + CLI
# ----------------------------------------------------------------------
def test_sweep_is_deterministic_and_covers_all_domains():
    first = run_sweep(seed=7, per_domain=2)
    second = run_sweep(seed=7, per_domain=2)
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert set(first["domains"]) == set(domain_names())
    assert len(first["domains"]) >= 5
    assert healthy_violations(first) == 0
    assert first["violations"] == 0  # the faulted half too
    for domain_result in first["domains"].values():
        assert domain_result["availability"] is not None
        for entry in domain_result["scenarios"]:
            assert entry["issues"] == []
            assert entry["availability_curve"]


def test_cli_generate_validate_sweep(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    assert corpus_main(
        ["generate", "--domain", "ats", "--seed", "4", "--count", "2", "--out", str(out)]
    ) == 0
    documents = json.loads(out.read_text())
    assert len(documents) == 2
    assert all(doc["domain"] == "ats" for doc in documents)

    assert corpus_main(["validate", str(out)]) == 0
    assert "ok" in capsys.readouterr().out

    documents[0]["ops"][0]["method"] = "steal_tickets"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(documents))
    assert corpus_main(["validate", str(bad)]) == 1
    assert "unknown-op" in capsys.readouterr().out

    sweep_out = tmp_path / "sweep.json"
    assert corpus_main(
        ["sweep", "--seed", "7", "--per-domain", "1", "--out", str(sweep_out)]
    ) == 0
    capsys.readouterr()
    sweep = json.loads(sweep_out.read_text())
    assert sweep["violations"] == 0
    assert set(sweep["domains"]) == set(domain_names())


def test_cli_sweep_is_byte_identical_across_interpreter_runs(tmp_path):
    """Two separate interpreters with different hash seeds: the one thing
    an in-process repeat cannot see is set / dict ordering leaking into
    the output."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"sweep-{hash_seed}.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro.corpus", "sweep", "--seed", "7",
             "--per-domain", "3", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["violations"] == 0
