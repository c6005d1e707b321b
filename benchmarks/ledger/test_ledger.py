"""Tests of the ledger's own arithmetic and plumbing.

Run with ``python -m pytest benchmarks/ledger -q`` from the repository
root.  They check the benchmark, not the program: span self times,
normalisation, plan determinism, wrapper restoration, and that one quick
run emits every metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import backends  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import nus, percentile  # noqa: E402
from passes import run_pass  # noqa: E402
from refkernel import REF_NOMINAL_US  # noqa: E402


def test_self_time_is_duration_minus_child_cover():
    #   root 0..10 ─ child a 1..4 ─ grandchild 2..3
    #              └ child b 3..7   (overlaps a for 1 s: cover is a union)
    nest = [
        [0, 0, 0.0, 10.0, -1, 0],
        [1, 0, 1.0, 4.0, 0, 0],
        [2, 0, 2.0, 3.0, 1, 0],
        [3, 0, 3.0, 7.0, 0, 0],
    ]
    assert spans.self_times(nest) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 4.0}
    # children reaching outside the parent are clipped to it
    assert spans.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_normalised_time_follows_the_kernel_not_the_clock():
    # 1 ms of work next to kernel passes of exactly the nominal length
    assert nus(1e-3, REF_NOMINAL_US / 1e6) == pytest.approx(1000.0)
    # the same work on a host twice as slow reads the same
    assert nus(2e-3, 2 * REF_NOMINAL_US / 1e6, 2 * REF_NOMINAL_US / 1e6) == pytest.approx(1000.0)
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 95) == 95
    assert percentile([], 99) == 0.0


def test_plan_is_a_function_of_the_seed():
    spec = workloads.SPECS["sim_partition"]
    first = workloads.build_plan(spec, 1, 0.02)
    again = workloads.build_plan(spec, 1, 0.02)
    other = workloads.build_plan(spec, 2, 0.02)
    assert first.plan_hash == again.plan_hash
    assert first.healthy == again.healthy and first.final == again.final
    assert first.plan_hash != other.plan_hash


def test_asyncio_mix_replays_the_sim_mix_op_stream():
    sim = workloads.build_plan(workloads.SPECS["sim_mix"], 4, 0.05)
    real = workloads.build_plan(workloads.SPECS["asyncio_mix"], 4, 0.05)
    stream = [op for block in sim.healthy for op in block]
    replay = [op for block in real.healthy for op in block]
    assert replay == stream[: len(replay)]


def test_oracle_demands_refusal_on_the_sold_out_flight():
    plan = workloads.build_plan(workloads.SPECS["sim_mix"], 1, 0.05)
    sold_out = workloads.SPECS["sim_mix"].flights
    verdicts = {
        expected
        for ops, outcomes in zip(plan.healthy, plan.expected_healthy)
        for op, expected in zip(ops, outcomes)
        if op[1] == sold_out and op[4]
    }
    assert verdicts == {workloads.REFUSED}


def _target(module_path, owner_name, attribute):
    module = importlib.import_module(module_path)
    owner = getattr(module, owner_name) if owner_name else module
    return vars(owner)[attribute]


def test_traced_pass_records_spans_and_restores_every_wrapper():
    originals = [_target(*target[1:]) for target in backends.SPAN_TARGETS]
    plan = workloads.build_plan(workloads.SPECS["sim_partition"], 1, 0.02)
    tracer = spans.Tracer()
    with spans.installed(tracer, backends.SPAN_TARGETS, backends.SPAN_SIZES):
        wrapped = [_target(*target[1:]) for target in backends.SPAN_TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
        traced = run_pass(plan, tracer=tracer)
    assert [_target(*target[1:]) for target in backends.SPAN_TARGETS] == originals
    assert traced.failed == 0 and not traced.problems
    layers = {tracer.names[span[spans.NAME]][1] for span in tracer.spans}
    assert {"objects", "core.ccmgr", "tx", "core.threats", "core.reconciliation"} <= layers
    # every span belongs to a timed op: nothing leaks from set-up or checks
    assert min(span[spans.OP] for span in tracer.spans) >= 0


def test_compare_flags_a_metric_outside_its_bound():
    entry = {"name": "op_cost_nus", "unit": "nus/op", "better": "lower", "bound": 0.06}
    ledger = {"workloads": {"w": {
        "correct": True, "problems": [], "plan_hash": "p", "digest": "d",
        "exact": {"journal_entries": 7}, "e2e": {"op_cost_nus": 100.0},
    }}}
    slower = json.loads(json.dumps(ledger))
    slower["workloads"]["w"]["e2e"]["op_cost_nus"] = 107.0
    faster = json.loads(json.dumps(ledger))
    faster["workloads"]["w"]["e2e"]["op_cost_nus"] = 90.0
    faster["workloads"]["w"]["exact"]["journal_entries"] = 8
    assert compare.compare(ledger, ledger, [entry], agree=True) == []
    assert len(compare.compare(ledger, slower, [entry], agree=False)) == 1
    # an improvement passes the regression test, but not the agreement
    # test; a changed exact count fails both
    assert len(compare.compare(ledger, faster, [entry], agree=False)) == 1
    assert len(compare.compare(ledger, faster, [entry], agree=True)) == 2


def test_quick_run_emits_every_declared_metric():
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--only", "sim_mix"],
        check=True, capture_output=True, timeout=120,
    )
    assert time.monotonic() - started < 20.0
    ledger = json.loads((HERE / "out" / "ledger.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    entry = ledger["workloads"]["sim_mix"]
    assert ledger["quick"] is True and entry["correct"] and entry["failed_share"] == 0
    assert set(entry["e2e"]) == {metric["name"] for metric in declared["end_to_end"]}
    assert set(entry["per_layer"]) == {metric["name"] for metric in declared["per_layer"]}
    assert {"git_sha", "python", "nproc", "cpu_affinity", "ref_kernel_us", "seed"} <= set(
        ledger["fingerprint"]
    )
    assert (HERE / "out" / "trace-sim_mix.jsonl").stat().st_size > 0
