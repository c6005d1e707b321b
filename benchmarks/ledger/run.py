"""The wall-clock ledger: one command, five workloads, every metric by name.

Two ways to call it, both from the repository root:

``python3 benchmarks/ledger/run.py [--seed N] [--quick] [--only WORKLOAD]``
    the whole ledger — every workload's end-to-end run, its traced run and
    its set-up time — printed metric by metric and written to
    ``benchmarks/ledger/out/ledger.json`` plus one ``trace-<workload>.jsonl``;

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one kind of run (the contract in ``BENCHMARK.json``): the
    last line of standard output is a JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

Every measurement happens in a fresh ``worker.py`` subprocess pinned to
one CPU; this file only starts them, times set-up, and prints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from measure import median, nus  # noqa: E402
from refkernel import timed_pass  # noqa: E402

OUT = HERE / "out"
WORKLOADS = ("sim_mix", "sim_constraints", "sim_partition", "asyncio_mix", "proc_mix")
#: ``--seconds`` at which workloads run their nominal op counts.
RUN_SECONDS = 10
SETUP_REPEATS = 7
QUICK_SCALE = 0.1
WORKER_TIMEOUT = 170.0


def declared() -> dict[str, list[dict]]:
    """The metric declarations of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def worker(mode: str, workload: str, seed: int, scale: float, *extra: str):
    """Start one measurement subprocess in its own process group."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
         "--seed", str(seed), "--scale", repr(scale), *extra],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )


def reap(process: subprocess.Popen) -> None:
    """Make sure the worker and anything it spawned have ended."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def measure(mode: str, workload: str, seed: int, scale: float, *extra: str) -> dict:
    """Run one worker to completion; its last stdout line is the result."""
    process = worker(mode, workload, seed, scale, *extra)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT)
    finally:
        reap(process)
    if process.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start → first op served, at reference speed: the
    median of ``SETUP_REPEATS`` cold subprocess starts, each bracketed by
    kernel passes like any other timed interval."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = [timed_pass() for _ in range(3)]
        started = perf_counter()
        process = worker("setup", workload, seed, 1.0)
        try:
            line = process.stdout.readline()
            elapsed = perf_counter() - started
            process.communicate(timeout=WORKER_TIMEOUT)
        finally:
            reap(process)
        if line.strip() != "READY" or process.returncode != 0:
            raise RuntimeError(f"set-up worker for {workload} failed")
        after = [timed_pass() for _ in range(3)]
        samples.append(nus(elapsed, *before, *after) / 1e6)
    return median(samples)


def fingerprint(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    kernel = sorted(timed_pass() for _ in range(60))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "ref_kernel_us": {"median": kernel[30] * 1e6, "p10": kernel[6] * 1e6, "p90": kernel[54] * 1e6},
        "seed": seed,
    }


def show(title: str, values: dict[str, float], declarations: list[dict]) -> None:
    print(f"-- {title}")
    for entry in declarations:
        name = entry["name"]
        print(f"{name:46s} {values[name]:14.4f} {entry['unit']:8s} (better: {entry['better']})")


def end_to_end(workload: str, seed: int, scale: float) -> dict:
    setup = setup_seconds(workload, seed)
    result = measure("e2e", workload, seed, scale)
    result["metrics"]["setup_s"] = setup
    return result


def contract_output(result: dict, declarations: list[dict]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
            for entry in declarations
        },
    })


def run_contract(args: argparse.Namespace) -> int:
    """One workload, one kind of run, one JSON line."""
    scale = args.seconds / RUN_SECONDS
    if args.trace:
        result, kind = measure("trace", args.workload, args.seed, scale), "per_layer"
    else:
        result, kind = end_to_end(args.workload, args.seed, scale), "end_to_end"
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    show(f"{args.workload} seed={args.seed} {kind}", result["metrics"], declared()[kind])
    print(contract_output(result, declared()[kind]))
    return 0 if result["correct"] else 1


def run_ledger(args: argparse.Namespace) -> int:
    """Every workload, both kinds of run; writes ``out/ledger.json``."""
    scale = QUICK_SCALE if args.quick else 1.0
    names = [args.only] if args.only else list(WORKLOADS)
    OUT.mkdir(exist_ok=True)
    ledger = {"schema": 1, "seed": args.seed, "quick": args.quick,
              "fingerprint": fingerprint(args.seed), "workloads": {}}
    print(json.dumps(ledger["fingerprint"]))
    for name in names:
        e2e = end_to_end(name, args.seed, scale)
        traced = measure("trace", name, args.seed, scale,
                         "--trace-out", str(OUT / f"trace-{name}.jsonl"))
        show(f"{name} end_to_end", e2e["metrics"], declared()["end_to_end"])
        print(f"{'normalised ops/s':46s} {1e6 / e2e['metrics']['op_cost_nus']:14.1f}")
        show(f"{name} per_layer", traced["metrics"], declared()["per_layer"])
        problems = e2e["problems"] + traced["problems"]
        for problem in problems:
            print(f"PROBLEM: {problem}")
        ledger["workloads"][name] = {
            "correct": e2e["correct"] and traced["correct"],
            "attempted": e2e["attempted"], "failed": e2e["failed"] + traced["failed"],
            "failed_share": (e2e["failed"] + traced["failed"]) / (e2e["attempted"] + traced["attempted"]),
            "plan_hash": e2e["plan_hash"], "digest": e2e["digest"],
            "digest_checked": e2e["digest_checked"], "kernel_us": e2e["kernel_us"],
            "e2e": e2e["metrics"], "per_layer": traced["metrics"], "exact": traced["exact"],
            "problems": problems,
        }
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT / 'ledger.json'}")
    return 0 if all(entry["correct"] for entry in ledger["workloads"].values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the op counts; output is not comparable")
    parser.add_argument("--only", choices=WORKLOADS, help="ledger mode: just this workload")
    parser.add_argument("--workload", choices=WORKLOADS, help="contract mode: the workload")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The parent shares the workers' CPU so its kernel passes see their host speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_contract(args) if args.workload else run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
