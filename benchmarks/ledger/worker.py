"""One measurement process: pinned to one CPU, one workload, one mode.

``run.py`` starts this file as a fresh subprocess for every measurement,
so no run inherits another's heap, caches or threads:

* ``--mode setup`` — build the backend, deploy the workload's entities,
  serve one read, print ``READY`` (the parent times interpreter start →
  that line), tear down;
* ``--mode e2e``   — the untraced run every end-to-end metric comes from;
* ``--mode trace`` — a shorter untraced pass with counters, the same
  plan again under span wrappers, and the workload's extra probes; every
  per-layer metric comes from here.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# Rule 1: one CPU, chosen before the program under test is imported, so
# every thread and worker process it ever starts inherits the pin.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import backends  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import median, nus  # noqa: E402
from passes import run_pass  # noqa: E402
from refkernel import timed_pass  # noqa: E402

#: Share of the e2e op count each of the two trace-mode passes runs, and
#: each of the five slice passes.
TRACE_SCALE = 0.25
SLICE_SCALE = 0.08
#: The trace file holds the spans of this many operations — enough to
#: read any phase by eye, a few MB instead of a hundred.
TRACE_FILE_OPS = 3000

#: The R1–R5 method: the same plan on stacks truncated by configuration.
SLICES = {
    "slice.bare_nus": {"enable_ccm": False, "enable_replication": False},
    "slice.ccm_nus": {"enable_ccm": True, "enable_replication": False},
    "slice.replication_nus": {"enable_ccm": False, "enable_replication": True},
    "slice.full_nus": {},
}


def setup_once(spec: workloads.Spec) -> None:
    backend = backends.build(spec.backend)
    try:
        keys = workloads.deploy(backend, spec)
        backend.invoke("a", keys[0], "get_open" if spec.corpus else "get_sold", ())
        print("READY", flush=True)
    finally:
        backend.close()


def ping_probe(backend) -> dict[str, float]:
    """Floor of one connect + one frame with no middleware work."""
    samples = []
    for _ in range(15):
        kernel = timed_pass()
        for index in range(10):
            started = perf_counter()
            backend.ping(backends.NODES[index % 3])
            samples.append(nus(perf_counter() - started, kernel))
    return {"ping_rtt_nus": median(samples)}


def slice_metrics(spec: workloads.Spec, seed: int, scale: float) -> dict[str, float]:
    names = [*SLICES, "obs.overhead_ratio", "obs.events_per_op"]
    if not spec.slices:
        return dict.fromkeys(names, 0.0)
    plan = workloads.build_plan(spec, seed, scale * SLICE_SCALE)
    values = {
        name: median(map(metrics.block_cost, run_pass(plan, healthy_only=True, **options).blocks))
        for name, options in SLICES.items()
    }
    observed = run_pass(plan, healthy_only=True, collect=True, obs=True)
    ops = sum(len(block["ops"]) for block in observed.blocks)
    cost = median(map(metrics.block_cost, observed.blocks))
    values["obs.overhead_ratio"] = cost / values["slice.full_nus"] - 1.0
    values["obs.events_per_op"] = (
        sum(block["counters"]["obs_events"] for block in observed.blocks) / ops
    )
    return values


def committed_digest(spec: workloads.Spec, seed: int, scale: float) -> str | None:
    """The digest on file for this plan; only full-scale plans have one."""
    if scale != 1.0:
        return None
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(spec.name, {}).get(str(seed))


def verdict(passes, expected: str | None = None) -> dict:
    """Oracle verdict over ``passes``; ``expected`` is the committed
    outcome digest of the first pass, when there is one."""
    problems = [problem for result in passes for problem in result.problems]
    first = passes[0]
    if expected is not None and first.digest != expected:
        problems.append(f"outcome digest {first.digest} differs from committed {expected}")
    failed = sum(result.failed for result in passes)
    return {
        "correct": failed == 0 and not problems,
        "attempted": sum(result.attempted for result in passes),
        "failed": failed,
        "problems": problems[:10],
        "plan_hash": first.plan.plan_hash,
        "digest": first.digest,
        "digest_checked": expected is not None,
        "kernel_us": [median(first.kernel) * 1e6, *(
            sorted(first.kernel)[int(len(first.kernel) * q)] * 1e6 for q in (0.1, 0.9)
        )],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", default=None, help="write the spans here (JSON lines)")
    args = parser.parse_args()
    spec = workloads.SPECS[args.workload]
    if args.mode == "setup":
        setup_once(spec)
        return 0
    if args.mode == "e2e":
        result = run_pass(workloads.build_plan(spec, args.seed, args.scale))
        output = verdict([result], committed_digest(spec, args.seed, args.scale))
        output["metrics"] = metrics.e2e_metrics(result)
    else:
        plan = workloads.build_plan(spec, args.seed, args.scale * TRACE_SCALE)
        untraced = run_pass(
            plan, collect=True, probe=ping_probe if spec.backend == "proc" else None
        )
        tracer = spans.Tracer()
        with spans.installed(tracer, backends.SPAN_TARGETS, backends.SPAN_SIZES):
            traced = run_pass(plan, tracer=tracer, collect=True)
        summary = metrics.TraceSummary(tracer, traced)
        output = verdict([untraced, traced])
        output["metrics"] = {
            **metrics.layer_metrics(traced, summary),
            **metrics.count_metrics(untraced, traced, summary),
            **metrics.proc_metrics(untraced),
            **metrics.bookkeeping_metrics(untraced, traced),
            **slice_metrics(spec, args.seed, args.scale),
        }
        output["exact"] = metrics.exact_counts(untraced) if spec.backend == "sim" else {}
        output["spans"] = len(tracer.spans)
        if args.trace_out:
            spans.write_jsonl(tracer, args.trace_out, TRACE_FILE_OPS)
    output.update(mode=args.mode, workload=spec.name, seed=args.seed, scale=args.scale)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
