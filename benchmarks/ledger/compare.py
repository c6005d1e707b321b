"""Compare two ledgers: ``python3 benchmarks/ledger/compare.py A.json B.json``.

``A`` is the baseline and ``B`` the candidate (two files written by
``run.py``).  For every workload and end-to-end metric the candidate may
be worse than the baseline by at most the metric's bound in
``BENCHMARK.json``; plan hashes, outcome digests and the simulator's count
metrics must be *equal*, because a deterministic run repeats them exactly.
With ``--agree`` the bound applies in both directions — the test that two
sets of runs of the same commit measured the same thing.

Exit code 0 inside the bounds, 1 outside, 2 if the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def worsening(entry: dict, baseline: float, candidate: float) -> float:
    """Relative change of ``candidate`` against ``baseline``, signed so
    that positive means worse."""
    change = (candidate - baseline) / baseline
    return change if entry["better"] == "lower" else -change


def compare(a: dict, b: dict, declarations: list[dict], agree: bool) -> list[str]:
    """Print the comparison; return one line per finding out of bounds."""
    findings = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][name], b["workloads"][name]
        print(f"-- {name}")
        for key in ("plan_hash", "digest"):
            if left[key] != right[key]:
                findings.append(f"{name}: {key} differs ({left[key][:12]} vs {right[key][:12]})")
        for side, label in ((left, "A"), (right, "B")):
            if not side["correct"]:
                findings.append(f"{name}: run {label} failed its oracle: {side['problems'][:1]}")
        for count in sorted(set(left["exact"]) | set(right["exact"])):
            if left["exact"].get(count) != right["exact"].get(count):
                findings.append(
                    f"{name}: exact count {count} differs "
                    f"({left['exact'].get(count)} vs {right['exact'].get(count)})"
                )
        for entry in declarations:
            metric, bound = entry["name"], entry["bound"]
            worse = worsening(entry, left["e2e"][metric], right["e2e"][metric])
            outside = abs(worse) > bound if agree else worse > bound
            print(
                f"{metric:24s} {left['e2e'][metric]:12.4f} -> {right['e2e'][metric]:12.4f} "
                f"{entry['unit']:7s} {worse:+8.2%} worse (bound {bound:.0%})"
                f"{'  OUTSIDE' if outside else ''}"
            )
            if outside:
                findings.append(f"{name}: {metric} {worse:+.2%} worse, bound {bound:.0%}")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--agree", action="store_true",
                        help="bounds apply in both directions (two sets of one commit)")
    args = parser.parse_args()
    a, b = (json.loads(path.read_text()) for path in (args.baseline, args.candidate))
    declarations = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if a["quick"] != b["quick"] or a["seed"] != b["seed"]:
        print("not comparable: the ledgers differ in --quick or --seed", file=sys.stderr)
        return 2
    if not set(a["workloads"]) & set(b["workloads"]):
        print("not comparable: no workload in common", file=sys.stderr)
        return 2
    findings = compare(a, b, declarations, args.agree)
    for finding in findings:
        print(f"OUTSIDE BOUNDS: {finding}")
    print("within bounds" if not findings else f"{len(findings)} finding(s) outside bounds")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
