"""Command-line entry point: ``python -m repro.analysis``.

Exit codes: ``0`` clean (or everything baselined), ``1`` new findings or
expired baseline entries, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import compare, load_baseline, load_justifications, save_baseline
from .engine import all_rules, run_analysis
from .reporting import render_json, render_text

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]  # src/repro
_REPO_ROOT = _PACKAGE_ROOT.parents[1]  # the checkout containing src/


def _default_baseline() -> Path:
    local = Path("analysis") / "baseline.json"
    if local.exists():
        return local
    return _REPO_ROOT / "analysis" / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="replint: repo-specific static analysis for the middleware",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=_PACKAGE_ROOT,
        help="directory tree to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of grandfathered findings "
        "(default: analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated rule codes or family prefixes to run "
        "(e.g. `--only CONC` runs every CONC rule; combines with "
        "--select by intersection)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.code}  {rule_cls.name}: {rule_cls.description}")
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        parser.error(f"--root {args.root} is not a directory")
    known = {rule_cls.code for rule_cls in all_rules()}
    codes = None
    if args.select:
        codes = frozenset(code.strip() for code in args.select.split(",") if code.strip())
        unknown = codes - known
        if unknown:
            parser.error(f"unknown rule codes: {', '.join(sorted(unknown))}")
    if args.only:
        only: set[str] = set()
        for token in args.only.split(","):
            token = token.strip()
            if not token:
                continue
            if token in known:
                only.add(token)
                continue
            family = {code for code in sorted(known) if code.startswith(token)}
            if not family:
                parser.error(f"--only {token!r} matches no rule code or family")
            only |= family
        codes = frozenset(only) if codes is None else codes & only
        if not codes:
            parser.error("--only and --select have an empty intersection")

    result = run_analysis(root, codes=codes)

    baseline_path = args.baseline if args.baseline is not None else _default_baseline()
    if args.update_baseline:
        # Carry forward the written justifications of entries that still
        # occur; a CONC entry must never lose its rationale on refresh.
        entries = save_baseline(
            baseline_path,
            result.findings,
            justifications=load_justifications(baseline_path),
        )
        print(f"baseline: wrote {len(entries)} entries to {baseline_path}")
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    justifications = None if args.no_baseline else load_justifications(baseline_path)
    comparison = compare(result.findings, baseline, justifications=justifications)

    if args.format == "json":
        report = render_json(result, comparison)
    else:
        report = render_text(result, comparison)
    print(report)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report + "\n", encoding="utf-8")
    return 0 if comparison.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
