"""Corpus sweep: generate → validate → replay, per domain, as one JSON blob.

A sweep is the corpus's end-to-end smoke ritual: for every domain it
generates ``per_domain`` seeded scenarios — alternating healthy
(fault-free) and faulted configs — validates each structurally, replays
the well-formed ones through :func:`~repro.faults.chaos.replay_scenario`,
and folds the results into one JSON-able dict: per-domain availability,
bucketed availability curves, invariant violations, and validation
issues.  Everything in the dict is derived from seeds, so the same
``(seed, per_domain, domains, preset)`` sweep serializes byte-identically
every time — CI diffs the artifact instead of eyeballing it.

A violation on a *healthy* scenario is the red flag: with no faults
scripted there is no degraded mode to blame, so the middleware itself
broke an invariant.  :func:`healthy_violations` counts those; the CLI
turns them into a non-zero exit.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..apps.registry import domain_names
from ..faults.chaos import replay_scenario
from .generator import preset_config, generate_scenario
from .validator import validate_scenario


def run_sweep(
    seed: int = 7,
    per_domain: int = 3,
    domains: Iterable[str] | None = None,
    preset: str = "small",
    buckets: int = 8,
) -> dict[str, Any]:
    """The full sweep result as a sorted-key-stable, JSON-able dict."""
    chosen = sorted(domains) if domains is not None else domain_names()
    per_domain_results: dict[str, Any] = {}
    total_violations = 0
    for domain in chosen:
        entries: list[dict[str, Any]] = []
        domain_violations = 0
        availabilities: list[float] = []
        for offset in range(per_domain):
            healthy = offset % 2 == 0
            overrides = {"faults": 0} if healthy else {}
            config = preset_config(domain, seed + offset, preset, **overrides)
            scenario = generate_scenario(config)
            issues = validate_scenario(scenario)
            entry: dict[str, Any] = {
                "name": scenario.name,
                "seed": config.seed,
                "healthy": healthy,
                "issues": [
                    {"code": issue.code, "message": issue.message} for issue in issues
                ],
            }
            if not issues:
                report = replay_scenario(scenario, buckets=buckets)
                entry.update(report.to_dict())
                domain_violations += len(report.failed_invariants)
                availabilities.append(report.availability)
            entries.append(entry)
        total_violations += domain_violations
        per_domain_results[domain] = {
            "scenarios": entries,
            "availability": (
                round(sum(availabilities) / len(availabilities), 6)
                if availabilities
                else None
            ),
            "violations": domain_violations,
        }
    return {
        "seed": seed,
        "per_domain": per_domain,
        "preset": preset,
        "domains": per_domain_results,
        "violations": total_violations,
    }


def healthy_violations(sweep: dict[str, Any]) -> int:
    """Invariant violations on fault-free scenarios (must be zero)."""
    count = 0
    for domain_result in sweep["domains"].values():
        for entry in domain_result["scenarios"]:
            if entry.get("healthy"):
                count += len(entry.get("violations", ()))
    return count
