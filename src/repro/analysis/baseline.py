"""Baseline files: grandfathered findings and their lifecycle.

A baseline is a committed JSON file mapping finding fingerprints to the
number of occurrences that are tolerated.  An entry is either a bare
count::

    "DET001:study.py:reads the wall clock": 1

or — required for the CONC concurrency family and for REACH001's
unreached definitions — an object carrying a written justification for
why the finding is tolerated::

    "CONC001:transport/x.py:shared field ...": {
        "count": 1,
        "justification": "read is GIL-atomic; see docstring"
    }

The comparison yields:

* **new** — findings whose fingerprint is absent from the baseline (or
  occurs more often than the baselined count).  These fail the run.
  A baselined CONC or REACH finding *without* a justification is also
  new: those rules only accept suppressions someone has argued for.
* **baselined** — findings covered by the baseline; reported but not
  fatal.
* **expired** — baseline entries that no longer match any finding.  The
  code was fixed; the entry must be removed (``--update-baseline``)
  so fixed findings cannot silently regress.  Expired entries fail the
  run too: a stale baseline is itself a finding.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .engine import Finding

BASELINE_VERSION = 1

#: Rule families whose baseline entries must carry a justification.
JUSTIFICATION_REQUIRED_PREFIXES = ("CONC", "REACH")


def split_fingerprint(fingerprint: str) -> dict[str, str]:
    """Decompose ``CODE:path:message`` for human-readable expiry output.

    The path itself never contains ``:`` (project-relative, forward
    slashes), so two splits recover all three parts; a malformed string
    degrades to empty code/path rather than raising.
    """
    code, _, rest = fingerprint.partition(":")
    path, _, message = rest.partition(":")
    return {"fingerprint": fingerprint, "code": code, "path": path, "message": message}


@dataclass
class BaselineComparison:
    """Findings split against a baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    expired: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new and not self.expired

    @property
    def expired_details(self) -> list[dict[str, str]]:
        """Expired entries decomposed into code/path/message."""
        return [split_fingerprint(fingerprint) for fingerprint in self.expired]


def load_baseline(path: Path | None) -> dict[str, int]:
    """Read a baseline's tolerated counts; a missing path is empty.

    Accepts both entry forms (bare count and ``{count, justification}``);
    use :func:`load_justifications` for the justification text.
    """
    if path is None or not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    counts: dict[str, int] = {}
    for fingerprint, entry in payload.get("findings", {}).items():
        if isinstance(entry, dict):
            counts[str(fingerprint)] = int(entry.get("count", 1))
        else:
            counts[str(fingerprint)] = int(entry)
    return counts


def load_justifications(path: Path | None) -> dict[str, str]:
    """The justification text of every object-form baseline entry."""
    if path is None or not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        str(fingerprint): str(entry["justification"])
        for fingerprint, entry in payload.get("findings", {}).items()
        if isinstance(entry, dict) and entry.get("justification")
    }


def save_baseline(
    path: Path,
    findings: list[Finding],
    justifications: dict[str, str] | None = None,
) -> dict[str, object]:
    """Write the current findings as the new baseline.

    ``justifications`` (typically loaded from the previous baseline via
    :func:`load_justifications`) are carried forward for fingerprints
    that still occur, so ``--update-baseline`` never silently drops the
    written rationale a CONC entry is required to have.
    """
    counts = Counter(finding.fingerprint for finding in findings)
    justifications = justifications or {}
    entries: dict[str, object] = {}
    for fingerprint in sorted(counts):
        justification = justifications.get(fingerprint)
        if justification:
            entries[fingerprint] = {
                "count": counts[fingerprint],
                "justification": justification,
            }
        else:
            entries[fingerprint] = counts[fingerprint]
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Grandfathered replint findings. Entries expire automatically: "
            "run `python -m repro.analysis --update-baseline` after fixing. "
            "CONC and REACH entries must be objects with a `justification` field."
        ),
        "findings": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return entries


def compare(
    findings: list[Finding],
    baseline: dict[str, int],
    justifications: dict[str, str] | None = None,
) -> BaselineComparison:
    """Split findings into new vs. baselined and spot expired entries.

    When ``justifications`` is provided (the CLI passes the baseline's
    justification map), a baselined finding in a justification-required
    family (CONC, REACH) with no written justification counts as **new** —
    the baseline can keep a hazard or an unreached def only with an
    argument.
    """
    comparison = BaselineComparison()
    remaining = dict(baseline)
    for finding in findings:
        credit = remaining.get(finding.fingerprint, 0)
        if credit > 0:
            remaining[finding.fingerprint] = credit - 1
            if (
                justifications is not None
                and finding.code.startswith(JUSTIFICATION_REQUIRED_PREFIXES)
                and not justifications.get(finding.fingerprint)
            ):
                comparison.new.append(finding)
            else:
                comparison.baselined.append(finding)
        else:
            comparison.new.append(finding)
    comparison.expired = sorted(
        fingerprint for fingerprint, count in remaining.items() if count > 0
    )
    return comparison
