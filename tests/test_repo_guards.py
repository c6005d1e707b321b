"""Source guards for mechanisms that were replaced and may not grow back.

CI's ``lint`` job runs this file; being tier-1 it also runs wherever the
test suite does.  One guard per replaced mechanism: ``replication/`` and
``core/`` ask the membership view and never the topology oracle, one
counter counts topology changes, the GMS is the topology's one
subscriber, and the constraint phase of reconciliation exists once.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def matches(pattern: str, *packages: str) -> list[str]:
    """``path:line: text`` for every source line under ``packages`` (all of
    ``src/repro`` when none is given) that matches ``pattern``."""
    regex = re.compile(pattern)
    roots = [SRC / package for package in packages] or [SRC]
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if regex.search(line)
    ]


def test_no_topology_oracle_read_in_replication_or_core():
    oracle = r"partition_of\(|\.partitions\(\)|\.reachable\(|is_crashed\(|is_healthy\(|link_up\("
    assert matches(oracle, "replication", "core") == []


def test_one_epoch_counter():
    found = matches(r"epoch \+= 1")
    assert len(found) == 1 and found[0].startswith("membership/gms.py:"), found


def test_the_gms_is_the_only_topology_subscriber():
    found = matches(r"\.on_topology_change\(")
    assert found and all(line.startswith("membership/") for line in found), found


def test_no_constraint_phase_reimplementation_in_transport():
    assert matches(r"validate_registration|mark_deferred|SimpleNamespace", "transport") == []
