"""Source guards for mechanisms that were replaced and may not grow back.

CI's ``lint`` job runs this file; being tier-1 it also runs wherever the
test suite does.  One guard per replaced mechanism: ``replication/`` and
``core/`` ask the membership view and never the topology oracle, one
counter counts topology changes, the GMS is the topology's one
subscriber, and the constraint phase of reconciliation exists once; a
package ``__init__`` re-exports through the one helper of ``repro._lazy``;
and no module runs an event loop — a process-backend worker serves each
frame on its connection's own thread, with no executor hop.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def matches(pattern: str, *packages: str) -> list[str]:
    """``path:line: text`` for every source line under ``packages`` (files
    or directories; all of ``src/repro`` when none is given) that matches
    ``pattern``."""
    regex = re.compile(pattern)
    roots = [SRC / package for package in packages] or [SRC]
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for root in roots
        for path in ([root] if root.is_file() else sorted(root.rglob("*.py")))
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


def test_a_package_init_imports_nothing_but_the_reexport_helper():
    # ``analysis/rules`` registers its rule families by importing them.
    eager = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("__init__.py"))
        if path != SRC / "analysis" / "rules" / "__init__.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "_lazy")
    ]
    assert eager == []


def test_the_helper_holds_the_only_module_getattr():
    # A module's takes the name alone; a class's takes ``self`` first.
    found = matches(r"def __getattr__\(name")
    assert len(found) == 1 and found[0].startswith("_lazy.py:"), found


def test_no_event_loop_and_no_executor_hop_in_the_worker():
    assert matches(r"^\s*(import|from) asyncio") == []
    assert matches(r"ThreadPoolExecutor|run_in_executor", "transport/procnode.py") == []
