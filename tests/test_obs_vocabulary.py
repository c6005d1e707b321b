"""The trace vocabulary is a contract: each event type's fields are pinned.

The trace is the middleware's only instrument, so every count a paper
figure, a golden trace or the benchmark ledger reads is a count of events
by type or by a field.  An event type that gains, loses or renames a field
changes what those readers see; this file makes such a change visible.
Every ``emit("<type>", ...)`` call under ``src/repro`` is read statically,
and the keyword fields of each type must match the pin below at every call
site.  Adding or changing a field means changing the pin in the same diff.
"""

import ast
from pathlib import Path

import pytest

from repro.obs.registry import TRACE_EVENTS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FIELDS: dict[str, frozenset[str]] = {
    event_type: frozenset(fields.split())
    for event_type, fields in {
        "check_schedule": "decisions fingerprint policy scenario steps violations",
        "corpus_replay": "attempted blocked domain scenario served violations",
        "corpus_scenario": "domain entities faults nodes ops scenario seed",
        "fault_event": "action args at",
        "fault_injected": "destination duplicates effect extra_delay kind node reason",
        "invocation": "latency method node outcome ref",
        "message_drop": "destination kind node reason",
        "message_send": "bytes destination kind node",
        "multicast": "await_acks bytes kind node recipients",
        "primary_promotion": "node protocol",
        "reconcile_group": "epoch members node",
        "replication_conflict": "candidates chosen_node ref",
        "replication_update": "degraded kind node ref version",
        "repository_dispatch": "methods registrations",
        "suspicion": "node subject suspected",
        "threat": "action constraint degree mechanism node",
        "threat_sync": "node records source",
        "topology_change": "crashed failed_links partitions",
        "tx_commit": "",
        "tx_rollback": "reason",
        "validation": "category constraint degree node stale unreachable",
        "view_change": "joined left members node",
    }.items()
}


def emit_sites() -> dict[str, list[tuple[str, frozenset[str]]]]:
    """``type -> [(path:line, keyword fields)]`` for every emit call whose
    type is a string literal."""
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                fields = frozenset(keyword.arg for keyword in node.keywords if keyword.arg)
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                sites.setdefault(node.args[0].value, []).append((where, fields))
    return sites


SITES = emit_sites()


def test_the_pin_covers_the_registered_vocabulary():
    assert set(FIELDS) == set(TRACE_EVENTS)
    assert set(SITES) == set(TRACE_EVENTS)


@pytest.mark.parametrize("event_type", sorted(TRACE_EVENTS))
def test_every_emit_of_a_type_carries_its_pinned_fields(event_type):
    sites = SITES.get(event_type, [])
    assert sites, f"nothing emits {event_type!r}"
    assert {where: fields for where, fields in sites} == dict.fromkeys(
        (where for where, _ in sites), FIELDS[event_type]
    )
