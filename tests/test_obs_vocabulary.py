"""The trace vocabulary is a contract: ``obs/registry.TRACE_EVENTS``.

The trace is the middleware's only instrument, so every count a paper
figure, a golden trace or the benchmark ledger reads is a count of events
by type or by a field.  An event type that gains, loses or renames a field
changes what those readers see; this file makes such a change visible.
Every ``emit(...)`` call under ``src/repro`` is read statically: its type
is a string literal registered in ``TRACE_EVENTS``, its keyword fields are
the type's fields there, and every registered type is emitted somewhere.
Adding or changing a field means changing the table in the same diff.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.obs.registry import TRACE_EVENTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The one emit whose type is not a literal: the hub hands its caller's
#: type on to the tracer.
FORWARDER = "obs/hub.py: self.tracer.emit(type, node, **data)"


def emit_calls() -> list[tuple[str, ast.Call]]:
    """``(path, call)`` for every ``.emit(...)`` call under ``src/repro``."""
    return [
        (str(path.relative_to(SRC)), node)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
    ]


def literal_type(call: ast.Call) -> str | None:
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def emit_sites() -> dict[str, list[tuple[str, frozenset[str]]]]:
    """``type -> [(path:line, keyword fields)]`` for every emit call whose
    type is a string literal."""
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for path, call in emit_calls():
        event_type = literal_type(call)
        if event_type is not None:
            fields = frozenset(keyword.arg for keyword in call.keywords if keyword.arg)
            sites.setdefault(event_type, []).append((f"{path}:{call.lineno}", fields))
    return sites


SITES = emit_sites()


def test_every_emit_names_its_type_as_a_literal():
    """A type held in a name or built at run time escapes every check
    below, so only the hub's forwarder may pass one on."""
    computed = [
        f"{path}: {ast.unparse(call)}" for path, call in emit_calls() if literal_type(call) is None
    ]
    assert computed == [FORWARDER]


def test_the_pin_covers_the_registered_vocabulary():
    assert set(SITES) == set(TRACE_EVENTS)


@pytest.mark.parametrize("event_type", sorted(TRACE_EVENTS))
def test_every_emit_of_a_type_carries_its_pinned_fields(event_type):
    sites = SITES.get(event_type, [])
    assert sites, f"nothing emits {event_type!r}"
    pinned = frozenset(TRACE_EVENTS[event_type][1].split())
    assert {where: fields for where, fields in sites} == dict.fromkeys(
        (where for where, _ in sites), pinned
    )


def test_the_tutorial_table_lists_the_registry():
    """``docs/TUTORIAL.md``'s event table: one row per registered type, in
    the registry's order, with its description."""
    tutorial = (ROOT / "docs" / "TUTORIAL.md").read_text()
    table = tutorial.split("| Event type | Meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", table, re.MULTILINE)
    assert rows == [(name, description) for name, (description, _) in TRACE_EVENTS.items()]
