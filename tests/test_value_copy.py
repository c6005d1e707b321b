"""``copy_value`` against its specification, ``copy.deepcopy``."""

import copy
import enum
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.objects import ObjectRef
from repro.objects.values import copy_value


class Row(dict):
    """A dict subclass: must come back as a ``Row``, via ``deepcopy``."""


class Colour(enum.Enum):
    RED = 1
    GREEN = 2


MUTABLE = (list, dict)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.builds(ObjectRef, st.text(max_size=3), st.text(max_size=3)),
)
immutables = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.frozensets(inner, max_size=3)
    ),
    max_leaves=6,
)
values = st.recursive(
    st.one_of(immutables, st.sampled_from(Colour)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(immutables, inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3).map(Row),
    ),
    max_leaves=8,
)


@st.composite
def states(draw):
    """An entity state or table row, sometimes with sharing or a cycle."""
    state = draw(st.dictionaries(st.text(max_size=4), values, max_size=5))
    if draw(st.booleans()):
        state["alias-1"] = state["alias-2"] = draw(values)
    cyclic = draw(st.booleans())
    if cyclic:
        loop = [draw(leaves)]
        loop.append(loop)
        state["loop"] = loop
    if draw(st.booleans()):
        state = Row(state)
    return state, cyclic


def assert_same(a, b, seen=None):
    """``a`` and ``b`` have the same types, values and sharing structure and
    share no mutable container.  Safe on cyclic values, unlike ``==``."""
    seen = {} if seen is None else seen
    assert type(a) is type(b)
    if isinstance(a, MUTABLE + (tuple, frozenset)):
        if id(a) in seen:
            assert seen[id(a)] == id(b)
            return
        seen[id(a)] = id(b)
        assert len(a) == len(b)
    if isinstance(a, MUTABLE):
        assert a is not b
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key], seen)
    elif isinstance(a, (list, tuple)):
        for left, right in zip(a, b):
            assert_same(left, right, seen)
    elif isinstance(a, enum.Enum):
        assert a is b
    else:
        assert a == b or a != a  # NaN


def scribble(value):
    """Change every mutable container reachable from ``value``."""
    containers, stack, seen = [], [value], set()
    while stack:
        current = stack.pop()
        if id(current) in seen or not isinstance(current, MUTABLE + (tuple,)):
            continue
        seen.add(id(current))
        stack.extend(current.values() if isinstance(current, dict) else current)
        if isinstance(current, MUTABLE):
            containers.append(current)
    for container in containers:
        if isinstance(container, dict):
            container["scribble"] = "scribble"
        else:
            container.append("scribble")
    return len(containers)


@given(states())
def test_equal_to_deepcopy_and_as_independent(drawn):
    state, cyclic = drawn
    expected = copy.deepcopy(state)
    copied = copy_value(state)
    assert type(copied) is type(state)
    if not cyclic:
        assert copied == expected
    assert_same(copied, expected)
    assert_same(copied, state)

    assert scribble(copied) >= 1
    assert_same(state, expected)

    copied = copy_value(state)
    scribble(state)
    assert_same(copied, expected)


@given(values)
def test_any_value_not_only_states(value):
    copied = copy_value(value)
    assert copied == copy.deepcopy(value)
    assert_same(copied, value)


@pytest.fixture
def no_deepcopy(monkeypatch):
    """Any ``copy.deepcopy`` from here on fails the test."""

    def refuse(value, memo=None):
        raise AssertionError(f"deepcopy of {value!r}")

    monkeypatch.setattr(copy, "deepcopy", refuse)


def test_flat_dict_is_copied_without_deepcopy(no_deepcopy):
    state = {
        "number": "F1",
        "sold": 3,
        "ratio": 0.5,
        "open": True,
        "note": None,
        "raw": b"x",
        "owner": ObjectRef("Person", "p1"),
        "legs": ("VIE", "CDG", (1, 2)),
        "tags": frozenset({"a", ObjectRef("Tag", "t")}),
        ("tuple", "key"): 1,
    }
    copied = copy_value(state)
    assert copied == state and copied is not state
    assert all(copied[key] is state[key] for key in state)


@pytest.mark.parametrize(
    "row",
    [
        {"items": [1, 2]},
        {"nested": {"a": 1}},
        # The shape of a persisted threat row.
        {
            "threat_id": 7,
            "affected": ["Flight#F1", "Flight#F2"],
            "application_data": {"seats": 3, "route": ("VIE", "CDG")},
            "empty": [],
            "deferred": False,
        },
    ],
    ids=["list", "dict", "threat-row"],
)
def test_one_level_of_nesting_is_copied_without_deepcopy(row, request):
    """A list or plain dict of leaves inside an otherwise flat row."""
    expected = copy.deepcopy(row)
    request.getfixturevalue("no_deepcopy")
    copied = copy_value(row)
    assert copied == expected
    assert_same(copied, row)  # equal, same types, no container shared
    assert scribble(copied) >= 2  # both levels
    assert_same(row, expected)


def test_a_container_met_twice_stays_shared_in_the_copy():
    shared = [1, 2]
    copied = copy_value({"a": shared, "b": shared, "c": [1, 2]})
    assert copied["a"] is copied["b"] and copied["a"] is not shared
    assert copied["c"] is not copied["a"]


class Items(list):
    """A list subclass: not ours to shallow-copy."""


def _cyclic():
    row = {"n": 1}
    row["self"] = row
    return row


def _aliased():
    shared = [1]
    return {"aliased": shared, "again": shared}


@pytest.mark.parametrize(
    "state",
    [
        {"items": [[1], 2]},
        {"nested": {"a": {"b": 1}}},
        {"nested": {"a": [1]}},
        _aliased(),
        {"items": Items([1])},
        {"row": Row(a=1)},
        _cyclic(),
        {"mixed": (1, [2])},
        Row(a=1),
        {"colour": Colour.RED},
        {"count": enum.IntEnum("Level", "LOW HIGH").LOW},
        [1, 2],
        "text",
    ],
    ids=repr,
)
def test_everything_else_is_left_to_deepcopy(monkeypatch, state):
    calls = []
    real = copy.deepcopy

    def spy(value, memo=None):
        calls.append(value)
        return real(value, memo)

    monkeypatch.setattr(copy, "deepcopy", spy)
    copied = copy_value(state)
    assert calls and calls[0] is state
    assert type(copied) is type(state)
    assert_same(copied, state)


@pytest.mark.parametrize("module", ["repro.persistence.store", "repro.objects.entity"])
def test_imports_alone_in_a_cold_interpreter(module):
    """``persistence.store`` reaches up to ``objects.values`` for the helper;
    either module must still import first, on its own, without a cycle."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
