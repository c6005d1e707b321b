"""Unit tests for the observability primitives.

Covers the tracer's exact per-type tally (however many events its bounded
ring drops), the disabled hub having zero side effects, and JSON-lines
traces round-tripping through ``json.loads``.
"""

import io
import json

import pytest

from repro.obs import (
    NULL_OBS,
    TRACE_EVENTS,
    NullObservability,
    Observability,
    TraceEvent,
    Tracer,
    ensure_obs,
    jsonable,
    read_jsonl,
    write_jsonl,
)
from repro.obs.hub import summary_text
from repro.sim import SimClock

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# no-op variants: zero side effects
# ----------------------------------------------------------------------
class TestNullVariants:
    def test_null_observability_is_inert(self):
        obs = NullObservability()
        assert obs.enabled is False
        assert obs.emit("invocation", node="n1") is None
        assert obs.events() == []
        assert obs.event_counts() == {}
        assert obs.snapshot() == {
            "events": {"emitted": 0, "buffered": 0, "dropped": 0, "by_type": {}},
        }
        assert obs.export_jsonl(io.StringIO()) == 0
        assert obs.summary() == "observability disabled\n"
        obs.bind_clock(SimClock())

    def test_ensure_obs(self):
        assert ensure_obs(None) is NULL_OBS
        hub = Observability()
        assert ensure_obs(hub) is hub

    def test_null_observability_retains_nothing(self):
        for _ in range(3):
            NULL_OBS.emit("invocation", node="n1")
        assert NULL_OBS.events() == []
        assert NULL_OBS.event_counts() == {}
        assert not hasattr(NULL_OBS, "tracer")

    def test_null_snapshot_has_the_hub_shape(self):
        # Readers of a snapshot need not know whether tracing is on.
        assert NullObservability().snapshot() == Observability().snapshot()


# ----------------------------------------------------------------------
# tracer and events
# ----------------------------------------------------------------------
class TestTracer:
    def test_events_are_stamped_with_sim_time(self):
        clock = SimClock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        clock.advance(1.5)
        event = tracer.emit("invocation", node="n1")
        assert event.timestamp == 1.5

    def test_bind_clock_after_construction(self):
        tracer = Tracer()
        assert tracer.now == 0.0
        clock = SimClock(4.0)
        tracer.bind_clock(clock)
        assert tracer.emit("invocation").timestamp == 4.0

    def test_sequence_numbers_increase(self):
        tracer = Tracer()
        first = tracer.emit("invocation")
        second = tracer.emit("validation")
        assert (first.seq, second.seq) == (0, 1)
        assert tracer.emitted == 2

    def test_counts_tally_every_emitted_event_by_type(self):
        tracer = Tracer()
        for event_type in ("threat", "invocation", "threat"):
            tracer.emit(event_type)
        assert tracer.counts() == {"invocation": 1, "threat": 2}
        assert sum(tracer.counts().values()) == tracer.emitted

    def test_counts_is_a_copy(self):
        tracer = Tracer()
        tracer.emit("threat")
        tracer.counts()["threat"] = 99
        assert tracer.counts() == {"threat": 1}

    def test_snapshot_reads_its_counts_together(self):
        tracer = Tracer(ring_capacity=2)
        for event_type in ("threat", "invocation", "threat"):
            tracer.emit(event_type)
        snapshot = tracer.snapshot()
        assert snapshot == {
            "emitted": 3, "buffered": 2, "dropped": 1,
            "by_type": {"invocation": 1, "threat": 2},
        }
        snapshot["by_type"]["threat"] = 99
        assert tracer.counts() == {"invocation": 1, "threat": 2}

    def test_event_vocabulary_covers_instrumentation(self):
        assert {"invocation", "validation", "threat", "replication_update",
                "view_change", "message_send", "message_drop"} <= TRACE_EVENTS.keys()

    def test_repr_is_compact(self):
        event = TraceEvent(3, 1.25, "threat", "n2", {})
        assert repr(event) == "TraceEvent(#3 threat @ 1.250000)"

    def test_to_dict_shape(self):
        event = TraceEvent(3, 1.25, "threat", "n2", {"constraint": "C"})
        assert event.to_dict() == {
            "seq": 3,
            "ts": 1.25,
            "type": "threat",
            "node": "n2",
            "data": {"constraint": "C"},
        }


class TestJsonable:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert jsonable(value) == value

    def test_enums_become_names(self):
        from repro.core import SatisfactionDegree

        assert jsonable(SatisfactionDegree.SATISFIED) == "SATISFIED"

    def test_sets_are_sorted(self):
        assert jsonable({"b", "a"}) == ["a", "b"]
        assert jsonable(frozenset({"y", "x"})) == ["x", "y"]

    def test_containers_recurse(self):
        assert jsonable({"k": ("a", {"b"})}) == {"k": ["a", ["b"]]}
        assert jsonable({1: "v"}) == {"1": "v"}

    def test_rich_objects_collapse_to_str(self):
        from repro.objects import ObjectRef

        ref = ObjectRef("TestBean", "b-1")
        assert jsonable(ref) == str(ref)


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------
class TestRing:
    def test_keeps_most_recent_events(self):
        obs = Observability(ring_capacity=2)
        for _ in range(3):
            obs.emit("invocation")
        assert [event.seq for event in obs.events()] == [1, 2]
        events = obs.snapshot()["events"]
        assert (events["emitted"], events["buffered"], events["dropped"]) == (3, 2, 1)

    def test_unbounded_when_capacity_none(self):
        obs = Observability(ring_capacity=None)
        for _ in range(100):
            obs.emit("invocation")
        assert len(obs.events()) == 100
        assert obs.snapshot()["events"]["dropped"] == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Observability(ring_capacity=0)

    def test_events_is_a_copy(self):
        obs = Observability()
        obs.emit("invocation")
        obs.events().clear()
        assert [event.seq for event in obs.events()] == [0]


class TestJsonLines:
    def _events(self):
        return [
            TraceEvent(0, 0.0, "invocation", "n1", {"method": "get_text"}),
            TraceEvent(1, 0.5, "threat", "n2", {"degree": "UNCHECKABLE", "stale": 2}),
        ]

    def test_round_trips_through_json_loads(self):
        stream = io.StringIO()
        assert write_jsonl(self._events(), stream) == 2
        stream.seek(0)
        parsed = read_jsonl(stream)
        assert parsed == [event.to_dict() for event in self._events()]

    def test_round_trips_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(self._events(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        # every line is independently json.loads-able
        assert [json.loads(line)["type"] for line in lines] == ["invocation", "threat"]
        assert read_jsonl(path) == read_jsonl(str(path))

    def test_serialization_is_compact_and_key_sorted(self):
        event = TraceEvent(0, 0.0, "invocation", None, {"b": 1, "a": 2})
        text = event.to_json()
        assert " " not in text
        assert text.index('"a"') < text.index('"b"')

    def test_write_counts_written_lines(self, tmp_path):
        # A path is truncated, not appended to.
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(self._events(), path) == 2
        assert write_jsonl(self._events()[:1], path) == 1
        assert [entry["seq"] for entry in read_jsonl(path)] == [0]

    def test_read_skips_blank_lines(self):
        stream = io.StringIO('{"seq":0}\n\n{"seq":1}\n')
        assert [entry["seq"] for entry in read_jsonl(stream)] == [0, 1]


class TestSummaryText:
    def test_counts_and_span(self):
        text = summary_text({"invocation": 2, "threat": 1}, 1.0, 3.0)
        assert "invocation" in text and "threat" in text
        assert "1.000000s .. 3.000000s" in text
        assert "events: 3\n" in text

    def test_empty_summary(self):
        text = Observability().summary()
        assert "events: 0" in text
        assert "sim-time span" not in text


# ----------------------------------------------------------------------
# the hub
# ----------------------------------------------------------------------
class TestObservabilityHub:
    def test_snapshot_reflects_events(self):
        obs = Observability()
        obs.emit("invocation", node="n1")
        obs.emit("threat", node="n1")
        snap = obs.snapshot()
        assert list(snap) == ["events"]
        assert snap["events"]["emitted"] == 2
        assert snap["events"]["by_type"] == {"invocation": 1, "threat": 1}

    def test_events_filter_by_type(self):
        obs = Observability()
        obs.emit("invocation")
        obs.emit("threat")
        assert [event.type for event in obs.events("threat")] == ["threat"]
        assert len(obs.events()) == 2

    def test_ring_capacity_reported_as_dropped(self):
        obs = Observability(ring_capacity=1)
        obs.emit("invocation")
        obs.emit("invocation")
        snap = obs.snapshot()
        assert snap["events"]["buffered"] == 1
        assert snap["events"]["dropped"] == 1

    def test_counts_stay_exact_after_the_ring_wraps(self):
        # The ring keeps the newest events; the per-type tally counts
        # every event ever emitted, so a wrapped ring undercounts nothing.
        obs = Observability(ring_capacity=2)
        for _ in range(5):
            obs.emit("tx_commit")
        obs.emit("tx_rollback")
        assert obs.event_counts() == {"tx_commit": 5, "tx_rollback": 1}
        events = obs.snapshot()["events"]
        assert (events["emitted"], events["buffered"], events["dropped"]) == (6, 2, 4)
        assert events["by_type"] == {"tx_commit": 5, "tx_rollback": 1}
        text = obs.summary()
        assert "events: 6\n" in text
        assert "tx_commit" in text and " 5\n" in text

    def test_by_type_is_sorted_by_type(self):
        obs = Observability()
        for event_type in ("threat", "invocation", "validation", "invocation"):
            obs.emit(event_type)
        assert list(obs.event_counts().items()) == [
            ("invocation", 2), ("threat", 1), ("validation", 1),
        ]

    def test_summary_spans_the_buffered_events(self):
        clock = SimClock()
        obs = Observability(ring_capacity=2)
        obs.bind_clock(clock)
        for step in range(3):
            clock.advance(1.0)
            obs.emit("invocation")
        text = obs.summary()
        assert "2.000000s .. 3.000000s" in text
        assert "events: 3\n" in text

    def test_export_jsonl(self, tmp_path):
        obs = Observability()
        obs.emit("invocation", node="n1", method="get_text")
        path = tmp_path / "trace.jsonl"
        assert obs.export_jsonl(path) == 1
        assert read_jsonl(path)[0]["data"]["method"] == "get_text"

    def test_export_jsonl_writes_only_the_buffered_events(self):
        obs = Observability(ring_capacity=2)
        for _ in range(3):
            obs.emit("invocation")
        stream = io.StringIO()
        assert obs.export_jsonl(stream) == 2
        stream.seek(0)
        assert [entry["seq"] for entry in read_jsonl(stream)] == [1, 2]

    def test_summary_text(self):
        obs = Observability()
        obs.emit("invocation")
        assert "invocation" in obs.summary()

    def test_bound_clock_stamps_events(self):
        obs = Observability()
        clock = SimClock()
        obs.bind_clock(clock)
        clock.advance(2.0)
        assert obs.emit("invocation").timestamp == 2.0

    def test_emitting_never_advances_the_clock(self):
        clock = SimClock(1.0)
        for obs in (Observability(), NullObservability()):
            obs.bind_clock(clock)
            obs.emit("invocation")
        assert clock.now == 1.0
