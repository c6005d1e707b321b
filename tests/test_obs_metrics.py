"""Unit tests for the observability primitives.

Covers the satellite requirements: histogram bucket-edge (``le``)
semantics, label cardinality bounds, no-op instruments and sinks having
zero side effects, and JSON-lines traces round-tripping through
``json.loads``.
"""

import io
import json
import math

import pytest

from repro.obs import (
    NULL_OBS,
    Counter,
    Gauge,
    Histogram,
    JsonLinesSink,
    LabelCardinalityError,
    MetricsRegistry,
    NullObservability,
    NullRegistry,
    NullSink,
    NullTracer,
    Observability,
    RingBufferSink,
    SummarySink,
    TraceEvent,
    Tracer,
    TraceSink,
    ensure_obs,
    label_key,
    read_jsonl,
    write_jsonl,
)
from repro.obs.metrics import NullCounter, NullGauge, NullHistogram
from repro.obs.tracing import EVENT_TYPES, jsonable
from repro.sim import SimClock

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# counters and gauges
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value() == 0.0

    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent_series(self):
        counter = Counter("c")
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1.0
        assert counter.value(kind="b") == 3.0
        assert counter.total() == 4.0

    def test_label_order_does_not_matter(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0
        assert len(counter.snapshot()["series"]) == 1

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Counter("")

    def test_snapshot_shape(self):
        counter = Counter("c", help="things")
        counter.inc(kind="x")
        snap = counter.snapshot()
        assert snap["kind"] == "counter"
        assert snap["help"] == "things"
        assert snap["series"] == {"kind=x": 1.0}


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value() == 3.0

    def test_add_on_fresh_series_starts_at_zero(self):
        gauge = Gauge("g")
        gauge.add(1.5, node="a")
        assert gauge.value(node="a") == 1.5

    def test_unset_series_reads_zero(self):
        assert Gauge("g").value(node="missing") == 0.0


class TestLabelCardinality:
    def test_bound_is_enforced(self):
        counter = Counter("c", max_series=2)
        counter.inc(kind="a")
        counter.inc(kind="b")
        with pytest.raises(LabelCardinalityError) as excinfo:
            counter.inc(kind="c")
        assert excinfo.value.name == "c"
        assert excinfo.value.max_series == 2

    def test_existing_series_still_updatable_at_bound(self):
        counter = Counter("c", max_series=1)
        counter.inc(kind="a")
        counter.inc(kind="a")
        assert counter.value(kind="a") == 2.0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            Counter("c", max_series=0)

    def test_label_key_is_sorted_and_stringified(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def buckets(hist: Histogram) -> dict[str, int]:
    """The unlabelled series' cumulative count per finite upper edge."""
    return hist.snapshot()["series"][""]["buckets"]


class TestHistogram:
    def test_value_on_edge_counts_into_that_bucket(self):
        # Prometheus ``le`` semantics: bucket edge is an inclusive upper
        # bound, so an observation exactly on an edge lands in it.
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)
        hist.observe(2.0)
        assert buckets(hist) == {"1.0": 1, "2.0": 2, "5.0": 2}
        assert hist.count() == 2

    def test_value_above_last_edge_lands_in_inf(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(100.0)
        assert buckets(hist) == {"1.0": 0}
        assert hist.count() == 1

    def test_value_just_above_edge_goes_to_next_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0000001)
        assert buckets(hist)["1.0"] == 0
        assert buckets(hist)["2.0"] == 1

    def test_counts_are_cumulative(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5, 2.6):
            hist.observe(value)
        assert buckets(hist) == {"1.0": 1, "2.0": 2, "3.0": 4}
        assert hist.count() == 4

    def test_count_and_sum(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.25)
        hist.observe(0.5)
        assert hist.count() == 2
        assert hist.sum() == pytest.approx(0.75)

    def test_empty_series_reads_zero(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.count(op="x") == 0
        assert hist.sum(op="x") == 0.0

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_rejects_nonfinite_edge(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, math.inf))

    def test_rejects_nonfinite_observation(self):
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(math.nan)

    def test_label_cardinality_applies(self):
        hist = Histogram("h", buckets=(1.0,), max_series=1)
        hist.observe(0.5, op="a")
        with pytest.raises(LabelCardinalityError):
            hist.observe(0.5, op="b")

    def test_snapshot_buckets_are_cumulative(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5, op="x")
        hist.observe(1.5, op="x")
        snap = hist.snapshot()
        assert snap["series"]["op=x"] == {
            "buckets": {"1.0": 1, "2.0": 2},
            "count": 2,
            "sum": 2.0,
        }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        registry.histogram("c")
        assert registry.names() == ("a", "b", "c")

    def test_get(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        assert registry.get("c") is counter
        assert registry.get("missing") is None

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(kind="a")
        registry.gauge("g").set(2.0)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["c"]["series"]["kind=a"] == 1.0
        assert parsed["h"]["series"][""]["count"] == 1


# ----------------------------------------------------------------------
# no-op variants: zero side effects
# ----------------------------------------------------------------------
class TestNullVariants:
    def test_null_registry_hands_out_shared_noops(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_null_instruments_record_nothing(self):
        registry = NullRegistry()
        counter, gauge, hist = registry.counter("c"), registry.gauge("g"), registry.histogram("h")
        counter.inc(5, kind="x")
        gauge.set(3.0)
        gauge.add(1.0)
        hist.observe(0.5)
        assert counter.value(kind="x") == 0.0
        assert counter.total() == 0.0
        assert gauge.value() == 0.0
        assert hist.count() == 0
        assert hist.sum() == 0.0
        assert registry.snapshot() == {}
        assert registry.names() == ()
        assert registry.get("c") is None

    def test_null_instruments_share_singletons(self):
        assert NullRegistry().counter("x") is NullRegistry().counter("y")
        assert isinstance(NullRegistry().counter("x"), NullCounter)
        assert isinstance(NullRegistry().gauge("x"), NullGauge)
        assert isinstance(NullRegistry().histogram("x"), NullHistogram)

    def test_null_sink_retains_nothing(self):
        sink = NullSink()
        event = TraceEvent(0, 0.0, "invocation", "n1", {})
        sink.record(event)
        sink.close()
        assert not hasattr(sink, "events")

    def test_null_tracer_emits_nothing(self):
        tracer = NullTracer()
        assert tracer.emit("invocation", node="n1", method="m") is None
        assert tracer.emitted == 0
        tracer.bind_clock(SimClock())
        tracer.close()
        assert tracer.now == 0.0

    def test_null_observability_is_inert(self):
        obs = NullObservability()
        assert obs.enabled is False
        assert obs.emit("invocation", node="n1") is None
        assert obs.events() == []
        assert obs.event_counts() == {}
        assert obs.snapshot() == {
            "metrics": {},
            "events": {"emitted": 0, "buffered": 0, "dropped": 0, "by_type": {}},
        }
        assert obs.export_jsonl(io.StringIO()) == 0
        assert obs.summary() == "observability disabled\n"
        obs.bind_clock(SimClock())

    def test_ensure_obs(self):
        assert ensure_obs(None) is NULL_OBS
        hub = Observability()
        assert ensure_obs(hub) is hub

    def test_base_sink_interface(self):
        sink = TraceSink()
        with pytest.raises(NotImplementedError):
            sink.record(TraceEvent(0, 0.0, "invocation", None, {}))
        sink.close()


# ----------------------------------------------------------------------
# tracer and events
# ----------------------------------------------------------------------
class TestTracer:
    def test_events_are_stamped_with_sim_time(self):
        clock = SimClock()
        tracer = Tracer(clock)
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

    def test_disabled_tracer_returns_none(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.enabled = False
        assert tracer.emit("invocation") is None
        assert len(ring) == 0

    def test_fan_out_to_all_sinks(self):
        ring_a, ring_b = RingBufferSink(), RingBufferSink()
        tracer = Tracer(sinks=[ring_a, ring_b])
        tracer.emit("invocation")
        assert len(ring_a) == len(ring_b) == 1
        tracer.close()

    def test_event_vocabulary_covers_instrumentation(self):
        assert {"invocation", "validation", "threat", "replication_update",
                "view_change", "message_send", "message_drop"} <= EVENT_TYPES

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
# sinks
# ----------------------------------------------------------------------
class TestRingBufferSink:
    def test_keeps_most_recent_events(self):
        ring = RingBufferSink(capacity=2)
        for seq in range(3):
            ring.record(TraceEvent(seq, 0.0, "invocation", None, {}))
        assert [event.seq for event in ring.events()] == [1, 2]
        assert ring.recorded == 3
        assert ring.dropped == 1
        assert len(ring) == 2

    def test_unbounded_when_capacity_none(self):
        ring = RingBufferSink(capacity=None)
        for seq in range(100):
            ring.record(TraceEvent(seq, 0.0, "invocation", None, {}))
        assert ring.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_clear_and_iter(self):
        ring = RingBufferSink()
        ring.record(TraceEvent(0, 0.0, "invocation", None, {}))
        assert [event.seq for event in ring] == [0]
        ring.clear()
        assert len(ring) == 0


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

    def test_sink_counts_written_lines(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "trace.jsonl")
        for event in self._events():
            sink.record(event)
        sink.close()
        assert sink.written == 2

    def test_read_skips_blank_lines(self):
        stream = io.StringIO('{"seq":0}\n\n{"seq":1}\n')
        assert [entry["seq"] for entry in read_jsonl(stream)] == [0, 1]


class TestSummarySink:
    def test_counts_and_span(self):
        sink = SummarySink()
        sink.record(TraceEvent(0, 1.0, "invocation", None, {}))
        sink.record(TraceEvent(1, 2.0, "invocation", None, {}))
        sink.record(TraceEvent(2, 3.0, "threat", None, {}))
        assert sink.total() == 3
        text = sink.summary()
        assert "invocation" in text and "threat" in text
        assert "1.000000s" in text and "3.000000s" in text

    def test_empty_summary(self):
        text = SummarySink().summary()
        assert "events: 0" in text


# ----------------------------------------------------------------------
# the hub
# ----------------------------------------------------------------------
class TestObservabilityHub:
    def test_snapshot_reflects_metrics_and_events(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        obs.emit("invocation", node="n1")
        obs.emit("threat", node="n1")
        snap = obs.snapshot()
        assert snap["metrics"]["c"]["series"][""] == 1.0
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

    def test_extra_sinks_receive_events(self):
        extra = SummarySink()
        obs = Observability(sinks=[extra])
        obs.emit("invocation")
        assert extra.total() == 1

    def test_export_jsonl(self, tmp_path):
        obs = Observability()
        obs.emit("invocation", node="n1", method="get_text")
        path = tmp_path / "trace.jsonl"
        assert obs.export_jsonl(path) == 1
        assert read_jsonl(path)[0]["data"]["method"] == "get_text"

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
