"""Determinism regression: the trace is a pure function of the scenario.

The simulation is deterministic (seeded RNG, simulated clock), so running
the same scenario twice — in the same interpreter, back to back — must
produce byte-identical JSON-lines traces and equal snapshots.
This guards against accidentally leaking process-global state (object
ids, interpreter counters, wall-clock time, dict iteration over
unordered sets) into events.
"""

import io
import json

import pytest

from repro.core import AcceptAllHandler
from repro.evaluation import ch5
from repro.evaluation.ch5 import build_cluster
from repro.obs import Observability

pytestmark = pytest.mark.obs


def run_partition_scenario(seed: int = 0) -> Observability:
    """One full degraded-mode lifecycle with observability attached."""
    obs = Observability()
    cluster = build_cluster(nodes=3, obs=obs)
    beans = [
        cluster.create_entity("n1", "TestBean", f"bean-{index}")
        for index in range(3)
    ]
    cluster.invoke("n1", beans[0], "set_text", "before")
    cluster.partition({"n1", "n2"}, {"n3"})
    handler = AcceptAllHandler()
    for bean in beans:
        cluster.invoke("n1", bean, "threat_op", negotiation_handler=handler)
    cluster.invoke("n1", beans[1], "set_text", "degraded")
    cluster.heal()
    cluster.reconcile()
    return obs


def trace_bytes(obs: Observability) -> bytes:
    stream = io.StringIO()
    obs.export_jsonl(stream)
    return stream.getvalue().encode("utf-8")


class TestTraceDeterminism:
    def test_same_scenario_yields_byte_identical_trace(self):
        first = run_partition_scenario()
        second = run_partition_scenario()
        assert trace_bytes(first) == trace_bytes(second)

    def test_same_scenario_yields_equal_snapshots(self):
        first = run_partition_scenario()
        second = run_partition_scenario()
        assert json.dumps(first.snapshot(), sort_keys=True) == json.dumps(
            second.snapshot(), sort_keys=True
        )

    def test_trace_is_nonempty_and_typed(self):
        obs = run_partition_scenario()
        counts = obs.event_counts()
        # the partition scenario must exercise the whole vocabulary slice
        for event_type in (
            "invocation",
            "validation",
            "threat",
            "replication_update",
            "topology_change",
            "view_change",
            "tx_commit",
            "multicast",
        ):
            assert counts.get(event_type, 0) > 0, event_type

    def test_sequence_numbers_are_gapless(self):
        obs = run_partition_scenario()
        events = obs.events()
        assert [event.seq for event in events] == list(range(len(events)))

    def test_timestamps_are_monotone(self):
        obs = run_partition_scenario()
        timestamps = [event.timestamp for event in obs.events()]
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))

    def test_events_carry_no_process_global_ids(self):
        # Invocation/transaction ids come from interpreter-global
        # counters and would differ between two runs in one process;
        # they must never appear in the trace.
        obs = run_partition_scenario()
        for event in obs.events():
            assert "txid" not in event.data
            assert "invocation_id" not in event.data

    def test_exported_trace_round_trips(self, tmp_path):
        obs = run_partition_scenario()
        path = tmp_path / "trace.jsonl"
        written = obs.export_jsonl(path)
        parsed = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert written == len(parsed) == len(obs.events())
        assert parsed == [event.to_dict() for event in obs.events()]


class TestBeanSmoke:
    def test_bean_is_importable_and_deployable(self):
        cluster = build_cluster(nodes=1, replication=False)
        ref = cluster.create_entity("n1", "TestBean", "b")
        assert isinstance(cluster.entity_on("n1", ref), ch5.TestBean)
