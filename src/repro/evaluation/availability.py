"""Availability study (§5.2 simulation studies [Se05]; abstract claims).

The dissertation concludes that the DeDiSys middleware "is most worth its
costs in systems where (i) the read-to-write ratio is high, (ii) the
number of replicated nodes is small, and/or (iii) write-performance is not
the limiting factor", and the [Se05] simulation studies showed that the
approach combined with P4 increases availability under network partitions.

This harness drives a randomized read/write workload over a cluster that
alternates between healthy and partitioned windows and reports, per
replication configuration:

* **availability** — the fraction of attempted operations served
  (operations blocked by unreachable objects, denied write access, or
  rejected consistency threats count as failures);
* **throughput** — operations per simulated second (the cost side);
* **threats accepted** and **reconciliation time** (the clean-up debt).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

from ..check.scenario import Op, Scenario
from ..corpus.generator import two_way_partition
from ..faults.chaos import replay_scenario


@dataclass
class AvailabilityResult:
    """Outcome of one availability run."""

    configuration: str
    attempted: int = 0
    served: int = 0
    blocked: int = 0
    reads_served: int = 0
    reads_blocked: int = 0
    writes_served: int = 0
    writes_blocked: int = 0
    threats_accepted: int = 0
    simulated_seconds: float = 0.0
    reconciliation_seconds: float = 0.0

    @property
    def availability(self) -> float:
        return self.served / self.attempted if self.attempted else 0.0

    @property
    def write_availability(self) -> float:
        total = self.writes_served + self.writes_blocked
        return self.writes_served / total if total else 1.0

    @property
    def read_availability(self) -> float:
        total = self.reads_served + self.reads_blocked
        return self.reads_served / total if total else 1.0

    @property
    def throughput(self) -> float:
        return self.attempted / self.simulated_seconds if self.simulated_seconds else 0.0


#: Spacing of the scenario's ticks.  No invocation costs this little, so
#: every op and fault is overdue when its turn comes and fires at once: a
#: closed loop, paced by what each operation costs.
_TICK = 1e-6


def availability_scenario(
    configuration: str,
    nodes: int,
    records: int,
    operations: int,
    read_ratio: float,
    degraded_fraction: float,
    seed: int,
) -> Scenario:
    """The study's workload as data: two healthy and two partitioned
    windows over the ``counter`` domain; a window that follows a
    partition opens with ``heal_all`` and a reconciliation."""
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError("read_ratio must be within [0, 1]")
    rng = random.Random(seed)
    node_ids = tuple(f"n{i}" for i in range(1, nodes + 1))
    degraded_ops = int(operations * degraded_fraction)
    healthy_ops = operations - degraded_ops
    windows = [
        (False, healthy_ops // 2),
        (True, degraded_ops // 2),
        (False, healthy_ops - healthy_ops // 2),
        (True, degraded_ops - degraded_ops // 2),
    ]
    ops: list[Op] = []
    faults: list[tuple[float, str, tuple[Any, ...]]] = []
    ticks = (_TICK * count for count in itertools.count())
    partitioned = False
    for degraded, count in windows:
        if degraded and nodes > 1:
            faults.append((next(ticks), "partition", two_way_partition(rng, node_ids)))
            partitioned = True
        elif partitioned:
            faults.append((next(ticks), "heal_all", ()))
            ops.append(Op(next(ticks), "reconcile"))
            partitioned = False
        for _ in range(count):
            node = rng.choice(node_ids)
            record = rng.randrange(records)
            method = "get_counter" if rng.random() < read_ratio else "bump"
            ops.append(Op(next(ticks), "invoke", node, record, method))
    return Scenario(
        name=f"availability-{configuration}-s{seed}",
        domain="counter",
        node_ids=node_ids,
        entities=records,
        protocol=configuration,
        ops=tuple(ops),
        fault_events=tuple(faults),
    )


def run_availability_study(
    configuration: str,
    nodes: int = 3,
    records: int = 9,
    operations: int = 400,
    read_ratio: float = 0.9,
    degraded_fraction: float = 0.5,
    seed: int = 7,
) -> AvailabilityResult:
    """One randomized run.

    The run alternates healthy and partitioned windows (two of each);
    ``degraded_fraction`` of all operations are attempted while the
    network is partitioned.  Operations are issued from random nodes
    against random records whose designated primaries are spread
    round-robin over the nodes.  It is :func:`availability_scenario`
    replayed; the replay's closing heal + reconcile is the final clean-up.
    """
    report = replay_scenario(
        availability_scenario(
            configuration, nodes, records, operations, read_ratio, degraded_fraction, seed
        )
    )
    tally = Counter(
        (op.method == "get_counter", served)
        for op, served in report.outcomes
        if op.kind == "invoke"
    )
    return AvailabilityResult(
        configuration,
        attempted=sum(tally.values()),
        served=tally[True, True] + tally[False, True],
        blocked=tally[True, False] + tally[False, False],
        reads_served=tally[True, True],
        reads_blocked=tally[True, False],
        writes_served=tally[False, True],
        writes_blocked=tally[False, False],
        threats_accepted=report.threats_accepted,
        simulated_seconds=report.simulated_seconds,
        reconciliation_seconds=report.reconciliation_seconds,
    )


CONFIGURATIONS = ("no-replication", "primary-partition", "adaptive-voting", "p4")


def compare_configurations(
    nodes: int = 3,
    read_ratio: float = 0.9,
    operations: int = 400,
    seed: int = 7,
) -> dict[str, AvailabilityResult]:
    """Run all four configurations under the identical workload."""
    return {
        configuration: run_availability_study(
            configuration,
            nodes=nodes,
            operations=operations,
            read_ratio=read_ratio,
            seed=seed,
        )
        for configuration in CONFIGURATIONS
    }


def read_ratio_sweep(
    ratios: Sequence[float] = (0.5, 0.8, 0.95),
    nodes: int = 3,
    operations: int = 300,
    seed: int = 7,
) -> dict[float, dict[str, AvailabilityResult]]:
    """Abstract claim (i): the cost/benefit of the approach improves with
    the read-to-write ratio — the availability benefit persists while the
    replication write penalty is amortized over fewer writes."""
    return {
        ratio: compare_configurations(
            nodes=nodes, read_ratio=ratio, operations=operations, seed=seed
        )
        for ratio in ratios
    }


def node_count_sweep(
    node_counts: Sequence[int] = (2, 3, 4),
    read_ratio: float = 0.9,
    operations: int = 300,
    seed: int = 7,
) -> dict[int, dict[str, AvailabilityResult]]:
    """Abstract claim (ii): the write penalty grows with the number of
    replicated nodes, so small clusters benefit most."""
    return {
        count: compare_configurations(
            nodes=count, read_ratio=read_ratio, operations=operations, seed=seed
        )
        for count in node_counts
    }
