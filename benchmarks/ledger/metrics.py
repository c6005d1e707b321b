"""Arithmetic on finished passes: from timings and spans to named metrics.

End-to-end metrics come from the untraced ``e2e`` pass alone.  Per-layer
metrics come from the trace-mode pair — an untraced pass with counters
and the same plan again under span wrappers — plus a workload's probes.
Every time is normalised (``measure.nus``); see README for the glossary.
"""

from __future__ import annotations

from typing import Any

import backends
import spans
import workloads
from measure import median, nus, percentile
from passes import Pass

#: Layers that only run while partitioned.  Their per-op figures are per
#: *degraded* op (for reconciliation: per degraded op it cleans up after);
#: every other layer's are per healthy op.
DEGRADED_LAYERS = ("core.threats", "core.negotiation", "core.reconciliation")


def block_cost(block: dict[str, Any]) -> float:
    """Normalised µs per op of one timed block."""
    return nus(block["s"] / len(block["ops"]), block["k0"], block["k1"])


def latencies(blocks: list[dict[str, Any]], writes: bool, caller: str | None = None) -> list[float]:
    """Normalised latencies of the write (or read) ops of ``blocks``,
    each scaled by its own block's kernel time."""
    values = []
    for block in blocks:
        factor = nus(1.0, block["k0"], block["k1"])
        values += [
            latency * factor
            for latency, op in zip(block["lat"], block["ops"])
            if op[4] == writes and caller in (None, op[0])
        ]
    return values


def reconcile_nus(cycle: dict[str, Any]) -> float:
    return nus(cycle["reconcile_s"], *cycle["reconcile_k"])


def e2e_metrics(result: Pass) -> dict[str, float]:
    write, read = latencies(result.blocks, True), latencies(result.blocks, False)
    return {
        "op_cost_nus": median(map(block_cost, result.blocks)),
        "write_p50_nus": percentile(write, 50),
        "read_p50_nus": percentile(read, 50),
        "write_p95_nus": percentile(write, 95),
        "degraded_op_cost_nus": median(block_cost(c["degraded"]) for c in result.cycles),
        "reconcile_nms": median(map(reconcile_nus, result.cycles)) / 1000.0,
        "peak_rss_mb": result.peak_rss_mb,
    }


class TraceSummary:
    """Self time and call counts of a traced pass: per op and layer, and
    per wrapped function over the whole pass and over its healthy ops."""

    def __init__(self, tracer: spans.Tracer, traced: Pass) -> None:
        healthy = set()
        for block in traced.blocks:
            healthy.update(range(block["first_op"], block["first_op"] + len(block["ops"])))
        self_time = spans.self_times(tracer.spans)
        self.bytes = sum(tracer.sizes.values())
        self.by_op: dict[int, dict[str, list[float]]] = {}
        self.by_name: dict[str, list[float]] = {}
        self.healthy_by_name: dict[str, list[float]] = {}
        for span in tracer.spans:
            name, layer = tracer.names[span[spans.NAME]]
            seconds = self_time[span[spans.ID]]
            cells = [
                self.by_op.setdefault(span[spans.OP], {}).setdefault(layer, [0.0, 0]),
                self.by_name.setdefault(name, [0.0, 0]),
            ]
            if span[spans.OP] in healthy:
                cells.append(self.healthy_by_name.setdefault(name, [0.0, 0]))
            for cell in cells:
                cell[0] += seconds
                cell[1] += 1

    def calls(self, *names: str, healthy: bool = False) -> float:
        table = self.healthy_by_name if healthy else self.by_name
        return sum(table.get(name, (0.0, 0))[1] for name in names)

    def seconds(self, *names: str) -> float:
        return sum(self.by_name.get(name, (0.0, 0))[0] for name in names)

    def per_op(self, block: dict[str, Any], count: int) -> dict[str, tuple[float, float]]:
        """``layer -> (self nus, calls)`` per op of ``block``, over the
        ``count`` tracer ops starting at the block's first."""
        totals: dict[str, list[float]] = {}
        for op in range(block["first_op"], block["first_op"] + count):
            for layer, (seconds, calls) in self.by_op.get(op, {}).items():
                cell = totals.setdefault(layer, [0.0, 0])
                cell[0] += seconds
                cell[1] += calls
        ops = len(block["ops"])
        return {
            layer: (nus(seconds / ops, block["k0"], block["k1"]), calls / ops)
            for layer, (seconds, calls) in totals.items()
        }


def layer_metrics(traced: Pass, summary: TraceSummary) -> dict[str, float]:
    healthy = [summary.per_op(block, len(block["ops"])) for block in traced.blocks]
    degraded = []
    for cycle in traced.cycles:
        block = cycle["degraded"]
        # the cycle's degraded ops plus the reconciliation "op" after them
        degraded.append(summary.per_op(block, cycle["reconcile_op"] - block["first_op"] + 1))
    metrics = {}
    for layer in backends.LAYERS:
        rows = degraded if layer in DEGRADED_LAYERS else healthy
        metrics[f"{layer}.self_nus_per_op"] = median(row.get(layer, (0.0, 0.0))[0] for row in rows)
        metrics[f"{layer}.calls_per_op"] = median(row.get(layer, (0.0, 0.0))[1] for row in rows)
    attributed = [sum(cost for cost, _calls in row.values()) for row in healthy]
    costs = list(map(block_cost, traced.blocks))
    metrics["trace.coverage"] = median(a / c for a, c in zip(attributed, costs))
    metrics["driver.unattributed_nus_per_op"] = median(c - a for a, c in zip(attributed, costs))
    return metrics


def count_metrics(untraced: Pass, traced: Pass, summary: TraceSummary) -> dict[str, float]:
    """Counts and ratios: the program's own statistics from the untraced
    pass (healthy blocks), call counts and sizes from the traced one
    (same plan, so the same op counts)."""
    backend = untraced.plan.spec.backend
    blocks = untraced.blocks
    ops = sum(len(block["ops"]) for block in blocks)
    writes = sum(1 for block in blocks for op in block["ops"] if op[4])
    rounds = summary.calls(
        "SimNetwork.send", "GroupChannel.multicast",
        "AsyncioNetwork.send", "AsyncioGroupChannel.multicast", healthy=True,
    )

    def total(name: str) -> float:
        return sum(block["counters"].get(name, 0) for block in blocks)

    kernel = median(untraced.kernel)
    cycles = untraced.cycles
    degraded_ops = sum(len(c["degraded"]["ops"]) for c in traced.cycles)
    traced_ops = sum(len(block["ops"]) for block in traced.blocks) + degraded_ops
    recorded = summary.calls("ThreatStore.record")
    frames = summary.calls("encode_frame")
    refused = sum(1 for outcome in untraced.healthy_outcomes if outcome == workloads.REFUSED)
    return {
        "net.messages_per_op": rounds / ops,
        "replication.updates_per_write": (
            summary.calls("ReplicationManager.propagate_update", healthy=True) / max(writes, 1)
        ),
        "persistence.journal_entries_per_op": total("journal_entries") / ops,
        "core.ccmgr.validations_per_op": total("validations") / ops,
        "core.ccmgr.refused_per_kop": 1000.0 * refused / ops,
        "core.repository.lookups_per_op": total("repository_lookups") / ops,
        "core.repository.changes": total("repository_changes"),
        "core.repository.registrations": untraced.registrations,
        "core.threats.recorded_per_op": recorded / max(degraded_ops, 1),
        "core.threats.stored_records": median(c["stored"] for c in cycles),
        "core.threats.dedup_ratio": (
            sum(c["stored"] for c in traced.cycles) / recorded if recorded else 0.0
        ),
        "core.reconciliation.threats_reevaluated": median(c["report"]["threats"] for c in cycles),
        "core.reconciliation.conflicts": median(c["report"]["conflicts"] for c in cycles),
        "core.reconciliation.nus_per_threat": median(
            reconcile_nus(c) / max(c["report"]["threats"], 1) for c in cycles
        ),
        "sim.charged_s_per_op": total("charged_s") / ops,
        "transport.asyncio.ctx_switches_per_op": (
            total("ctx_switches") / ops if backend == "asyncio" else 0.0
        ),
        "transport.frames.frames_per_op": frames / traced_ops,
        "transport.frames.bytes_per_op": summary.bytes / traced_ops,
        "transport.frames.codec_nus_per_frame": (
            nus(summary.seconds("encode_frame", "decode_body") / frames, kernel) if frames else 0.0
        ),
        "transport.proc.worker_cpu_nus_per_op": nus(total("worker_cpu_s") / ops, kernel),
        "transport.proc.ctx_switches_per_op": (
            total("ctx_switches") / ops if backend == "proc" else 0.0
        ),
    }


def proc_metrics(untraced: Pass) -> dict[str, float]:
    """Process-backend probes: direct vs forwarded latency, spawn,
    fail-over and rejoin times (all zero on the other backends)."""
    if untraced.plan.spec.backend != "proc":
        return dict.fromkeys(
            ("transport.proc.direct_nus", "transport.proc.forwarded_nus",
             "transport.proc.forward_hop_nus", "transport.proc.spawn_s",
             "transport.proc.failover_first_op_nus", "transport.proc.rejoin_s",
             "transport.frames.ping_rtt_nus"), 0.0)
    blocks = untraced.blocks
    direct = latencies(blocks, True, "a") + latencies(blocks, False, "a")
    forwarded = [
        value for caller in "bc" for writes in (True, False)
        for value in latencies(blocks, writes, caller)
    ]
    first_ops = [
        nus(c["degraded"]["lat"][0], c["degraded"]["k0"], c["degraded"]["k1"])
        for c in untraced.cycles
    ]
    return {
        "transport.proc.direct_nus": percentile(direct, 50),
        "transport.proc.forwarded_nus": percentile(forwarded, 50),
        "transport.proc.forward_hop_nus": percentile(forwarded, 50) - percentile(direct, 50),
        "transport.proc.spawn_s": nus(untraced.build_s, *untraced.build_k) / 1e6,
        "transport.proc.failover_first_op_nus": median(first_ops),
        "transport.proc.rejoin_s": median(
            nus(c["heal_s"], *c["heal_k"]) for c in untraced.cycles
        ) / 1e6,
        "transport.frames.ping_rtt_nus": untraced.extras["ping_rtt_nus"],
    }


def bookkeeping_metrics(untraced: Pass, traced: Pass) -> dict[str, float]:
    blocks = untraced.blocks
    untraced_cost = median(map(block_cost, blocks))
    return {
        "lat.write_p90_nus": percentile(latencies(blocks, True), 90),
        "lat.write_p99_nus": percentile(latencies(blocks, True), 99),
        "lat.read_p95_nus": percentile(latencies(blocks, False), 95),
        "trace.overhead_ratio": median(map(block_cost, traced.blocks)) / untraced_cost - 1.0,
        "driver.raw_us_per_op": median(b["s"] / len(b["ops"]) for b in blocks) * 1e6,
        "driver.ref_kernel_us": median(untraced.kernel) * 1e6,
        "driver.blocks": float(len(blocks)),
    }


def exact_counts(untraced: Pass) -> dict[str, float]:
    """Counts a deterministic (sim) run must repeat exactly: what
    ``compare.py`` checks for equality between two ledgers."""
    names = ("journal_entries", "validations", "repository_lookups",
             "repository_changes", "charged_s")
    counts = {
        name: sum(block["counters"].get(name, 0) for block in untraced.blocks)
        for name in names
    }
    counts["charged_s"] = round(counts["charged_s"], 9)
    counts["threats_reevaluated"] = sum(c["report"]["threats"] for c in untraced.cycles)
    counts["conflicts"] = sum(c["report"]["conflicts"] for c in untraced.cycles)
    counts["stored_threats"] = sum(c["stored"] for c in untraced.cycles)
    return counts
