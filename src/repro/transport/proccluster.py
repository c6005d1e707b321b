"""Driver for a multi-process DeDiSys cluster.

Spawns one :mod:`repro.transport.procnode` worker per node as an OS
process, talks to them with length-prefixed JSON frames, and coordinates
the reconciliation round the GMS coordinator would run in the full
system:

1. ``state-dump`` from every reachable worker;
2. merge replicas — additive fields (ticket sales, §1.3) are summed as
   per-partition deltas over the healthy baseline, everything else is
   last-writer-wins by version;
3. ``state-apply`` the merged snapshot everywhere;
4. ``revalidate``: each worker re-checks its pending threats on merged
   state with its own CCMgr and reports what was satisfied, rebooked, or
   deferred; repaired state is re-broadcast.

``kill(node)`` delivers a real signal (``SIGKILL`` by default) — the
degrade-then-reconcile story of the dissertation on actual processes.

The driver's connections to the workers are pooled by
:func:`frames.request` and stay open between frames; ``kill``,
``restart`` and ``close`` drop the idle sockets of the nodes they touch
so no descriptor outlives the process it pointed at.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path
from socket import socket
from typing import Any, Mapping, Sequence

from . import frames
from .wallclock import read_monotonic

_HOST = "127.0.0.1"
_EPHEMERAL_RANGE = Path("/proc/sys/net/ipv4/ip_local_port_range")
_FIRST_UNPRIVILEGED_PORT = 1024


def _free_ports(count: int) -> list[int]:
    """Reserve ``count`` distinct free TCP ports by probe-binding them.

    The ports lie *below* the kernel's ephemeral range.  A port inside
    that range can be given to any new outbound connection as its local
    end while the worker that listens on it is down, and the respawned
    worker then dies with ``EADDRINUSE``.  The scan starts at a random
    port so that two drivers on one host do not probe the same ones.
    Where the range cannot be read (not Linux) or nothing below it is
    free, the kernel picks (bind-0 probe).
    """
    try:
        floor = int(_EPHEMERAL_RANGE.read_text().split()[0])
    except FileNotFoundError:
        floor = _FIRST_UNPRIVILEGED_PORT
    below = range(_FIRST_UNPRIVILEGED_PORT, floor)
    start = int.from_bytes(os.urandom(4), "big") % len(below) if below else 0
    probes: list[socket] = []
    try:
        for port in chain(below[start:], below[:start]):
            if len(probes) == count:
                break
            probe = socket()
            try:
                probe.bind((_HOST, port))
            except OSError:
                probe.close()
            else:
                probes.append(probe)
        while len(probes) < count:
            probes.append(socket())
            probes[-1].bind((_HOST, 0))
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


class WorkerDied(RuntimeError):
    """A worker exited or became unreachable outside an injected fault."""


class ProcessCluster:
    """Spawn, address, kill, restart, and reconcile worker processes."""

    def __init__(
        self,
        node_ids: Sequence[str] = ("a", "b", "c"),
        primary: str | None = None,
        probe_interval: float = 0.5,
        startup_timeout: float = 15.0,
        python: str = sys.executable,
    ) -> None:
        if len(set(node_ids)) != len(node_ids) or not node_ids:
            raise ValueError(f"node ids must be unique and non-empty: {node_ids!r}")
        self.node_ids = tuple(node_ids)
        self.primary = primary or min(self.node_ids)
        self.probe_interval = probe_interval
        self.startup_timeout = startup_timeout
        self.python = python
        self.ports = dict(zip(self.node_ids, _free_ports(len(self.node_ids))))
        self.processes: dict[str, subprocess.Popen] = {}
        try:
            for node in self.node_ids:
                self._spawn(node)
            self.wait_ready()
        except BaseException:
            # The caller has no object to close(): kill what was spawned.
            for node in self.processes:
                self.kill(node)
            raise

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, node: str) -> None:
        peers = ",".join(
            f"{peer}={_HOST}:{self.ports[peer]}"
            for peer in self.node_ids
            if peer != node
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.processes[node] = subprocess.Popen(
            [
                self.python,
                "-m",
                "repro.transport.procnode",
                "--node",
                node,
                "--port",
                str(self.ports[node]),
                "--peers",
                peers,
                "--primary",
                self.primary,
                "--probe-interval",
                str(self.probe_interval),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self, nodes: Sequence[str] | None = None) -> None:
        """Ping until every worker answers (or startup_timeout elapses)."""
        started = read_monotonic()
        pending = list(nodes if nodes is not None else self.node_ids)
        while True:
            pending = [node for node in pending if not self.ping(node)]
            if not pending:
                return
            for node in pending:
                process = self.processes[node]
                if process.poll() is not None:
                    raise WorkerDied(f"worker {node!r} exited with {process.returncode}")
            waited = read_monotonic() - started
            if waited > self.startup_timeout:
                raise TimeoutError(f"workers not ready before timeout: {pending}")
            # Ask again after 1/20 of the time already waited: a worker
            # that listens after 150 ms is noticed within 8 ms, one that
            # hangs is pinged 20 times a second as before.
            time.sleep(min(max(waited / 20, 0.002), 0.05))

    def kill(self, node: str, sig: int = signal.SIGKILL) -> None:
        """Deliver a real signal to a worker (default: uncatchable kill)."""
        process = self.processes[node]
        process.send_signal(sig)
        process.wait(timeout=10)
        frames.close_idle(_HOST, self.ports[node])

    def restart(self, node: str) -> None:
        """Respawn a previously killed worker on its original port."""
        process = self.processes[node]
        if process.poll() is None:
            raise RuntimeError(f"worker {node!r} is still running")
        # Sockets to the previous incarnation (it may have died without
        # kill()) must not outlive it.
        frames.close_idle(_HOST, self.ports[node])
        self._spawn(node)
        self.wait_ready([node])

    def close(self) -> None:
        for node, process in self.processes.items():
            if process.poll() is None:
                try:
                    self.request(node, {"kind": "shutdown"}, timeout=1.0)
                except (OSError, frames.FrameError):
                    pass
        for process in self.processes.values():
            if process.poll() is None:
                try:
                    process.wait(timeout=2)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=5)
        for port in self.ports.values():
            frames.close_idle(_HOST, port)

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------
    def request(self, node: str, payload: dict[str, Any], timeout: float = 5.0) -> dict[str, Any]:
        return frames.request(_HOST, self.ports[node], payload, timeout=timeout)

    def ping(self, node: str) -> bool:
        try:
            return bool(self.request(node, {"kind": "ping"}, timeout=0.5).get("ok"))
        except (OSError, frames.FrameError):
            return False

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def create(self, node: str, cls: str, oid: str, attrs: Mapping[str, Any]) -> dict[str, Any]:
        return self.request(
            node, {"kind": "create", "cls": cls, "oid": oid, "attrs": dict(attrs)}
        )

    def invoke(self, node: str, cls: str, oid: str, method: str, *args: Any) -> dict[str, Any]:
        return self.request(
            node,
            {"kind": "invoke", "cls": cls, "oid": oid, "method": method, "args": list(args)},
        )

    def status(self, node: str) -> dict[str, Any]:
        return self.request(node, {"kind": "status"})

    def states(self, cls: str, oid: str) -> dict[str, dict[str, Any] | None]:
        """Per-worker committed state of one object (``None`` if down)."""
        key = f"{cls}|{oid}"
        result: dict[str, dict[str, Any] | None] = {}
        for node in self.node_ids:
            try:
                dump = self.request(node, {"kind": "state-dump"})
            except (OSError, frames.FrameError):
                result[node] = None
                continue
            entry = dump["objects"].get(key)
            result[node] = entry["state"] if entry else None
        return result

    # ------------------------------------------------------------------
    # driver-coordinated reconciliation
    # ------------------------------------------------------------------
    def reconcile(
        self, additive: Mapping[str, Mapping[str, int]] | None = None
    ) -> dict[str, Any]:
        """Merge replicas across all reachable workers, then revalidate.

        ``additive`` maps ``"Cls|oid"`` to ``{field: healthy_baseline}``:
        those fields merge as baseline + Σ per-worker deltas (the §1.3
        additive ticket merge); all other fields and unlisted objects are
        last-writer-wins by replica version.
        """
        additive = dict(additive or {})
        dumps: dict[str, dict[str, Any]] = {}
        for node in self.node_ids:
            try:
                dumps[node] = self.request(node, {"kind": "state-dump"})
            except (OSError, frames.FrameError):
                continue
        if not dumps:
            raise WorkerDied("no worker reachable for reconciliation")

        # Additive deltas must come from *authoritative* copies only — the
        # designated primary plus each temporary primary.  A passive
        # replica mirrors its partition's primary via replica-updates;
        # counting it too would double every delta.
        authoritative = {
            node
            for node, dump in dumps.items()
            if node == self.primary or dump.get("temp_primary")
        } or set(dumps)

        merged: dict[str, dict[str, Any]] = {}
        for key in sorted({key for dump in dumps.values() for key in dump["objects"]}):
            replicas = [
                dump["objects"][key] for dump in dumps.values() if key in dump["objects"]
            ]
            # ... and not two copies of one lineage either: a worker that
            # gave up on a slow peer and promoted itself keeps mirroring
            # the partition's acting primary, so a copy written by another
            # counted worker's replica frame is already in that worker's
            # delta.
            holders = {node for node in authoritative if key in dumps[node]["objects"]}
            primaries = [
                dumps[node]["objects"][key]
                for node in sorted(holders)
                if dumps[node]["objects"][key].get("mirror_of") not in holders - {node}
            ] or replicas
            winner = max(replicas, key=lambda entry: entry["version"])
            state = dict(winner["state"])
            for field, baseline in additive.get(key, {}).items():
                deltas = sum(
                    replica["state"][field] - baseline
                    for replica in primaries
                    if field in replica["state"]
                )
                state[field] = baseline + deltas
            merged[key] = {
                "cls": winner["cls"],
                "oid": winner["oid"],
                "state": state,
                "version": max(entry["version"] for entry in replicas) + 1,
            }

        for node in dumps:
            self.request(node, {"kind": "state-apply", "objects": merged})

        report: dict[str, Any] = {
            "participants": sorted(dumps),
            "objects_merged": len(merged),
            "threats_reevaluated": 0,
            "satisfied_removed": 0,
            "resolved_by_handler": 0,
            "deferred": 0,
            "rebooked": [],
        }
        repaired: dict[str, dict[str, Any]] = {}
        for node in sorted(dumps):
            outcome = self.request(node, {"kind": "revalidate"}, timeout=10.0)
            for counter in (
                "threats_reevaluated",
                "satisfied_removed",
                "resolved_by_handler",
                "deferred",
            ):
                report[counter] += outcome[counter]
            report["rebooked"].extend(tuple(item) for item in outcome["rebooked"])
            for key, _count in outcome["rebooked"]:
                # The handler repaired this object on ``node``; fetch its
                # post-repair state for the final broadcast round.
                dump = self.request(node, {"kind": "state-dump"})
                entry = dump["objects"][key]
                entry = dict(entry, version=merged[key]["version"] + 1)
                repaired[key] = entry
        if repaired:
            for node in dumps:
                self.request(node, {"kind": "state-apply", "objects": repaired})
        return report
