"""Driver for a multi-process DeDiSys cluster.

Starts one :mod:`repro.transport.procnode` *template* process, has it
fork one worker per node, talks to the workers with length-prefixed
JSON frames, and coordinates
the reconciliation round the GMS coordinator would run in the full
system:

1. ``state-dump`` from every reachable worker;
2. merge replicas (:func:`merge_dumps`) — the driver picks one copy per
   lineage and hands them to the flight domain's own §1.3 handler,
   :class:`~repro.apps.flightbooking.AdditiveSoldMerge`; an object
   without a sold baseline is last-writer-wins by version;
3. ``state-apply`` the merged snapshot everywhere;
4. ``revalidate``: each worker re-checks its pending threats on merged
   state with its own CCMgr and answers with what was satisfied,
   rebooked or deferred, and with each repaired object's state, which
   is re-broadcast.

``kill(node)`` delivers a real signal (``SIGKILL`` by default) — the
degrade-then-reconcile story of the dissertation on actual processes —
and ``restart(node)`` forks the node again from the same template, which
has already imported everything a worker needs.

The driver's connections to the workers are pooled by
:func:`frames.request` and stay open between frames; ``kill``,
``restart`` and ``close`` drop the idle sockets of the nodes they touch
so no descriptor outlives the process it pointed at.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
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


class _Template:
    """The warm process a cluster's workers are forked from.

    Hides the line protocol of :func:`repro.transport.procnode.serve_template`;
    one request and its answer are on the pipes at a time.
    """

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.transport.procnode"],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._lock = threading.Lock()

    def _exchange(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request and its answer; the caller holds ``_lock``."""
        try:
            self.process.stdin.write(json.dumps(request) + "\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            pass  # the template is gone: its stdout is at EOF too
        line = self.process.stdout.readline()
        if not line:
            raise WorkerDied(f"the template process exited with {self.process.wait()}")
        return json.loads(line)

    def spawn(self, **spec: Any) -> "WorkerProcess":
        with self._lock:
            return WorkerProcess(self, self._exchange({"spawn": spec})["pid"])

    def reap(self, worker: "WorkerProcess", timeout: float | None) -> None:
        """Set ``worker.returncode`` if the worker exits within ``timeout``
        seconds (``None``: however long that takes)."""
        with self._lock:
            # Asked under the lock: the template forgets a worker once it
            # has reported it.
            if worker.returncode is None:
                answer = self._exchange({"wait": worker.pid, "timeout": timeout})
                worker.returncode = answer["returncode"]

    def close(self) -> None:
        """End the template, which kills and reaps any worker still running."""
        try:
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=5)
        self.process.stdout.close()


class WorkerProcess:
    """A forked worker, with the part of :class:`subprocess.Popen` the
    driver and its callers use."""

    def __init__(self, template: _Template, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None
        self._template = template

    def poll(self) -> int | None:
        if self.returncode is None:
            self._template.reap(self, 0.0)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        if self.returncode is None:
            self._template.reap(self, timeout)
            if self.returncode is None:
                raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        # Until the template has reported the exit, the pid is still this
        # worker's (a zombie at worst), so no other process can get it.
        if self.returncode is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass  # reported by another thread just now

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def merge_dumps(
    dumps: Mapping[str, Mapping[str, Any]], primary: str, baselines: Mapping[str, int]
) -> dict[str, dict[str, Any]]:
    """Every object of ``dumps`` (``state-dump`` answers by node) merged
    by :class:`~repro.apps.flightbooking.AdditiveSoldMerge` from one update
    record per lineage, with ``baselines`` (``"Cls|oid"`` → sold before
    the partition); the newest copy wins where it declines.  Each merged
    entry is one version past its newest copy.
    """
    # Imported here, so that importing the driver loads none of the stack.
    from ..apps.flightbooking import AdditiveSoldMerge
    from ..objects import ObjectRef
    from ..replication import ReplicaConflict, UpdateRecord

    merge = AdditiveSoldMerge({ObjectRef(*key.split("|", 1)): sold for key, sold in baselines.items()})
    # Deltas must come from *authoritative* copies only — the designated
    # primary plus each temporary primary.  A passive replica mirrors its
    # partition's primary via replica-updates; counting it too would
    # double every delta.
    authoritative = {
        node for node, dump in dumps.items() if node == primary or dump.get("temp_primary")
    } or set(dumps)
    merged: dict[str, dict[str, Any]] = {}
    for key in sorted({key for dump in dumps.values() for key in dump["objects"]}):
        copies = {node: dump["objects"][key] for node, dump in dumps.items() if key in dump["objects"]}
        # ... and not two copies of one lineage either: a worker that
        # gave up on a slow peer and promoted itself keeps mirroring the
        # partition's acting primary, so a copy written by another
        # counted worker's replica frame is already in that worker's
        # delta.
        holders = authoritative & copies.keys()
        lineages = {
            node: entry
            for node, entry in sorted(copies.items())
            if node in holders and entry.get("mirror_of") not in holders - {node}
        } or copies
        ref = ObjectRef(*key.split("|", 1))
        # A copy's version stands in for its timestamp, so the handler
        # keeps the newest lineage's other fields.
        record = merge(ReplicaConflict(ref, [
            UpdateRecord(ref, "state", frozenset({node}), node,
                         entry["version"], entry["state"], entry["version"], 0)
            for node, entry in lineages.items()
        ]))
        newest = max(copies.values(), key=lambda entry: entry["version"])
        state = newest["state"] if record is None else record.state
        version = newest["version"] + 1
        merged[key] = {"cls": ref.class_name, "oid": ref.oid, "state": state, "version": version}
    return merged


class ProcessCluster:
    """Spawn, address, kill, restart, and reconcile worker processes."""

    def __init__(
        self,
        node_ids: Sequence[str] = ("a", "b", "c"),
        primary: str | None = None,
        probe_interval: float = 0.5,
        startup_timeout: float = 15.0,
    ) -> None:
        if len(set(node_ids)) != len(node_ids) or not node_ids:
            raise ValueError(f"node ids must be unique and non-empty: {node_ids!r}")
        self.node_ids = tuple(node_ids)
        self.primary = primary or min(self.node_ids)
        self.probe_interval = probe_interval
        self.startup_timeout = startup_timeout
        self.ports = dict(zip(self.node_ids, _free_ports(len(self.node_ids))))
        self.processes: dict[str, WorkerProcess] = {}
        self._template = _Template()
        try:
            for node in self.node_ids:
                self._spawn(node)
            self.wait_ready()
        except BaseException:
            # The caller has no object to close(): end what was started.
            for node in self.processes:
                self.kill(node)
            self._template.close()
            raise

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, node: str) -> None:
        self.processes[node] = self._template.spawn(
            name=node,
            port=self.ports[node],
            peers={peer: (_HOST, self.ports[peer]) for peer in self.node_ids if peer != node},
            primary=self.primary,
            probe_interval=self.probe_interval,
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
        """Fork a previously killed worker again, on its original port."""
        process = self.processes[node]
        if process.poll() is None:
            raise RuntimeError(f"worker {node!r} is still running")
        # Sockets to the previous incarnation (it may have died without
        # kill()) must not outlive it.
        frames.close_idle(_HOST, self.ports[node])
        self._spawn(node)
        self.wait_ready([node])

    def close(self) -> None:
        """Shut every worker down and reap it, then end the template."""
        for node, process in self.processes.items():
            if process.poll() is None:
                try:
                    self.request(node, {"kind": "shutdown"}, timeout=1.0)
                except (OSError, frames.FrameError):
                    pass
        for process in self.processes.values():
            try:
                process.wait(timeout=2)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        self._template.close()
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
        entries = {node: dump["objects"].get(f"{cls}|{oid}") for node, dump in self._dumps().items()}
        return {node: (entries.get(node) or {}).get("state") for node in self.node_ids}

    def _dumps(self) -> dict[str, dict[str, Any]]:
        """The ``state-dump`` answer of every reachable worker."""
        dumps = {}
        for node in self.node_ids:
            try:
                dumps[node] = self.request(node, {"kind": "state-dump"})
            except (OSError, frames.FrameError):
                continue
        return dumps

    # ------------------------------------------------------------------
    # driver-coordinated reconciliation
    # ------------------------------------------------------------------
    def reconcile(
        self, additive: Mapping[str, Mapping[str, int]] | None = None
    ) -> dict[str, Any]:
        """Merge replicas across all reachable workers, then revalidate.

        ``additive`` maps ``"Cls|oid"`` to ``{"sold": healthy_baseline}``:
        those flights merge their sales additively (§1.3), unlisted
        objects are last-writer-wins by replica version
        (:func:`merge_dumps`).
        """
        dumps = self._dumps()
        if not dumps:
            raise WorkerDied("no worker reachable for reconciliation")
        baselines = {key: fields["sold"] for key, fields in (additive or {}).items()}
        merged = merge_dumps(dumps, self.primary, baselines)

        for node in dumps:
            self.request(node, {"kind": "state-apply", "objects": merged})

        counters = ("threats_reevaluated", "satisfied_removed", "resolved_by_handler", "deferred")
        report: dict[str, Any] = {
            "participants": sorted(dumps),
            "objects_merged": len(merged),
            **dict.fromkeys(counters, 0),
            "rebooked": [],
        }
        repaired: dict[str, dict[str, Any]] = {}
        for node in sorted(dumps):
            outcome = self.request(node, {"kind": "revalidate"}, timeout=10.0)
            for counter in counters:
                report[counter] += outcome[counter]
            report["rebooked"].extend(tuple(item) for item in outcome["rebooked"])
            # Objects the handler repaired on ``node``, for a final round.
            for key, entry in outcome["repaired"].items():
                repaired[key] = dict(entry, version=merged[key]["version"] + 1)
        if repaired:
            for node in dumps:
                self.request(node, {"kind": "state-apply", "objects": repaired})
        return report
