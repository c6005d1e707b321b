"""Pluggable execution substrates for the DeDiSys middleware stack.

The identical CCMgr/replication/reconciliation stack runs on two
backends behind the :class:`Transport` seam:

* ``"sim"`` — the historical deterministic discrete-event simulator
  (byte-identical traces, model checking, golden references);
* ``"asyncio"`` — an in-process wall-clock backend where each node is a
  pool of worker threads fed by a FIFO mailbox and heartbeats/adaptation
  ticks are real timers (the name is kept; there is no event loop).

``repro.transport.procnode`` additionally runs one node per **OS
process** speaking length-prefixed JSON frames over local TCP sockets —
the 3-process flight-booking demo that survives a ``kill -9``
(``repro.transport.proccluster``, ``examples/process_cluster_demo.py``).

See ``docs/TRANSPORT.md`` for the interface contract and the determinism
boundary.
"""

from .base import Transport, build_transport
from .sim import SimTransport
from .wallclock import RealScheduler, WallClock, read_perf_counter

__all__ = [
    "AsyncioTransport",
    "RealScheduler",
    "SimTransport",
    "Transport",
    "WallClock",
    "build_transport",
    "read_perf_counter",
]


def __getattr__(name: str):  # lazy: keep the threaded backend out of sim-only runs
    if name == "AsyncioTransport":
        from .asyncio_backend import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
