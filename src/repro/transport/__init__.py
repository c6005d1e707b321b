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

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "asyncio_backend": ("AsyncioTransport",),
    "base": ("Transport", "build_transport"),
    "sim": ("SimTransport",),
    "wallclock": ("RealScheduler", "WallClock", "read_perf_counter"),
})
