"""The machine-clock source for the real backends' own plumbing.

This module is the package's designated machine-clock source: replint's
DET001 exempts exactly this file, the TRN001 clock-boundary rule rejects
direct reads outside ``repro.sim``/``repro.transport``, and the
interprocedural call graph makes every other module's path to real time
run through ``read_monotonic``/``read_perf_counter`` below.

No middleware reads these.  On every backend the middleware's time is a
:class:`~repro.sim.clock.SimClock` moved by charged costs and driven by a
:class:`~repro.sim.scheduler.Scheduler`; the threaded backend shares both
with the simulator, and a process worker runs a single-node cluster on the
sim transport.  What remains here is transport plumbing — peer timeouts
and spawn waits of the process backend — and real-compute measurement.
"""

from __future__ import annotations

import time


def read_monotonic() -> float:
    """Raw monotonic seconds (transport-internal clock source)."""
    return time.monotonic()


def read_perf_counter() -> float:
    """Raw performance counter for real-compute measurements.

    The Ch. 2 approaches study and the transport benchmark measure actual
    Python execution time; they must do so through this helper so the
    clock boundary stays auditable.
    """
    return time.perf_counter()
