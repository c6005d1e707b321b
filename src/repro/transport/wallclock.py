"""Wall-clock time sources for the real backends.

This module is the package's designated machine-clock source: replint's
DET001 exempts exactly this file, the TRN001 clock-boundary rule rejects
direct reads outside ``repro.sim``/``repro.transport``, and the
interprocedural call graph makes every other module's path to real time
run through ``read_monotonic``/``read_perf_counter`` below.  Everything
else reaches time through the transport's ``clock`` and ``scheduler``,
which is exactly what makes the same middleware stack runnable on both
substrates.

:class:`WallClock` mirrors the :class:`~repro.sim.clock.SimClock` surface.
The crucial difference: ``advance`` is how the simulator *moves* time when
a modelled cost is charged, but nothing can move a wall clock — so cost
charges degrade to bookkeeping no-ops and ``now`` simply reads elapsed
monotonic seconds since the transport started.  Simulated-cost figures
(ops per *simulated* second) are therefore only meaningful on the sim
backend; the real backend measures ops per *wall* second instead.

:class:`RealScheduler` mirrors the :class:`~repro.sim.scheduler.Scheduler`
surface with a single daemon timer thread draining a heap of due events —
failure-detector heartbeats and adaptation ticks become real timers.
Events fire sequentially on that thread (one at a time, like the sim),
but *interleaved in wall time* with business transactions running on
client threads — which is precisely the concurrency the sim cannot give.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from typing import Any, Callable

from ..sim.clock import rejected_advance
from ..sim.scheduler import Event


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


class WallClock:
    """Monotonic wall clock with the SimClock surface.

    ``now`` is seconds since construction.  ``advance``/``advance_to``
    accept the simulator's cost charges but cannot move real time; they
    validate their argument (so modelling bugs still surface) and return
    the current time.
    """

    def __init__(self) -> None:
        self._origin = read_monotonic()

    @property
    def now(self) -> float:
        """Elapsed wall-clock seconds since the transport started."""
        return read_monotonic() - self._origin

    def advance(self, seconds: float) -> float:
        if 0.0 <= seconds < math.inf:
            return self.now
        raise rejected_advance(seconds)

    def advance_to(self, timestamp: float) -> float:
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now:.6f})"


class RealScheduler:
    """Wall-clock timer wheel with the sim Scheduler's surface.

    Events are :class:`~repro.sim.scheduler.Event` instances (cancel works
    the same way) fired by one daemon thread in timestamp order.  There
    are no ordering-policy choice points: schedule exploration is a sim
    backend capability.
    """

    def __init__(self, clock: WallClock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._heap: list[tuple[float, int, Event]] = []  # guarded-by: _cond
        self._counter = itertools.count()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond
        #: Exceptions raised by timer callbacks (the thread must survive
        #: a failing heartbeat); tests assert this stays empty.
        self.errors: list[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-transport-timer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Scheduler surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._cond:
            return sum(1 for _, _, event in self._heap if not event.cancelled)

    def set_ordering_policy(self, policy: Any) -> None:
        if policy is not None:
            raise RuntimeError(
                "schedule exploration (ordering policies) requires the "
                "deterministic sim backend"
            )

    def schedule_at(
        self,
        timestamp: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        if timestamp < self.clock.now:
            # Real time may have slipped past the caller's target between
            # computing it and scheduling; fire as soon as possible rather
            # than refusing (the sim's hard error would be a race here).
            timestamp = self.clock.now
        event = Event(callback, args, timestamp, label)
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            heapq.heappush(self._heap, (timestamp, next(self._counter), event))
            self._cond.notify_all()
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now + delay, callback, *args, label=label)

    def run_until(self, timestamp: float) -> int:
        """Sleep until wall time reaches ``timestamp``; timers fire on
        their own thread meanwhile.  Returns 0 (the fired count is not
        observable from the caller's thread)."""
        delay = timestamp - self.clock.now
        if delay > 0:
            time.sleep(delay)
        return 0

    def drain(self, max_events: int = 1_000_000) -> int:
        """Wait until no *due* event remains (real-time quiesce).

        Future-dated self-rescheduling timers (heartbeats) never leave the
        queue, so unlike the simulator this cannot fast-forward to them —
        it only waits out the backlog that is already due.
        """
        while True:
            with self._cond:
                due = [
                    item
                    for item in self._heap
                    if not item[2].cancelled and item[0] <= self.clock.now
                ]
            if not due:
                return 0
            time.sleep(0.001)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # timer thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        return
                    while self._heap and self._heap[0][2].cancelled:
                        heapq.heappop(self._heap)
                    if not self._heap:
                        self._cond.wait()
                        continue
                    due_in = self._heap[0][0] - self.clock.now
                    if due_in <= 0:
                        _, _, event = heapq.heappop(self._heap)
                        break
                    self._cond.wait(timeout=due_in)
            try:
                event.fire()
            except BaseException as exc:  # noqa: BLE001 - keep the thread alive
                self.errors.append(exc)
