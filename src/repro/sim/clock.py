"""Simulated clock for deterministic discrete-event execution.

The reproduction replaces the paper's wall-clock measurements on a LAN of
real machines with a simulated clock.  Every modelled action (a database
write, a multicast round trip, an interceptor traversal) *advances* the
clock by its modelled cost.  Throughput figures are then computed as
``operations / elapsed simulated seconds``, which reproduces the *relative*
shapes of the paper's measurements deterministically.
"""

from __future__ import annotations

import math

_INF = math.inf


class SimClock:
    """A monotonically advancing simulated clock.

    Time is kept in seconds as a float.  The clock only moves forward;
    attempting to move it backwards raises ``ValueError`` so that modelling
    bugs surface immediately instead of silently corrupting measurements.
    Non-finite moves (``NaN``, ``inf``) are rejected for the same reason:
    ``NaN < 0`` is false, so without the explicit check a single ``NaN``
    cost would silently poison every later timestamp.

    :attr:`now` is a plain attribute, so reading the time is one attribute
    load.  Only :meth:`advance`, :meth:`advance_to` and the charge function
    of :func:`~repro.sim.costs.charger` move it; nothing else assigns it.
    """

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ValueError(f"clock start must be finite, got {start}")
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        #: Current simulated time in seconds.
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        # One chained comparison admits exactly the finite, non-negative
        # durations: NaN fails the first half, +inf the second.
        if 0.0 <= seconds < _INF:
            self.now += seconds
            return self.now
        if not math.isfinite(seconds):
            raise ValueError(f"cannot advance clock by non-finite time: {seconds}")
        raise ValueError(f"cannot advance clock by negative time: {seconds}")

    def advance_to(self, timestamp: float) -> float:
        """Jump the clock forward to ``timestamp``.

        Jumping to the current time is a no-op; jumping backwards raises.
        """
        if not math.isfinite(timestamp):
            raise ValueError(f"cannot move clock to non-finite time: {timestamp}")
        if timestamp < self.now:
            raise ValueError(
                f"cannot move clock backwards: now={self.now}, target={timestamp}"
            )
        self.now = float(timestamp)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.6f})"


class Stopwatch:
    """Measures elapsed simulated time between ``start`` and ``stop``."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._started_at: float | None = None
        self.elapsed = 0.0

    def start(self) -> None:
        self._started_at = self._clock.now

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch was never started")
        self.elapsed = self._clock.now - self._started_at
        self._started_at = None
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
