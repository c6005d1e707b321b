"""Normalised time: what the ledger reports instead of raw wall-clock.

Host speed on a shared VM drifts by tens of percent within a minute, so
the ledger never compares raw durations.  Every measured interval is
bracketed by passes of the frozen reference kernel and reported as

    measured / mean(adjacent kernel passes) * REF_NOMINAL_US

— "microseconds at reference speed", written ``nus`` (``nms`` for
milliseconds, plain ``s`` for the normalised set-up time).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

from refkernel import REF_NOMINAL_US


def nus(seconds: float, *kernel_passes: float) -> float:
    """``seconds`` in microseconds at reference speed, given the kernel
    pass times (seconds) measured next to it."""
    return seconds / (sum(kernel_passes) / len(kernel_passes)) * REF_NOMINAL_US


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0–100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
