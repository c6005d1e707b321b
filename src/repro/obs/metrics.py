"""Labelled metrics: counters, gauges, and histograms.

The registry follows the Prometheus data model scaled down to the
simulation: an instrument is identified by name, carries free-form string
labels, and snapshots to plain JSON-able dictionaries.  Values are updated
eagerly in Python only — recording a metric never touches the simulated
clock, so an attached registry cannot perturb measured throughput.

The threaded backend's node workers and client threads share the
instruments, so each one guards its series with a lock.

Label sets are bounded per instrument (``max_series``); exceeding the
bound raises :class:`LabelCardinalityError` instead of silently growing
without limit, which is the classic observability failure mode.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable, Mapping

LabelKey = tuple[tuple[str, str], ...]

DEFAULT_MAX_SERIES = 1024


class LabelCardinalityError(RuntimeError):
    """An instrument exceeded its configured number of label sets."""

    def __init__(self, name: str, max_series: int) -> None:
        super().__init__(
            f"metric {name!r} exceeded its label cardinality bound ({max_series})"
        )
        self.name = name
        self.max_series = max_series


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical, order-independent key for a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _key_string(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Instrument:
    """Base class: a named instrument holding one series per label set."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> None:
        if not name:
            raise ValueError("instrument needs a non-empty name")
        if max_series < 1:
            raise ValueError("max_series must be at least 1")
        self.name = name
        self.help = help
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[LabelKey, object] = {}  # guarded-by: _lock

    def _slot(self, labels: Mapping[str, object]) -> LabelKey:
        """The series key for ``labels``; every caller holds ``_lock``."""
        key = label_key(labels)
        if key not in self._series and len(self._series) >= self.max_series:
            raise LabelCardinalityError(self.name, self.max_series)
        return key

    def _get(self, labels: Mapping[str, object]) -> object:
        with self._lock:
            return self._series.get(label_key(labels))

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            series = {
                _key_string(key): self._series_snapshot(value)
                for key, value in sorted(self._series.items())
            }
        return {
            "kind": self.kind,
            "help": self.help,
            "series": series,
        }

    def _series_snapshot(self, value: object) -> object:
        return value


class Counter(Instrument):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            key = self._slot(labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._get(labels) or 0.0)  # type: ignore[arg-type]

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return float(sum(self._series.values()))  # type: ignore[arg-type]


class Gauge(Instrument):
    """A value per label set that can move in both directions."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[self._slot(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        with self._lock:
            key = self._slot(labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._get(labels) or 0.0)  # type: ignore[arg-type]


class _HistogramSeries:
    __slots__ = ("bin_counts", "count", "sum")

    def __init__(self, bins: int) -> None:
        self.bin_counts = [0] * bins
        self.count = 0
        self.sum = 0.0


class Histogram(Instrument):
    """Cumulative-bucket histogram with explicit upper edges.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last edge.  An observation lands in the
    first bucket whose edge is ``>= value`` (Prometheus ``le`` semantics),
    so a value exactly on an edge counts into that edge's bucket.
    """

    kind = "histogram"

    DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help, max_series)
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(not math.isfinite(edge) for edge in edges):
            raise ValueError(f"histogram {name!r} bucket edges must be finite: {edges}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} bucket edges must be strictly increasing: {edges}"
            )
        self.edges = edges

    def observe(self, value: float, **labels: object) -> None:
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r} cannot observe {value}")
        with self._lock:
            key = self._slot(labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.edges) + 1)
            assert isinstance(series, _HistogramSeries)
            series.bin_counts[bisect.bisect_left(self.edges, value)] += 1
            series.count += 1
            series.sum += value

    def count(self, **labels: object) -> int:
        series = self._get(labels)
        return series.count if isinstance(series, _HistogramSeries) else 0

    def sum(self, **labels: object) -> float:
        series = self._get(labels)
        return series.sum if isinstance(series, _HistogramSeries) else 0.0

    def _series_snapshot(self, value: object) -> object:
        assert isinstance(value, _HistogramSeries)
        cumulative: list[int] = []
        running = 0
        for count in value.bin_counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": {
                str(edge): cumulative[index] for index, edge in enumerate(self.edges)
            },
            "count": value.count,
            "sum": value.sum,
        }


class MetricsRegistry:
    """Creates and owns instruments; idempotent by instrument name."""

    def __init__(self) -> None:
        # Two threads asking for one new name must get one instrument.
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}  # guarded-by: _lock

    def counter(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> Counter:
        return self._get_or_create(Counter, name, help, max_series=max_series)

    def gauge(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> Gauge:
        return self._get_or_create(Gauge, name, help, max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = Histogram.DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets, max_series=max_series)

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: object) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                existing = self._instruments[name] = cls(name, help, **kwargs)
        if type(existing) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {existing.kind}, "
                f"requested {cls.kind}"
            )
        return existing

    def get(self, name: str) -> Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Plain-dict snapshot of every instrument, JSON-serializable."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in instruments}


# ----------------------------------------------------------------------
# no-op variants — attached when observability is disabled
# ----------------------------------------------------------------------
class NullCounter:
    """Counter stand-in: accepts updates, records nothing."""

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


class NullGauge:
    def set(self, value: float, **labels: object) -> None:
        pass

    def add(self, amount: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0


class NullHistogram:
    def observe(self, value: float, **labels: object) -> None:
        pass

    def count(self, **labels: object) -> int:
        return 0

    def sum(self, **labels: object) -> float:
        return 0.0


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stand-in handing out shared no-op instruments."""

    def counter(self, name: str, help: str = "", **kwargs: object) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **kwargs: object) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", **kwargs: object) -> NullHistogram:
        return _NULL_HISTOGRAM

    def get(self, name: str) -> None:
        return None

    def names(self) -> tuple[str, ...]:
        return ()

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}
