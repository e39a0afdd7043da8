"""Metric timelines: counters, gauges, and histograms over sim time.

A :class:`TimelineRegistry` holds named instruments; a
:class:`TimelineSampler` rides the simulation's *clock-observer* hook and
snapshots every instrument each time the event clock crosses a sampling
boundary.  The event loop calls it only on the first event at or after
its next boundary, so sampling costs one call per interval, not one per
event — and it never schedules events, so an instrumented run executes
the exact same event schedule as a bare one (the determinism tests prove
the event-trace hashes are bit-identical).

Instruments:

* **gauge** — a zero-argument callable read at each sample point
  (cache occupancy, per-disk queue depth, per-node CPU busy flag);
* **counter** — a monotone accumulator bumped by passive observers
  (reads completed, prefetch actions); its cumulative value is sampled;
* **histogram** — fixed bucket bounds; observations update cumulative
  bucket counts and its total count is sampled as a series.

Samples are recorded at the *boundary* timestamp (``k * interval``) with
the value the instrument holds when the first event at-or-after that
boundary is popped — i.e. the state that held across the quiet gap.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "Series",
    "TimelineRegistry",
    "TimelineSampler",
]

#: Default histogram bucket upper bounds (ms), chosen around the paper's
#: 30 ms disk access time.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0, 200.0, 500.0,
)


class Series:
    """One sampled timeline: ``(sim_time, value)`` pairs, in time order."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        #: ``gauge`` | ``counter`` | ``histogram``.
        self.kind = kind
        self.samples: List[Tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.samples.append((t, float(value)))

    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def __len__(self) -> int:
        return len(self.samples)


class Counter:
    """A monotone accumulator bumped by passive observers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name}: negative delta {delta}")
        self.value += delta


class Histogram:
    """Cumulative bucket counts over fixed upper bounds (plus overflow)."""

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        ordered = tuple(bounds)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(
            ordered
        ):
            raise ValueError(
                f"histogram {name}: bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = ordered
        #: One count per bound, plus a final overflow bucket.
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class TimelineRegistry:
    """Named instruments plus the series their samples accumulate into.

    Registration order is the export order, so reports are deterministic
    without any sorting of names.
    """

    def __init__(self) -> None:
        self._gauges: List[Tuple[Series, Callable[[], float]]] = []
        self._counters: List[Tuple[Series, Counter]] = []
        self._histograms: List[Tuple[Series, Histogram]] = []

    # -- registration ---------------------------------------------------------

    def register_gauge(self, name: str, read: Callable[[], float]) -> Series:
        """Sample ``read()`` at every boundary under ``name``."""
        series = Series(name, "gauge")
        self._gauges.append((series, read))
        return series

    def counter(self, name: str) -> Counter:
        """A new counter whose cumulative value is sampled as a series."""
        counter = Counter(name)
        self._counters.append((Series(name, "counter"), counter))
        return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """A new histogram; its total observation count is sampled."""
        histogram = Histogram(name, bounds)
        self._histograms.append((Series(name, "histogram"), histogram))
        return histogram

    # -- sampling -------------------------------------------------------------

    def sample_all(self, t: float) -> None:
        """Snapshot every instrument at boundary timestamp ``t``."""
        for series, read in self._gauges:
            series.record(t, read())
        for series, counter in self._counters:
            series.record(t, counter.value)
        for series, histogram in self._histograms:
            series.record(t, float(histogram.total))

    # -- queries --------------------------------------------------------------

    @property
    def series(self) -> List[Series]:
        """Every series, in registration order (gauges, counters, hists)."""
        out = [series for series, _ in self._gauges]
        out.extend(series for series, _ in self._counters)
        out.extend(series for series, _ in self._histograms)
        return out

    @property
    def histograms(self) -> List[Histogram]:
        return [histogram for _, histogram in self._histograms]

    def find(self, name: str) -> Optional[Series]:
        for series in self.series:
            if series.name == name:
                return series
        return None


class TimelineSampler:
    """A clock observer that samples the registry on sim-time boundaries.

    Attached via ``Environment.add_clock_observer(sampler,
    sampler.interval)``; the event loop calls ``sampler(time)`` with the
    first popped event's time at or after the next boundary, and the
    sampler returns its new next boundary.  Each crossed boundary gets
    one sample (so quiet stretches still produce a sample per interval,
    carrying the state that held throughout).  Purely passive: reads
    state, never schedules.
    """

    def __init__(
        self, registry: TimelineRegistry, interval: float = 50.0
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval {interval} must be positive")
        self.registry = registry
        self.interval = interval
        self._next = interval
        self.samples_taken = 0

    def __call__(self, time: float) -> float:
        while time >= self._next:
            self.registry.sample_all(self._next)
            self.samples_taken += 1
            self._next += self.interval
        return self._next

    def finalize(self, end_time: float) -> None:
        """Record one last sample at the run's end timestamp."""
        if end_time >= 0:
            self.registry.sample_all(end_time)
            self.samples_taken += 1
