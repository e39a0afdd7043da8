"""Test-only reference model: the per-event timeline sampler.

This is the sampler as it ran before it became a clock observer, kept
verbatim apart from its name: a step observer called on *every* popped
event that samples each crossed boundary.  It is not wired into
``repro``; the differential test runs it beside the production sampler
and requires identical series.
"""

from repro.obs.timeline import TimelineRegistry


class PerEventSampler:
    """A step observer that samples the registry on sim-time boundaries.

    Attached via ``Environment.add_step_observer``; the observer signature
    is ``(time, priority, sequence, event)``.  When the popped event's
    timestamp crosses one or more sampling boundaries, each crossed
    boundary gets one sample (so quiet stretches still produce a sample
    per interval, carrying the state that held throughout).  Purely
    passive: reads state, never schedules.
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

    def __call__(
        self, time: float, priority: int, sequence: int, event: object
    ) -> None:
        while time >= self._next:
            self.registry.sample_all(self._next)
            self.samples_taken += 1
            self._next += self.interval

    def finalize(self, end_time: float) -> None:
        """Record one last sample at the run's end timestamp."""
        if end_time >= 0:
            self.registry.sample_all(end_time)
            self.samples_taken += 1
