"""Differential test: the clock-due sampler against the per-event one.

The production :class:`~repro.obs.timeline.TimelineSampler` is a clock
observer: the event loop calls it only on the first event at or after
its next boundary.  :class:`PerEventSampler` (``reference_sampler.py``)
is the sampler it replaced, a step observer that sees every event.  Both
ride one run here, reading the same instruments into separate series,
and every series must come out identical.

The reference is fed in one of two ways:

* ``pop`` — straight from the event queue's pop, with no step observer
  attached, so the environment's clock-due gate is exercised exactly as
  in an observed production run;
* ``step`` — registered as a real step observer, so step and clock
  observers coexist in one dispatch.

Runs with the :class:`~repro.analysis.audit.Auditor` attached cover the
same coexistence with the audit's own step observers.  Simulated cells
rarely put an event exactly on a boundary, so a bare-kernel run whose
events land on every boundary pins the at-or-after edge, and counts the
clock observer's calls.
"""

import pytest

from repro.analysis.audit import Auditor
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import ObsConfig, ObsRecorder
from repro.obs.timeline import Series, TimelineRegistry, TimelineSampler
from repro.sim.core import Environment

from .reference_sampler import PerEventSampler

_BASE = dict(
    sync_style="per-proc",
    n_nodes=4,
    n_disks=4,
    file_blocks=200,
    total_reads=200,
    compute_mean=30.0,
    seed=1,
    record_trace=False,
)

CELLS = {
    "lfp-rw-adaptive": ExperimentConfig(
        pattern="lfp-rw", policy="adaptive", **_BASE
    ),
    "grp-oracle": ExperimentConfig(pattern="grp", policy="oracle", **_BASE),
}

#: Longer than any cell's whole run: only the finalize sample is taken.
BEYOND_RUN = 1.0e9


def _mirror(live: TimelineRegistry) -> TimelineRegistry:
    """A registry over ``live``'s instruments with series of its own."""
    shadow = TimelineRegistry()
    shadow._gauges = [
        (Series(series.name, series.kind), read)
        for series, read in live._gauges
    ]
    shadow._counters = [
        (Series(series.name, series.kind), counter)
        for series, counter in live._counters
    ]
    shadow._histograms = [
        (Series(series.name, series.kind), histogram)
        for series, histogram in live._histograms
    ]
    return shadow


class _Differential:
    """The obs recorder plus a per-event reference sampler."""

    def __init__(self, interval: float, feed: str, audit: bool) -> None:
        self.recorder = ObsRecorder(ObsConfig(sample_interval=interval))
        self.auditor = Auditor() if audit else None
        self.interval = interval
        self.feed = feed
        self.reference = None
        self.shadow = None
        self.env = None

    def on_environment(self, env) -> None:
        self.env = env
        if self.auditor is not None:
            self.auditor.on_environment(env)
        self.recorder.on_environment(env)
        if self.feed == "pop":
            pop = env._pop

            def tapped():
                entry = pop()
                if self.reference is not None:
                    self.reference(*entry)
                return entry

            env._pop = tapped

    def on_wired(self, env, machine, cache) -> None:
        if self.auditor is not None:
            self.auditor.on_wired(env, machine, cache)
        self.recorder.on_wired(env, machine, cache)
        self.shadow = _mirror(self.recorder.timelines)
        self.reference = PerEventSampler(self.shadow, self.interval)
        if self.feed == "step":
            env.add_step_observer(self.reference)

    def on_apps(self, env, server, apps) -> None:
        self.recorder.on_apps(env, server, apps)


def _run(cell: str, interval: float, feed: str, audit: bool):
    diff = _Differential(interval, feed, audit)
    result = run_experiment(CELLS[cell], instrument=diff)
    data = diff.recorder.finalize(result)
    diff.reference.finalize(diff.env.now)
    return data, diff


def _assert_same_series(data, diff) -> None:
    _assert_same(data.timelines, diff.shadow)
    taken = diff.recorder._sampler.samples_taken
    assert taken == diff.reference.samples_taken


def _assert_same(registry: TimelineRegistry, shadow: TimelineRegistry):
    live = registry.series
    reference = shadow.series
    assert [s.name for s in live] == [s.name for s in reference]
    for got, want in zip(live, reference):
        assert got.samples == want.samples, f"series {got.name} diverged"


@pytest.mark.parametrize("interval", [0.5, 7.0, 50.0, 333.0, BEYOND_RUN])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_clock_due_sampler_matches_per_event_reference(cell, interval):
    data, diff = _run(cell, interval, feed="pop", audit=False)
    _assert_same_series(data, diff)
    n_samples = diff.reference.samples_taken
    if interval == BEYOND_RUN:
        assert n_samples == 1  # the finalize sample only
    else:
        assert n_samples == int(data.total_time // interval) + 1


@pytest.mark.parametrize("feed", ["pop", "step"])
@pytest.mark.parametrize("interval", [7.0, 50.0])
def test_sampler_matches_reference_beside_step_observers(interval, feed):
    data, diff = _run("lfp-rw-adaptive", interval, feed=feed, audit=True)
    assert diff.auditor.invariant_sweeps > 0
    _assert_same_series(data, diff)



class _CountingSampler(TimelineSampler):
    def __init__(self, registry, interval):
        super().__init__(registry, interval)
        self.calls = 0

    def __call__(self, time):
        self.calls += 1
        return super().__call__(time)


@pytest.mark.parametrize("feed", ["pop", "step"])
@pytest.mark.parametrize("interval", [0.5, 7.0, 50.0, 333.0])
def test_boundary_aligned_events_sample_before_their_callbacks(
    interval, feed
):
    boundaries = 20
    env = Environment()
    registry = TimelineRegistry()
    ticks = registry.counter("ticks")

    def ticker():
        # Two events per interval: one exactly on each boundary.
        while env.now < boundaries * interval:
            yield env.timeout(interval / 2)
            ticks.inc()

    env.process(ticker())
    sampler = _CountingSampler(registry, interval)
    env.add_clock_observer(sampler, sampler.interval)
    shadow = _mirror(registry)
    reference = PerEventSampler(shadow, interval)
    if feed == "step":
        env.add_step_observer(reference)
    else:
        pop = env._pop

        def tapped():
            entry = pop()
            reference(*entry)
            return entry

        env._pop = tapped
    env.run()

    _assert_same(registry, shadow)
    # Each boundary's sample holds the count from before the event on it.
    series = registry.series[0]
    assert series.samples[0] == (interval, 1.0)
    assert len(series) == boundaries
    # One call per crossed boundary, none in between.
    assert sampler.calls == boundaries
