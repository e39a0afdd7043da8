"""Timeline instruments and the boundary-crossing sampler."""

import pytest

from repro.obs import Histogram, TimelineRegistry, TimelineSampler


def test_counter_monotone():
    registry = TimelineRegistry()
    counter = registry.counter("reads")
    counter.inc()
    counter.inc(2.0)
    assert counter.value == 3.0
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_histogram_buckets_and_mean():
    hist = Histogram("lat", bounds=(10.0, 30.0))
    for value in (5.0, 10.0, 29.0, 31.0):
        hist.observe(value)
    # <=10 twice, <=30 once, overflow once.
    assert hist.counts == [2, 1, 1]
    assert hist.total == 4
    assert hist.mean == pytest.approx(75.0 / 4)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 5.0))
    with pytest.raises(ValueError):
        Histogram("dup", bounds=(5.0, 5.0))


def test_gauge_sampled_through_registry():
    registry = TimelineRegistry()
    state = {"depth": 0.0}
    series = registry.register_gauge("queue", lambda: state["depth"])
    registry.sample_all(50.0)
    state["depth"] = 3.0
    registry.sample_all(100.0)
    assert series.samples == [(50.0, 0.0), (100.0, 3.0)]


def test_registration_order_is_export_order():
    registry = TimelineRegistry()
    registry.counter("b")
    registry.register_gauge("a", lambda: 0.0)
    registry.histogram("c")
    # Gauges, then counters, then histograms — never sorted by name.
    assert [s.name for s in registry.series] == ["a", "b", "c"]
    assert registry.find("c").kind == "histogram"
    assert registry.find("nope") is None


def test_sampler_crosses_boundaries():
    registry = TimelineRegistry()
    counter = registry.counter("n")
    sampler = TimelineSampler(registry, interval=50.0)
    series = registry.series[0]

    assert sampler(10.0) == 50.0  # before the first boundary: no sample
    assert series.samples == []
    counter.inc()
    assert sampler(60.0) == 100.0  # crosses t=50
    assert series.samples == [(50.0, 1.0)]
    assert sampler(230.0) == 250.0  # crosses 100, 150, 200 in one hop
    assert [t for t, _ in series.samples] == [50.0, 100.0, 150.0, 200.0]
    sampler.finalize(231.5)
    assert series.samples[-1] == (231.5, 1.0)
    assert sampler.samples_taken == 5


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        TimelineSampler(TimelineRegistry(), interval=0.0)
