"""Span log: lifecycle, nesting, monotonicity, and error paths."""

import pytest

from repro.obs import ObsError, SpanLog

TRACK = ("node", 0)


def test_add_records_a_closed_span():
    log = SpanLog()
    log.add(TRACK, "read", "read:ready", 1.0, 3.5, block=7)
    (span,) = log.spans
    assert (span.start, span.end, span.duration) == (1.0, 3.5, 2.5)
    assert span.args == {"block": 7}
    assert log.spans == [span]


def test_begin_end_nest_lifo_per_track():
    log = SpanLog()
    log.begin(TRACK, "outer", "cat", 0.0)
    log.begin(TRACK, "inner", "cat", 1.0)
    assert log.open_depth(TRACK) == 2
    inner = log.end(TRACK, 2.0)
    outer = log.end(TRACK, 3.0)
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.start == 1.0 and outer.end == 3.0
    assert log.open_depth(TRACK) == 0
    log.check_closed()  # no open spans left


def test_tracks_are_independent():
    log = SpanLog()
    log.begin(("node", 0), "a", "cat", 0.0)
    log.begin(("disk", 1), "b", "cat", 0.5)
    log.end(("node", 0), 1.0)
    assert log.open_depth(("disk", 1)) == 1
    with pytest.raises(ObsError):
        log.check_closed()


def test_end_without_begin_raises():
    log = SpanLog()
    with pytest.raises(ObsError):
        log.end(TRACK, 1.0)


def test_negative_duration_raises():
    log = SpanLog()
    with pytest.raises(ObsError):
        log.add(TRACK, "bad", "cat", 5.0, 4.0)


def test_time_reversal_within_a_track_raises():
    log = SpanLog()
    log.begin(TRACK, "first", "cat", 0.0)
    log.end(TRACK, 10.0)
    with pytest.raises(ObsError):
        log.begin(TRACK, "earlier", "cat", 5.0)


def test_sim_time_monotone_per_track_allows_other_tracks_behind():
    # Per-track clocks: a disk track may lag a node track.
    log = SpanLog()
    log.begin(("node", 0), "a", "cat", 0.0)
    log.end(("node", 0), 100.0)
    log.begin(("disk", 0), "b", "cat", 10.0)
    log.end(("disk", 0), 20.0)
    assert len(log.spans) == 2


def test_add_is_retroactive_and_skips_the_track_clock():
    # Completion observers record spans after the fact (start = now -
    # latency), and finalize() adds idle spans for the whole run last —
    # so add() must accept starts behind previously recorded ends.
    log = SpanLog()
    log.add(TRACK, "late", "cat", 50.0, 60.0)
    log.add(TRACK, "early", "cat", 0.0, 10.0)
    assert [s.name for s in log.by_track(TRACK)] == ["late", "early"]


def test_tracks_listing_is_sorted():
    log = SpanLog()
    log.add(("node", 1), "a", "cat", 0.0, 1.0)
    log.add(("disk", 0), "b", "cat", 0.0, 1.0)
    log.add(("node", 0), "c", "cat", 0.0, 1.0)
    assert log.tracks() == [("disk", 0), ("node", 0), ("node", 1)]
    assert [s.name for s in log.by_track(("node", 0))] == ["c"]
