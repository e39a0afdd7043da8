"""Sim-time span records: the observability layer's trace primitive.

A :class:`Span` is one named interval of simulated time on a *track* — a
``(kind, id)`` pair such as ``("node", 3)``, ``("disk", 0)``, or
``("daemon", 7)``.  Tracks map one-to-one onto Perfetto threads, so every
node, disk, and daemon renders as its own swim lane.

:class:`SpanLog` collects spans two ways:

* :meth:`SpanLog.add` — a completed interval whose start and end are both
  known (how the passive completion observers record: a demand read's
  latency, a disk request's queue/service phases, a daemon action);
* :meth:`SpanLog.begin` / :meth:`SpanLog.end` — live open/close bracketing
  with strict LIFO nesting and per-track time monotonicity, for
  instrumentation that traces as it goes.

Both paths validate that time never runs backwards within a track and
that every span has non-negative duration; violations raise
:class:`ObsError` immediately rather than producing a silently garbled
trace.  The log itself is purely passive — appending to it can never
schedule an event, draw randomness, or otherwise perturb a simulation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ObsError", "Span", "SpanLog", "Track"]

#: A track names one swim lane: ``(kind, id)``, e.g. ``("disk", 2)``.
Track = Tuple[str, int]


class ObsError(RuntimeError):
    """An observability-layer usage error (bad nesting, time reversal)."""


@dataclass
class Span:
    """One named interval of simulated time on a track."""

    track: Track
    name: str
    #: Category, e.g. ``read:ready``, ``disk:service``, ``wait:sync``.
    cat: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _OpenSpan:
    name: str
    cat: str
    start: float
    args: Dict[str, Any]


class SpanLog:
    """An append-only collection of spans with nesting validation.

    Spans are stored column-wise — parallel lists of tracks, names,
    categories and args (``None`` when empty) plus ``array('d')`` start
    and end times — so a long run keeps no garbage-collector-tracked
    object per span.  :class:`Span` objects are built only when spans
    are read, in recording order.
    """

    def __init__(self) -> None:
        self._tracks: List[Track] = []
        self._names: List[str] = []
        self._cats: List[str] = []
        self._args: List[Optional[Dict[str, Any]]] = []
        self._starts = array("d")
        self._ends = array("d")
        #: Per-track stack of spans opened via :meth:`begin`.
        self._open: Dict[Track, List[_OpenSpan]] = {}
        #: Per-track high-water mark of begin/end timestamps.
        self._clock: Dict[Track, float] = {}

    def __len__(self) -> int:
        return len(self._starts)

    # -- completed-interval path ---------------------------------------------

    def add(
        self,
        track: Track,
        name: str,
        cat: str,
        start: float,
        end: float,
        **args: Any,
    ) -> None:
        """Record a completed span (both endpoints already known)."""
        if end < start:
            raise ObsError(
                f"span {name!r} on {track} ends at {end} before its "
                f"start {start}"
            )
        self._tracks.append(track)
        self._names.append(name)
        self._cats.append(cat)
        self._args.append(args or None)
        self._starts.append(start)
        self._ends.append(end)

    # -- live open/close path ------------------------------------------------

    def begin(
        self, track: Track, name: str, cat: str, ts: float, **args: Any
    ) -> None:
        """Open a span on ``track`` at sim time ``ts`` (LIFO nesting)."""
        self._advance(track, ts, f"begin of {name!r}")
        self._open.setdefault(track, []).append(
            _OpenSpan(name=name, cat=cat, start=ts, args=args)
        )

    def end(self, track: Track, ts: float, **extra_args: Any) -> Span:
        """Close the innermost open span on ``track`` at sim time ``ts``."""
        stack = self._open.get(track)
        if not stack:
            raise ObsError(f"end with no open span on track {track}")
        self._advance(track, ts, "end")
        open_span = stack.pop()
        open_span.args.update(extra_args)
        self.add(
            track,
            open_span.name,
            open_span.cat,
            open_span.start,
            ts,
            **open_span.args,
        )
        return self._span(len(self) - 1)

    def open_depth(self, track: Track) -> int:
        """How many spans are currently open on ``track``."""
        return len(self._open.get(track, ()))

    def check_closed(self) -> None:
        """Raise :class:`ObsError` if any track still has open spans."""
        dangling = sorted(
            (track, len(stack))
            for track, stack in self._open.items()
            if stack
        )
        if dangling:
            raise ObsError(f"open spans left on tracks: {dangling}")

    def _advance(self, track: Track, ts: float, what: str) -> None:
        last = self._clock.get(track, 0.0)
        if ts < last:
            raise ObsError(
                f"{what} on track {track} at t={ts} runs backwards "
                f"(track clock already at t={last})"
            )
        self._clock[track] = ts

    # -- queries ---------------------------------------------------------------

    def _span(self, i: int) -> Span:
        args = self._args[i]
        return Span(
            track=self._tracks[i],
            name=self._names[i],
            cat=self._cats[i],
            start=self._starts[i],
            end=self._ends[i],
            args={} if args is None else args,
        )

    @property
    def spans(self) -> List[Span]:
        """Every span, in recording order (built on each read)."""
        return [self._span(i) for i in range(len(self))]

    def tracks(self) -> List[Track]:
        """Every track that holds at least one span, sorted."""
        return sorted(set(self._tracks))

    def by_track(self, track: Track) -> List[Span]:
        """Spans on one track, in insertion order."""
        return [
            self._span(i)
            for i, held in enumerate(self._tracks)
            if held == track
        ]
