"""The simulation environment: clock, event queue, and run loop.

Events are served in ascending ``(time, priority, sequence)`` order.  The
sequence number makes the order of simultaneous events fully
deterministic: ties are broken by scheduling order, so a given seed always
produces the identical execution — a property the experiment harness relies
on for reproducibility.

The queue discipline behind that order is a pluggable backend (see
:mod:`repro.sim.scheduler`): ``scheduler="heap"`` is the reference binary
heap, ``scheduler="calendar"`` a calendar queue with O(1) amortized
operations.  Both serve the exact same total order, so event-trace
digests are bit-identical across backends.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..analysis.invariants import InvariantViolation
from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator
from .scheduler import SCHEDULER_NAMES, AnyEventQueue, make_event_queue

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "StepObserver",
    "ClockObserver",
    "SCHEDULER_NAMES",
]

#: Signature of a step observer: ``(time, priority, sequence, event)``,
#: called for every event popped by :meth:`Environment.step` *before* its
#: callbacks run.  Observers must be read-only with respect to simulation
#: state — they exist for auditing (trace hashing, race detection), and
#: mutating state from one would itself be a source of nondeterminism.
StepObserver = Callable[[float, int, int, Event], None]

#: Signature of a clock observer: ``(time) -> next_due``, called with the
#: popped event's time, before its callbacks run, on the first event at
#: or after the observer's due time; it returns its next due time.  The
#: same read-only contract as step observers applies.  Between due times
#: a clock observer costs the event loop nothing beyond one float test.
ClockObserver = Callable[[float], float]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` when the *until* event fires."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that ends the run with the event's outcome."""
        if event.ok:
            raise cls(event.value)
        raise event.value


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (milliseconds).
    scheduler:
        Event-queue backend: ``"heap"`` (the reference binary heap) or
        ``"calendar"`` (calendar queue with overflow rung).  Both yield
        bit-identical executions; see :mod:`repro.sim.scheduler`.
    batch_timeouts:
        Enable same-instant coalescing for :meth:`batched_timeout`
        call sites (one queue entry shared by every waiter armed for
        the same instant).  Off by default: coalescing changes the
        event population, so it is an opt-in sizing knob rather than
        part of the reference semantics.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_proc",
        "_step_observers",
        "_clock_observers",
        "_clock_due",
        "_hook_at",
        "_push",
        "_pop",
        "_scheduler",
        "_batch_timeouts",
        "_shared_timeouts",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        scheduler: str = "heap",
        batch_timeouts: bool = False,
    ) -> None:
        self._now = float(initial_time)
        self._queue: AnyEventQueue = make_event_queue(scheduler, self._now)
        # Bound backend primitives, hoisted once: for the heap backend
        # these are the C heappush/heappop partials, so pluggability
        # costs the reference path nothing per event.
        self._push = self._queue.push
        self._pop = self._queue.pop
        self._scheduler = scheduler
        self._batch_timeouts = batch_timeouts
        self._shared_timeouts: Dict[float, Timeout] = {}
        self._eid = 0
        self._active_proc: Optional[Process] = None
        self._step_observers: List[StepObserver] = []
        self._clock_observers: List[ClockObserver] = []
        #: Next due time of each clock observer, index-aligned.
        self._clock_due: List[float] = []
        #: ``step`` dispatches hooks for events at or after this time:
        #: -inf with step observers attached, the earliest clock-observer
        #: due time otherwise, +inf with nothing attached.
        self._hook_at = inf

    # -- introspection --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Name of the event-queue backend this environment runs on."""
        return self._scheduler

    @property
    def batch_timeouts(self) -> bool:
        """Whether :meth:`batched_timeout` coalesces same-instant arms."""
        return self._batch_timeouts

    @property
    def event_count(self) -> int:
        """Events scheduled so far (the benchmark harness's event total)."""
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue.peek_time()

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ms."""
        return Timeout(self, delay, value)

    def batched_timeout(self, delay: float) -> Timeout:
        """A value-less timeout that may share its queue entry.

        With ``batch_timeouts`` enabled, every call armed for the same
        absolute instant (while the first is still pending) returns one
        shared :class:`Timeout` — waiters pile their callbacks onto a
        single queue entry, so N same-instant arms cost one scheduler
        operation instead of N.  Used on fixed-cost paths (disk service
        times, cache metadata operations) where many nodes arm
        identical delays in the same step.  With batching disabled
        (the default) this is exactly :meth:`timeout`.
        """
        if not self._batch_timeouts:
            return Timeout(self, delay)
        at = self._now + delay
        shared = self._shared_timeouts
        hit = shared.get(at)
        if hit is not None and hit.callbacks is not None:
            return hit
        timeout = Timeout(self, delay)
        shared[at] = timeout
        if len(shared) > 256:
            # Drop fired entries (time only advances, so stale keys can
            # never be armed again); insertion order is preserved.
            self._shared_timeouts = {
                t: ev
                for t, ev in shared.items()
                if ev.callbacks is not None
            }
        return timeout

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- instrumentation ------------------------------------------------------

    def add_step_observer(self, observer: StepObserver) -> None:
        """Register an auditing hook called on every processed event.

        Observers receive ``(time, priority, sequence, event)`` exactly as
        popped from the queue — the full deterministic ordering key plus
        the event itself — and must not mutate simulation state.
        """
        self._step_observers.append(observer)
        self._rearm()

    def remove_step_observer(self, observer: StepObserver) -> None:
        """Unregister a previously added step observer."""
        self._step_observers.remove(observer)
        self._rearm()

    def add_clock_observer(self, observer: ClockObserver, at: float) -> None:
        """Register a hook called once the clock reaches ``at``.

        ``observer(time)`` runs on the first event popped at or after
        ``at``, before that event's callbacks, and returns the next due
        time.  A periodic sampler thus costs one call per period rather
        than one per event.  Observers must not mutate simulation state.
        """
        self._clock_observers.append(observer)
        self._clock_due.append(at)
        self._rearm()

    def _rearm(self) -> None:
        if self._step_observers:
            self._hook_at = -inf
        else:
            self._hook_at = min(self._clock_due, default=inf)

    def _run_hooks(
        self, now: float, priority: int, sequence: int, event: Event
    ) -> None:
        for observer in self._step_observers:
            observer(now, priority, sequence, event)
        if self._clock_observers:
            due = self._clock_due
            for i, observer in enumerate(self._clock_observers):
                if now >= due[i]:
                    due[i] = observer(now)
            if not self._step_observers:
                self._hook_at = min(due)

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Enqueue ``event`` to be processed after ``delay`` ms."""
        self._eid += 1
        self._push((self._now + delay, priority, self._eid, event))

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If the queue is empty.
        """
        try:
            now, priority, sequence, event = self._pop()
        except IndexError:
            raise EmptySchedule() from None
        self._now = now

        if now >= self._hook_at:
            self._run_hooks(now, priority, sequence, event)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise InvariantViolation(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure that nothing handled: crash the simulation loudly.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(repr(exc))  # pragma: no cover - defensive

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed, returning its value.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(
                    f"until={at} must lie in the future (now={self._now})"
                )
            until = Timeout(self, at - self._now)
            # Bare timeouts are always "ok"; hitting it ends the run with
            # value None.
            until._value = None

        if until is not None:
            if until.callbacks is None:
                # Already processed.
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(StopSimulation.callback)

        # The run loop is the hottest code in the system: every simulated
        # event passes through it.  Hoisting the bound method avoids a
        # per-event attribute lookup without changing behaviour.
        step = self.step
        try:
            while True:
                step()
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if until is not None and until._value is PENDING:
                raise RuntimeError(
                    f"no events scheduled but {until!r} never fired"
                ) from None
            return None
