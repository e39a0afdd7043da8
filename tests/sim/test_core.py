"""Tests for the Environment scheduler."""

import math

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(10.0)
    env.run()
    assert env.now == 10.0


def test_run_until_time():
    env = Environment()
    env.timeout(100.0)
    env.run(until=40.0)
    assert env.now == 40.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 3.0


def test_run_empty_returns_none():
    env = Environment()
    assert env.run() is None


def test_step_empty_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == math.inf


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(5.0, "b"))
    env.process(proc(1.0, "a"))
    env.process(proc(9.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    env.run()  # processes ev
    assert env.run(until=ev) == 42


def test_run_until_never_fired_event_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="never fired"):
        env.run(until=ev)


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise ValueError("bang")

    env.process(boom())
    with pytest.raises(ValueError, match="bang"):
        env.run()


def test_nested_process_spawning():
    env = Environment()
    results = []

    def child(n):
        yield env.timeout(n)
        return n * 2

    def parent():
        a = yield env.process(child(2))
        b = yield env.process(child(3))
        results.append(a + b)

    env.process(parent())
    env.run()
    assert results == [10]
    assert env.now == 5.0


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)
        seen.append(env.active_process)

    p = env.process(proc())
    assert env.active_process is None
    env.run()
    assert seen == [p, p]
    assert env.active_process is None


# -- peek / event_count across queue backends --------------------------------
# The pluggable-scheduler refactor must keep these introspection hooks
# exact for both backends (the bench harness and run loop rely on them).

_BACKENDS = ("heap", "calendar")


@pytest.mark.parametrize("scheduler", _BACKENDS)
def test_peek_empty_is_inf_both_backends(scheduler):
    env = Environment(scheduler=scheduler)
    assert env.peek() == math.inf


@pytest.mark.parametrize("scheduler", _BACKENDS)
def test_peek_tracks_next_event_both_backends(scheduler):
    env = Environment(scheduler=scheduler)
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0
    env.step()  # pops the 3.0 timeout
    assert env.peek() == 7.0
    env.step()
    assert env.peek() == math.inf


@pytest.mark.parametrize("scheduler", _BACKENDS)
def test_peek_after_cancelled_claim(scheduler):
    # A cancelled resource claim never reaches the queue, so peek only
    # ever sees genuinely scheduled events.
    from repro.sim import Resource

    env = Environment(scheduler=scheduler)
    resource = Resource(env, capacity=1)

    def holder():
        req = resource.request()
        yield req
        yield env.timeout(10.0)
        resource.release(req)

    def quitter():
        req = resource.request()
        giveup = env.timeout(2.0)
        yield req | giveup
        if not req.triggered:
            req.cancel()

    env.process(holder())
    env.process(quitter())
    env.run(until=5.0)
    # Only the holder's 10.0 timeout remains scheduled.
    assert env.peek() == 10.0
    env.run()
    assert env.peek() == math.inf


@pytest.mark.parametrize("scheduler", _BACKENDS)
def test_peek_across_overflow_promotion(scheduler):
    # Horizons far beyond the calendar's first year live in the
    # overflow rung; peek and pop must see through it identically.
    env = Environment(scheduler=scheduler)
    env.timeout(1e6)
    env.timeout(0.5)
    assert env.peek() == 0.5
    env.step()
    assert env.peek() == 1e6  # now served from the promoted rung
    env.step()
    assert env.now == 1e6
    assert env.peek() == math.inf


@pytest.mark.parametrize("scheduler", _BACKENDS)
def test_event_count_counts_scheduled_events(scheduler):
    env = Environment(scheduler=scheduler)
    assert env.event_count == 0
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.event_count == 2
    env.run()
    # event_count is a schedule total, not a queue length.
    assert env.event_count == 2


def test_event_count_identical_across_backends():
    def run(scheduler):
        env = Environment(scheduler=scheduler)

        def ping():
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(ping())
        env.process(ping())
        env.run()
        return env.event_count

    assert run("heap") == run("calendar")


def test_clock_observer_called_once_per_due_time():
    env = Environment()
    calls = []

    def every_ten(now):
        calls.append(now)
        return (now // 10.0 + 1) * 10.0

    for t in (3.0, 10.0, 12.0, 15.0, 31.0):
        env.timeout(t)
    env.add_clock_observer(every_ten, 10.0)
    env.run()
    # Due at 10 (met exactly), then 20 (met at 31); 3, 12 and 15 pass
    # without a call.
    assert calls == [10.0, 31.0]


def test_hook_gate_tracks_attached_observers():
    env = Environment()
    assert env._hook_at == math.inf  # nothing attached

    def clock(now):
        return now + 50.0

    def spy(time, priority, sequence, event):
        pass

    env.add_clock_observer(clock, 50.0)
    assert env._hook_at == 50.0
    env.add_step_observer(spy)
    assert env._hook_at == -math.inf
    env.remove_step_observer(spy)
    assert env._hook_at == 50.0
    env.timeout(60.0)
    env.run()
    # Re-armed to the observer's next due time after it ran at t=60.
    assert env._hook_at == 110.0
