"""Unit tests for repro.sim.kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimKernel


def test_clock_starts_at_start_time():
    assert SimKernel().now == 0.0
    assert SimKernel(start_time=100.0).now == 100.0


def test_run_returns_final_time():
    k = SimKernel()
    k.call_in(7.5, lambda: None)
    assert k.run() == 7.5


def test_run_until_caps_clock():
    k = SimKernel()
    fired = []
    k.call_in(10.0, lambda: fired.append(k.now))
    assert k.run(until=5.0) == 5.0
    assert fired == []
    # The event is still queued; continuing the run fires it.
    assert k.run() == 10.0
    assert fired == [10.0]


def test_run_until_beyond_last_event_advances_clock():
    k = SimKernel()
    k.call_in(1.0, lambda: None)
    assert k.run(until=50.0) == 50.0


def test_step_on_empty_queue_raises():
    k = SimKernel()
    with pytest.raises(SimulationError):
        k.step()


def test_peek_reports_next_event_time():
    k = SimKernel()
    assert k.peek() == float("inf")
    k.call_in(3.0, lambda: None)
    k.call_in(1.0, lambda: None)
    assert k.peek() == 1.0


def test_call_in_runs_function_at_right_time():
    k = SimKernel()
    seen = []
    k.call_in(2.0, lambda: seen.append(k.now))
    k.call_at(1.0, lambda: seen.append(k.now))
    k.run()
    assert seen == [1.0, 2.0]


def test_call_at_in_the_past_rejected():
    k = SimKernel(start_time=10.0)
    with pytest.raises(SimulationError):
        k.call_at(5.0, lambda: None)


def test_max_events_guard_catches_scheduling_loops():
    k = SimKernel()

    def reschedule():
        k.call_in(0.0, reschedule)

    k.call_in(0.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        k.run(max_events=1000)


def test_run_until_in_the_past_processes_nothing():
    # The clock never moves back: an `until` behind `now` is a no-op,
    # so later timers are not scheduled behind already-processed time.
    k = SimKernel()
    fired = []
    k.call_at(5.0, lambda: fired.append(5.0))
    k.call_at(10.0, lambda: fired.append(10.0))
    assert k.run(until=6.0) == 6.0
    assert k.run(until=2.0) == 6.0
    assert k.now == 6.0 and fired == [5.0]
    k.call_in(1.0, lambda: fired.append(k.now))
    k.run()
    assert fired == [5.0, 7.0, 10.0]


def test_urgent_triggers_run_before_same_time_timeouts():
    k = SimKernel()
    order = []
    k.call_at(1.0, lambda: order.append("early-timer"))

    def at_one():
        ev = k.event()
        ev.add_callback(lambda e: order.append("urgent"))
        ev.succeed(None)

    # call_at(1.0, ...) enqueues at NORMAL priority; its urgent child
    # event still processes before later same-time NORMAL entries.
    k.call_at(1.0, at_one)
    k.call_at(1.0, lambda: order.append("late-timer"))
    k.run()
    assert order == ["early-timer", "urgent", "late-timer"]
