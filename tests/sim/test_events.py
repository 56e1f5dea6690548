"""Unit tests for repro.sim.events."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimKernel


def test_event_succeed_carries_value():
    k = SimKernel()
    ev = k.event("e")
    ev.succeed(42)
    k.run()
    assert ev.triggered and ev.processed and ev.ok
    assert ev.value == 42


def test_event_double_trigger_rejected():
    k = SimKernel()
    ev = k.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_raises():
    k = SimKernel()
    ev = k.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_propagates_exception():
    k = SimKernel()
    ev = k.event()
    ev.fail(ValueError("boom"))
    k.run()
    assert ev.triggered and not ev.ok
    with pytest.raises(ValueError, match="boom"):
        _ = ev.value


def test_fail_requires_exception_instance():
    k = SimKernel()
    ev = k.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_callback_on_already_processed_event_runs_immediately():
    k = SimKernel()
    ev = k.event()
    ev.succeed("x")
    k.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_timeout_fires_at_correct_time():
    k = SimKernel()
    times = []
    k.call_in(5.0, lambda: times.append(k.now))
    k.run()
    assert times == [5.0]


def test_negative_timeout_rejected():
    k = SimKernel()
    with pytest.raises(SimulationError):
        k.call_in(-1.0, lambda: None)


def test_timeouts_fire_in_time_order():
    k = SimKernel()
    order = []
    for d in (3.0, 1.0, 2.0):
        k.call_in(d, lambda d=d: order.append(d))
    k.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_ties_broken_by_insertion_order():
    k = SimKernel()
    order = []
    for i in range(5):
        k.call_at(1.0, lambda i=i: order.append(i))
    k.run()
    assert order == [0, 1, 2, 3, 4]
