"""Additional edge coverage for the simulation kernel primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimKernel


def test_event_name_in_error_messages():
    k = SimKernel()
    ev = k.event("my-special-event")
    with pytest.raises(SimulationError, match="my-special-event"):
        _ = ev.value


def test_run_empty_kernel_is_noop():
    k = SimKernel()
    assert k.run() == 0.0
    assert k.run(until=10.0) == 10.0
