"""Event primitive for the simulation kernel.

An :class:`Event` is a one-shot occurrence: once triggered it carries a
value (or an exception), and the kernel runs its callbacks when it is
processed.  Timers are events the kernel pre-triggers and schedules
(:meth:`~repro.sim.kernel.SimKernel.call_at`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import SimKernel

_event_ids = itertools.count()


class Event:
    """A one-shot occurrence that callbacks can wait on.

    Events move through three states: *pending* (created), *triggered*
    (scheduled to fire at the current instant), and *processed* (all
    callbacks run).
    """

    def __init__(self, kernel: "SimKernel", name: str = "") -> None:
        self.kernel = kernel
        self.eid = next(_event_ids)
        self.name = name or f"event-{self.eid}"
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        # Callbacks receive the event itself.
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have all run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event triggered with a value, not an exception."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event carried; raises if it failed."""
        if not self._triggered:
            raise SimulationError(f"{self.name}: value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` at the current sim time."""
        if self._triggered:
            raise SimulationError(f"{self.name} already triggered")
        self._triggered = True
        self._value = value
        self.kernel._enqueue_triggered(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError(f"{self.name} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"{self.name}: fail() needs an exception")
        self._triggered = True
        self._exception = exc
        self.kernel._enqueue_triggered(self)
        return self

    def _process(self) -> None:
        """Run all callbacks (kernel-internal)."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` once the event is processed.

        If the event already fired, the callback runs immediately — this
        keeps "wait on an already-done event" race-free.
        """
        if self._processed:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered" if self._triggered else "pending"
        )
        return f"<Event {self.name} {state}>"
