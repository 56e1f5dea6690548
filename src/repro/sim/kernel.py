"""The discrete-event simulation kernel (clock + event loop).

The kernel keeps a heap of ``(time, priority, seq, event)`` entries and
processes them in order, advancing a floating-point clock.  Determinism:
ties at the same instant are broken by insertion sequence, so two runs
with the same seeds replay identically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

# Priorities: URGENT events (immediate triggers) run before NORMAL events
# scheduled at the same instant, matching SimPy semantics where
# `succeed()` completions land ahead of same-time timers.
_URGENT = 0
_NORMAL = 1


class SimKernel:
    """Deterministic discrete-event loop with a floating-point clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def _enqueue_triggered(self, event: Event) -> None:
        """Queue a just-triggered event to process at the current instant."""
        heapq.heappush(self._heap, (self._now, _URGENT, next(self._seq), event))

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute time ``when``; returns the underlying event."""
        if when < self._now:
            raise SimulationError(f"call_at in the past: {when} < {self._now}")
        ev = Event(self, name=f"call_at({when})")
        ev._triggered = True
        ev.add_callback(lambda _ev: fn())
        heapq.heappush(self._heap, (when, _NORMAL, next(self._seq), ev))
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` time units."""
        return self.call_at(self._now + delay, fn)

    # -- main loop ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = when
        event._process()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulation time; the clock never moves back, so
        an ``until`` already in the past processes nothing.
        ``max_events`` guards against runaway self-scheduling loops
        (raises :class:`SimulationError`).
        """
        if until is not None and until < self._now:
            return self._now
        remaining = max_events
        while self._heap:
            when = self._heap[0][0]
            if until is not None and when > until:
                self._now = until
                return self._now
            if remaining <= 0:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a scheduling loop"
                )
            remaining -= 1
            self.step()
        if until is not None and until > self._now:
            self._now = until
        return self._now
