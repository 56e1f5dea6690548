"""Deterministic simulated transport over the discrete-event kernel.

A delivery waits for the path latency — from a
:class:`~repro.net.topology.Topology` (minimum-latency path between the
nodes the endpoints are placed on) or a uniform default — plus any
extra time the fault policy asks for, and nothing else.  *Strict wire*
mode (the default) round-trips every message through the transport's
codec so that anything that would break on the TCP transport also
breaks (loudly) in simulation.

Fault injection: a ``fault_policy(msg) -> "deliver" | "drop" |
"duplicate" | ("delay", extra)`` hook supports the failure-injection
tests and the declarative scenarios in :mod:`repro.sim.faults` — the
tuple form adds ``extra`` time units to the modelled delivery delay,
which is how scenarios express delay/reorder windows.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, Optional

from repro.errors import TransportError
from repro.net.binary_codec import resolve_codec
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transport import Completion, TimerHandle, Transport
from repro.sim.kernel import SimKernel


class SimCompletion(Completion):
    """Completion backed by a kernel event: ``then`` callbacks run when
    the kernel processes it."""

    def __init__(self, kernel: SimKernel, name: str = "") -> None:
        self._event = kernel.event(name=name or "completion")

    def resolve(self, value: Any = None) -> None:
        self._event.succeed(value)

    def fail(self, exc: BaseException) -> None:
        self._event.fail(exc)

    def then(self, callback: Callable[[Completion], None]) -> None:
        self._event.add_callback(lambda _ev: callback(self))

    @property
    def done(self) -> bool:
        return self._event.triggered

    @property
    def value(self) -> Any:
        return self._event.value


class SimTransport(Transport):
    """Routes messages through the event kernel with modelled latency."""

    def __init__(
        self,
        kernel: SimKernel,
        topology: Optional[Topology] = None,
        default_latency: float = 1.0,
        strict_wire: bool = True,
        fault_policy: Optional[Callable[[Message], str]] = None,
        codec: Any = None,
    ) -> None:
        super().__init__()
        if default_latency < 0:
            raise TransportError("default_latency must be >= 0")
        self.kernel = kernel
        self.topology = topology
        self.default_latency = default_latency
        self.strict_wire = strict_wire
        self.fault_policy = fault_policy
        # logical endpoint address -> topology node it is placed on
        self._placement: Dict[str, str] = {}
        self.set_codec(codec)

    # -- codec -------------------------------------------------------------
    @property
    def codec(self) -> Any:
        """The wire codec strict-wire mode round-trips frames through."""
        return self._codec

    def set_codec(self, codec: Any) -> None:
        """Swap the wire codec (``"json"`` | ``"binary"`` | instance).

        Both “ends” share this object, so the chosen codec simply
        applies to every strict-wire round-trip.
        """
        self._codec = resolve_codec(codec)
        # Route per-frame compression accounting into this transport's
        # counters (no-op for codecs that never compress).
        self._codec.stats = self.stats

    # -- placement ---------------------------------------------------------
    def place(self, address: str, node: str) -> None:
        """Pin a logical endpoint address onto a topology node."""
        if self.topology is None:
            raise TransportError("place() requires a topology")
        if not self.topology.has_node(node):
            raise TransportError(f"unknown topology node: {node}")
        self._placement[address] = node

    def node_of(self, address: str) -> Optional[str]:
        """Topology node an address resolves to (explicit placement wins,
        then an identically-named topology node, else None)."""
        if address in self._placement:
            return self._placement[address]
        if self.topology is not None and self.topology.has_node(address):
            return address
        return None

    def latency_between(self, src: str, dst: str) -> float:
        a, b = self.node_of(src), self.node_of(dst)
        if self.topology is None or a is None or b is None:
            return self.default_latency if src != dst else 0.0
        return self.topology.latency(a, b)

    # -- Transport API --------------------------------------------------------
    def send(self, msg: Message) -> None:
        size = None
        wire_msg = msg
        if self.strict_wire:
            t0 = perf_counter_ns()
            raw = self._codec.encode(msg)
            # Size from the returned bytes — codecs keep no per-encode
            # state, so a shared codec stays race-free.
            size = len(raw)
            self.stats.record_encode(size, perf_counter_ns() - t0)
            wire_msg = self._codec.decode(raw)
        self.stats.record(msg, size=size)
        action = self.fault_policy(msg) if self.fault_policy else "deliver"
        extra_delay = 0.0
        if isinstance(action, tuple):
            # ("delay", extra): hold the frame for extra time units on
            # top of the modelled latency (reordering it behind later
            # sends on the same link).
            if len(action) != 2 or action[0] != "delay" or action[1] < 0:
                raise TransportError(f"fault policy returned {action!r}")
            extra_delay = float(action[1])
            action = "deliver"
        if action == "drop":
            self.stats.record_drop(msg)
            return
        copies = 1
        if action == "duplicate":
            self.stats.record_duplicate(msg)
            copies = 2
        elif action != "deliver":
            raise TransportError(f"fault policy returned {action!r}")
        delay = self.latency_between(msg.src, msg.dst) + extra_delay
        for _ in range(copies):
            self.kernel.call_in(delay, lambda m=wire_msg: self._deliver(m))

    def now(self) -> float:
        return self.kernel.now

    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        state = {"cancelled": False}

        def run() -> None:
            if not state["cancelled"]:
                fn()

        self.kernel.call_in(delay, run)
        return TimerHandle(lambda: state.__setitem__("cancelled", True))

    def completion(self, name: str = "") -> SimCompletion:
        return SimCompletion(self.kernel, name)
