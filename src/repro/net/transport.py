"""Transport abstraction shared by the simulated and socket backends.

Protocol engines (directory manager, cache managers, baselines) are
written against this interface only, so the same engine code runs
deterministically in simulation and over real sockets.  The interface
deliberately mirrors what the paper's Java/RMI runtime offered:
message delivery, a clock, timers (for quality triggers), and a way to
wait for a reply.

A :class:`Completion` is the cross-backend future: in simulation it
wraps a kernel event, on aio a done flag.  View scripts
(:func:`repro.core.system.run_view_script`) step on completion callbacks
(:meth:`Completion.then`) and transport timers (:meth:`Transport.schedule`);
on aio, on the loop thread.  A thread outside the loop may block on
``comp.wait()``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional

from repro.errors import TransportError
from repro.net.message import BATCH, Message, split_batch
from repro.net.stats import MessageStats

MessageHandler = Callable[[Message], None]


class Completion(abc.ABC):
    """A one-shot future: callbacks on every backend, ``wait()`` on aio."""

    @abc.abstractmethod
    def resolve(self, value: Any = None) -> None:
        """Complete successfully with ``value``."""

    @abc.abstractmethod
    def fail(self, exc: BaseException) -> None:
        """Complete with an error."""

    @abc.abstractmethod
    def then(self, callback: Callable[["Completion"], None]) -> None:
        """Invoke ``callback(self)`` once done (immediately if already)."""

    @property
    @abc.abstractmethod
    def done(self) -> bool: ...

    @property
    @abc.abstractmethod
    def value(self) -> Any:
        """The result; raises the failure exception if failed."""

    # Backend-specific waiting -----------------------------------------
    def wait(self, timeout: Optional[float] = None) -> Any:  # pragma: no cover
        raise TransportError(f"{type(self).__name__} cannot block a thread")


class TimerHandle:
    """Cancellable handle for a scheduled timer callback."""

    def __init__(self, cancel_fn: Callable[[], None]) -> None:
        self._cancel_fn = cancel_fn
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel_fn()


def _closed_handler(msg: Message) -> None:
    """A closed endpoint's handler: a late delivery does nothing."""


class Endpoint:
    """A named attachment point on a transport.

    Incoming messages addressed to ``address`` are dispatched to the
    ``handler`` callback.  ``send`` routes through the owning transport.
    Closing drops the handler: it is usually a bound method of the
    endpoint's owner, which holds the endpoint, and that cycle would
    keep a closed owner alive until the cyclic collector ran.
    """

    def __init__(self, transport: "Transport", address: str, handler: MessageHandler):
        self.transport = transport
        self.address = address
        self.handler = handler
        self.closed = False

    def send(self, msg: Message) -> None:
        if self.closed:
            raise TransportError(f"endpoint {self.address} is closed")
        if msg.src != self.address:
            raise TransportError(
                f"endpoint {self.address} cannot send as {msg.src}"
            )
        self.transport.send(msg)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.handler = _closed_handler
            self.transport._unbind(self.address)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.address} on {type(self.transport).__name__}>"


class Transport(abc.ABC):
    """Message routing + clock + timers + completion factory."""

    def __init__(self) -> None:
        self.stats = MessageStats()
        self._endpoints: Dict[str, Endpoint] = {}

    # -- endpoints -------------------------------------------------------
    def bind(self, address: str, handler: MessageHandler) -> Endpoint:
        """Attach a handler under ``address``; returns the endpoint."""
        if address in self._endpoints:
            raise TransportError(f"address already bound: {address}")
        ep = Endpoint(self, address, handler)
        self._endpoints[address] = ep
        self._on_bind(ep)
        return ep

    def _unbind(self, address: str) -> None:
        ep = self._endpoints.pop(address, None)
        if ep is not None:
            self._on_unbind(ep)

    @property
    def reliable(self) -> bool:
        """Whether every message this transport accepts reaches its bound
        destination exactly once, in send order: the guarantee the
        paper's FSMs assume (§4.2).  A fact of the class, never an
        option: a backend that can lose or duplicate says False (the
        default, and the simulator's, which injects both), one that
        cannot says True, and a transport stacked on another (``inner``)
        says what its inner one does."""
        inner = getattr(self, "inner", None)
        return inner is not None and inner.reliable

    def endpoints(self) -> List[str]:
        return list(self._endpoints)

    def is_bound(self, address: str) -> bool:
        return address in self._endpoints

    # Backend hooks (optional overrides) --------------------------------
    def _on_bind(self, ep: Endpoint) -> None: ...

    def _on_unbind(self, ep: Endpoint) -> None: ...

    # -- local hand-off -----------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        """Hand one arrived message to its endpoint's handler.

        A BATCH is split here (recursively), so protocol handlers never
        see one.  A message whose endpoint has vanished (e.g. a view
        killed) is lost and recorded as a drop, as a refused connection
        would be on a socket.
        """
        if msg.msg_type == BATCH:
            for sub in split_batch(msg):
                self._deliver(sub)
            return
        ep = self._endpoints.get(msg.dst)
        if ep is None or ep.closed:
            self.stats.record_drop(msg)
            return
        self._invoke(ep, msg)

    def _invoke(self, ep: Endpoint, msg: Message) -> None:
        """Run the handler; a backend overrides this only to fence it."""
        ep.handler(msg)

    # -- abstract services ------------------------------------------------
    @abc.abstractmethod
    def send(self, msg: Message) -> None:
        """Route ``msg`` to its destination endpoint (async delivery)."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in transport time units."""

    @abc.abstractmethod
    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn()`` after ``delay`` time units; cancellable."""

    @abc.abstractmethod
    def completion(self, name: str = "") -> Completion:
        """New unresolved completion bound to this backend."""

    def close(self) -> None:
        """Release backend resources (sockets, threads)."""
        for addr in list(self._endpoints):
            self._endpoints[addr].close()


class LayeredTransport(Transport):
    """A transport stacked on another (``inner``): the clock, timers,
    completions, topology placement, codec selection and delivery
    guarantee (:attr:`Transport.reliable`) are the inner backend's, so
    the same engine code runs on the stack as on the backend alone.
    ``inner`` is also how tools walk a stack down."""

    def __init__(self, inner: Transport) -> None:
        super().__init__()
        self.inner = inner

    def now(self) -> float:
        return self.inner.now()

    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        return self.inner.schedule(delay, fn)

    def completion(self, name: str = "") -> Completion:
        return self.inner.completion(name)

    def node_of(self, address: str) -> Optional[str]:
        """Topology placement passthrough (round coalescing support)."""
        fn = getattr(self.inner, "node_of", None)
        return fn(address) if fn is not None else None

    def place(self, address: str, node: str) -> None:
        fn = getattr(self.inner, "place", None)
        if fn is None:
            raise TransportError(f"{type(self.inner).__name__} has no placement")
        fn(address, node)

    def set_codec(self, codec: Any) -> None:
        fn = getattr(self.inner, "set_codec", None)
        if fn is None:
            raise TransportError(
                f"{type(self.inner).__name__} has no codec selection"
            )
        fn(codec)


# ---------------------------------------------------------------------------
# Transport factory
# ---------------------------------------------------------------------------
# Mirrors ``resolve_codec``: a spec string names a backend, an instance
# passes through.  The factories import lazily so this module stays the
# bottom of the dependency graph (sim_transport and aio_transport both
# import *us*).

#: Spec names understood by :func:`resolve_transport`.
TRANSPORT_SIM = "sim"
TRANSPORT_AIO = "aio"


def _make_sim(**kwargs: Any) -> "Transport":
    from repro.net.sim_transport import SimTransport

    if kwargs.get("kernel") is None:
        from repro.sim.kernel import SimKernel

        kwargs["kernel"] = SimKernel()
    return SimTransport(**kwargs)


def _make_aio(**kwargs: Any) -> "Transport":
    from repro.net.aio_transport import AioTcpTransport

    return AioTcpTransport(**kwargs)


_TRANSPORT_SPECS: Dict[str, Callable[..., "Transport"]] = {
    TRANSPORT_SIM: _make_sim,
    TRANSPORT_AIO: _make_aio,
    # Alias: "tcp" names the wire, not a threading model.
    "tcp": _make_aio,
}


def resolve_transport(spec: Any, **kwargs: Any) -> "Transport":
    """Build a transport from a spec, mirroring ``resolve_codec``.

    ``spec`` is one of:

    - a :class:`Transport` instance — passed through unchanged
      (``kwargs`` must be empty: an already-built backend cannot be
      reconfigured here);
    - ``"sim"`` — a :class:`~repro.net.sim_transport.SimTransport`; a
      fresh :class:`~repro.sim.kernel.SimKernel` is created unless one
      is passed as ``kernel=``;
    - ``"aio"`` (alias ``"tcp"``) — the socket backend, an event-loop
      :class:`~repro.net.aio_transport.AioTcpTransport`.

    Extra ``kwargs`` are forwarded to the backend constructor.
    """
    if isinstance(spec, Transport):
        if kwargs:
            raise TransportError(
                f"cannot apply constructor options {sorted(kwargs)} to an "
                f"already-built {type(spec).__name__}"
            )
        return spec
    if isinstance(spec, str):
        factory = _TRANSPORT_SPECS.get(spec)
        if factory is None:
            raise TransportError(
                f"unknown transport spec {spec!r}; choose from "
                f"{sorted(_TRANSPORT_SPECS)} or pass a Transport instance"
            )
        return factory(**kwargs)
    raise TransportError(f"not a transport: {spec!r}")

