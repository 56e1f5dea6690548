"""System wiring: build a directory + cache managers on one transport.

Also provides :func:`run_view_script`, the cross-backend driver that
lets the *same* application code (a generator yielding completions)
run on the simulated transport (as a kernel process) and on the socket
transport (as a blocking thread) — the trick that keeps the airline
case study single-sourced across both backends.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple, Union

from repro.core.cache_manager import CacheManager, ExtractFromView, MergeIntoView
from repro.core.directory import (
    DirectoryManager,
    ExtractFromObject,
    MergeIntoObject,
)
from repro.core.messages import TraceLog
from repro.core.property_set import PropertySet
from repro.errors import ReproError
from repro.net.aio_transport import TIME_SCALE
from repro.net.sim_transport import SimTransport
from repro.net.transport import Completion, Transport, resolve_transport


class FleccSystem:
    """Convenience builder for one original component and its views.

    ``directory_options`` go to ``directory_cls`` unchanged:
    :class:`~repro.core.directory.DirectoryManager`'s constructor is the
    one list of directory options and their defaults.
    """

    def __init__(
        self,
        transport: Transport,
        component: Any,
        extract_from_object: ExtractFromObject,
        merge_into_object: MergeIntoObject,
        directory_address: str = "dir",
        trace: Optional[TraceLog] = None,
        directory_cls: type = DirectoryManager,
        delta: bool = True,
        codec: Any = None,
        **directory_options: Any,
    ) -> None:
        # `transport` may be an instance or a resolve_transport spec
        # string ("sim" | "aio"): the backends are interchangeable
        # behind this one seam.
        self.transport = transport = resolve_transport(transport)
        self.trace = trace
        # Wire-codec selection ("json" | "binary" | "binary+zlib" |
        # instance): forwarded to the transport, which owns the wire.
        # None keeps the transport's current codec.
        if codec is not None:
            set_codec = getattr(transport, "set_codec", None)
            if set_codec is None:
                raise ReproError(
                    f"{type(transport).__name__} does not support codec "
                    f"selection (no set_codec method)"
                )
            set_codec(codec)
        # Delta synchronization is named here because both ends of a
        # serve must agree on it: the directory and every cache manager
        # :meth:`add_view` builds get the same value.
        self.delta = delta
        self.directory = self._build_directory(
            directory_cls,
            transport=transport,
            address=directory_address,
            component=component,
            extract_from_object=extract_from_object,
            merge_into_object=merge_into_object,
            trace=trace,
            delta=delta,
            **directory_options,
        )
        self.cache_managers: Dict[str, CacheManager] = {}

    def _build_directory(self, directory_cls: type, **kwargs: Any) -> Any:
        """Construct what views register with; may rebind
        ``self.transport`` to what they should bind on."""
        return directory_cls(**kwargs)

    def add_view(
        self,
        view_id: str,
        view: Any,
        properties: PropertySet,
        extract_from_view: ExtractFromView,
        merge_into_view: MergeIntoView,
        **view_options: Any,
    ) -> CacheManager:
        """Create (but do not yet start) the cache manager for a view.

        ``view_options`` (``mode``, ``triggers``, ``request_timeout``,
        ...) go to :class:`CacheManager` unchanged: its constructor is
        the one list of view options and their defaults.
        """
        if view_id in self.cache_managers:
            raise ReproError(f"view id already in system: {view_id}")
        cm = CacheManager(
            transport=self.transport,
            directory_address=self.directory.address,
            view_id=view_id,
            view=view,
            properties=properties,
            extract_from_view=extract_from_view,
            merge_into_view=merge_into_view,
            trace=self.trace,
            delta=self.delta,
            **view_options,
        )
        self.cache_managers[view_id] = cm
        return cm

    def close(self) -> None:
        for cm in self.cache_managers.values():
            if not cm._closed:
                cm._shutdown()
        self.directory.close()


# ---------------------------------------------------------------------------
# Cross-backend script execution
# ---------------------------------------------------------------------------
# A *view script* is a generator that yields either a Completion (wait
# for it; its value is sent back into the generator) or ("sleep", dt)
# (advance time by dt).  The same script runs under both backends.

SleepCmd = Tuple[str, float]
ScriptYield = Union[Completion, SleepCmd]
ViewScript = Generator[ScriptYield, Any, Any]


def _sim_backend(transport: Transport) -> Optional[SimTransport]:
    """The SimTransport at the bottom of a (possibly wrapped) stack.

    Wrappers such as :class:`~repro.net.reliability.ReliableTransport`
    expose their wrapped backend as ``.inner``; scripts must run as
    kernel processes whenever a sim kernel is anywhere underneath.
    """
    seen = set()
    t: Any = transport
    while t is not None and id(t) not in seen:
        if isinstance(t, SimTransport):
            return t
        seen.add(id(t))
        t = getattr(t, "inner", None)
    return None


def run_view_script(transport: Transport, script: ViewScript) -> "ScriptHandle":
    """Run a view script appropriately for the transport backend."""
    sim = _sim_backend(transport)
    if sim is not None:
        return _SimScriptHandle(sim, script)
    return _ThreadScriptHandle(transport, script)


class ScriptHandle:
    """Handle to a running view script."""

    def result(self, timeout: Optional[float] = None) -> Any:  # pragma: no cover
        raise NotImplementedError

    @property
    def done(self) -> bool:  # pragma: no cover
        raise NotImplementedError


class _SimScriptHandle(ScriptHandle):
    def __init__(self, transport: SimTransport, script: ViewScript) -> None:
        kernel = transport.kernel

        # Drive `script` manually so its return value is captured and
        # failures of awaited completions are thrown back *into* the
        # script (so application code can catch protocol errors).
        def runner():
            value_to_send: Any = None
            exc_to_throw: Optional[BaseException] = None
            try:
                while True:
                    if exc_to_throw is not None:
                        exc, exc_to_throw = exc_to_throw, None
                        step = script.throw(exc)
                    else:
                        step = script.send(value_to_send)
                    value_to_send = None
                    if isinstance(step, tuple) and step and step[0] == "sleep":
                        yield kernel.timeout(step[1])
                    elif isinstance(step, Completion):
                        try:
                            value_to_send = yield step.sim_event()
                        except BaseException as e:  # forwarded to the script
                            exc_to_throw = e
                    else:
                        raise ReproError(f"script yielded {step!r}")
            except StopIteration as stop:
                return stop.value

        self._process = kernel.spawn(runner())
        self._kernel = kernel

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._process.done:
            self._kernel.run_until_complete(self._process)
        return self._process.result

    @property
    def done(self) -> bool:
        return self._process.done


class _ThreadScriptHandle(ScriptHandle):
    def __init__(self, transport: Transport, script: ViewScript) -> None:
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._finished = threading.Event()

        def run() -> None:
            import time as _time

            value_to_send: Any = None
            exc_to_throw: Optional[BaseException] = None
            try:
                while True:
                    if exc_to_throw is not None:
                        exc, exc_to_throw = exc_to_throw, None
                        step = script.throw(exc)
                    else:
                        step = script.send(value_to_send)
                    value_to_send = None
                    if isinstance(step, tuple) and step and step[0] == "sleep":
                        _time.sleep(step[1] / TIME_SCALE)
                    elif isinstance(step, Completion):
                        try:
                            value_to_send = step.wait(timeout=30.0)
                        except BaseException as e:  # forwarded to the script
                            exc_to_throw = e
                    else:
                        raise ReproError(f"script yielded {step!r}")
            except StopIteration as stop:
                self._result = stop.value
            except BaseException as exc:  # surfaced via result()
                self._exc = exc
            finally:
                self._finished.set()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._finished.wait(timeout if timeout is not None else 60.0):
            raise ReproError("script did not finish in time")
        if self._exc is not None:
            raise self._exc
        return self._result

    @property
    def done(self) -> bool:
        return self._finished.is_set()


def run_all_scripts(
    transport: Transport,
    scripts: Iterable[ViewScript],
    timeout: Optional[float] = None,
) -> List[Any]:
    """Start all scripts, wait for all, return their results in order."""
    handles = [run_view_script(transport, s) for s in scripts]
    return [h.result(timeout) for h in handles]
