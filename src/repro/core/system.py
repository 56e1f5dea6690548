"""System wiring: build a directory + cache managers on one transport.

Also provides :func:`run_view_script`, the cross-backend driver that
lets the *same* application code (a generator yielding completions)
run on the simulated transport and on the socket transport: scripts
step on completion callbacks and transport timers; on aio, on the loop
thread.  That keeps the airline case study single-sourced across both
backends.
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
# for it; its value is sent back into the generator, its failure thrown
# in) or ("sleep", dt) (advance time by dt).  The same script runs under
# every backend: it steps on completion callbacks and transport timers;
# on aio, on the loop thread, so a script must never block.

SleepCmd = Tuple[str, float]
ScriptYield = Union[Completion, SleepCmd]
ViewScript = Generator[ScriptYield, Any, Any]


def _sim_backend(transport: Transport) -> Optional[SimTransport]:
    """The SimTransport at the bottom of a (possibly wrapped) stack.

    Wrappers such as :class:`~repro.net.reliability.ReliableTransport`
    expose their wrapped backend as ``.inner``; whenever a sim kernel is
    anywhere underneath, waiting on a script means stepping that kernel.
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
    """Start a view script on ``transport``; see :class:`ScriptHandle`."""
    return ScriptHandle(transport, script)


class ScriptHandle:
    """A running view script, stepped from transport callbacks.

    The script boots on a zero-delay timer; a yielded completion resumes
    it from ``then`` and a sleep from ``transport.schedule``, so on the
    sim the resumption points are kernel events and on aio every step
    runs on the loop thread.
    """

    def __init__(self, transport: Transport, script: ViewScript) -> None:
        self._transport = transport
        self._script = script
        self._sim = _sim_backend(transport)
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._finished = threading.Event()
        self._after(0.0)

    def _after(self, dt: float) -> None:
        try:
            self._transport.schedule(dt, self._step)
        except BaseException as exc:  # transport closed: end, never hang
            self._finish(None, exc)

    def _step(self, done: Optional[Completion] = None) -> None:
        """Send ``done``'s outcome (None after a timer) into the script
        and follow it until it waits, sleeps or ends."""
        while True:
            try:
                try:
                    value = None if done is None else done.value
                except BaseException as exc:  # a failed wait: the script's to catch
                    step = self._script.throw(exc)
                else:
                    step = self._script.send(value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as exc:  # surfaced via result()
                self._finish(None, exc)
                return
            if isinstance(step, Completion):
                done = self._wait(step)
                if done is None:
                    return
            elif isinstance(step, tuple) and step[:1] == ("sleep",):
                self._after(step[1])
                return
            else:
                self._finish(None, ReproError(f"script yielded {step!r}"))
                return

    def _wait(self, comp: Completion) -> Optional[Completion]:
        """Resume on ``comp``.  Returns it when ``then`` called back at
        once (it was already done): the caller loops instead of nesting
        a frame per resolved completion.  Otherwise returns None and the
        callback steps the script later."""
        inline = True
        ready: Optional[Completion] = None

        def resume(c: Completion) -> None:
            nonlocal ready
            if inline:
                ready = c
            else:
                self._step(c)

        comp.then(resume)
        inline = False
        return ready

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self._result, self._exc = value, exc
        self._finished.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """The script's return value; raises what the script raised.

        On a sim backend this steps the kernel until the script ends
        (``timeout`` does not apply: simulated time is not wall time);
        elsewhere it waits up to ``timeout`` wall-clock seconds (60 by
        default)."""
        if self._sim is not None:
            kernel = self._sim.kernel
            while not self._finished.is_set():
                if kernel.peek() == float("inf"):
                    raise ReproError(
                        "deadlock: the script waits but the event queue is empty"
                    )
                kernel.step()
        elif not self._finished.wait(60.0 if timeout is None else timeout):
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
