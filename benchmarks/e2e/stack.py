"""The two configurations under test, built on real localhost sockets.

``composed`` switches the whole fast path on; ``stock`` passes no
feature knob, so its legs move when a later PR flips a default — that
is their purpose.  With a :class:`~.tracing.Tracer` the same stacks are
built with timing wrappers at every layer boundary; without one there
is no wrapper anywhere (the self-test checks).
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.airline.flights import (
    FlightDatabase,
    extract_cells_from_database,
    extract_from_database,
    merge_into_database,
    seat_conflict_resolver,
)
from repro.apps.airline.travel_agent import TravelAgent, attach_cache_manager
from repro.core.cache_manager import CacheManager
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem
from repro.core.triggers import TriggerSet
from repro.net.aio_transport import AioTcpTransport
from repro.net.binary_codec import BinaryCodec, encode_value
from repro.net.codec import JsonCodec
from repro.net.reliability import ReliableTransport
from repro.net.transport import Transport, resolve_transport

from .inputs import Inputs
from .tracing import Tracer, TracingTransport, timing_codec

SETUP_TIMEOUT_S = 120.0


class Stack:
    """One built system: transport chain, directory plane, views."""

    def __init__(self, config: str, inputs: Inputs, wal_root: Path,
                 transport: str = "aio", tracer: Optional[Tracer] = None
                 ) -> None:
        self.config = config
        self.tracer = tracer
        self.db: FlightDatabase = inputs.database()
        self.traced_transports: Dict[str, TracingTransport] = {}
        self.wal_record_sizes: List[int] = []
        wrap = tracer.wrap if tracer else (lambda _layer, _name, fn: fn)
        app = {
            "extract_from_object": wrap("app", "extract_object",
                                        extract_from_database),
            "merge_into_object": wrap("app", "merge_object",
                                      merge_into_database),
            "extract_cells": wrap("app", "extract_cells",
                                  extract_cells_from_database),
            "conflict_resolver": seat_conflict_resolver,
        }
        if config == "composed":
            if transport != "aio":
                # On the threaded backend hot_pairs.composed never finishes.
                raise ValueError("composed is defined on aio only; "
                                 f"--transport {transport} re-runs .stock legs")
            wire = self._traced(AioTcpTransport(wrap_batches=True), "transport",
                                lambda _a: ("reliability", "on_frame"))
            top = self._traced(ReliableTransport(wire), "reliability",
                               self._label_behind_router)
            codec: Any = "binary+zlib"
            if tracer:
                codec = timing_codec(BinaryCodec, tracer, compress_level=6)
            self.system: Any = ShardedFleccSystem(
                top, self.db, n_shards=4, codec=codec, delta=True,
                coalesce_rounds=True, concurrent_rounds=0,
                durability=DurabilitySpec(wal_root, fsync="batch"),
                profile=bool(tracer), **app,
            )
            self.shards: List[DirectoryManager] = self.system.plane.shards
        elif config == "stock":
            top = self._traced(resolve_transport(transport), "transport",
                               self._label_direct)
            knobs: Dict[str, Any] = {}
            if tracer:   # same codec class the transport defaults to, timed
                knobs = {"codec": timing_codec(JsonCodec, tracer),
                         "profile": True}
            self.system = FleccSystem(top, self.db, **app, **knobs)
            self.shards = [self.system.directory]
        else:
            raise ValueError(f"unknown configuration {config!r}")
        self.top = top
        shape = inputs.shape
        self.agents = [
            TravelAgent(f"ta{v:04d}", flights)
            for v, flights in enumerate(inputs.slices)
        ]
        self.cms: List[CacheManager] = [
            attach_cache_manager(
                self.system, agent, mode=shape.mode,
                triggers=(TriggerSet(push=shape.push_trigger)
                          if shape.push_trigger else None),
                trigger_poll_period=shape.trigger_poll_ms,
            )
            for agent in self.agents
        ]
        if tracer:
            self._instrument(tracer)

    # -- wrappers (traced runs only) ----------------------------------------
    def _traced(self, transport: Transport, layer: str,
                label: Callable[[str], Tuple[str, str]]) -> Transport:
        if self.tracer is None:
            return transport
        traced = TracingTransport(transport, self.tracer, layer, label)
        self.traced_transports[layer] = traced
        return traced

    @staticmethod
    def _label_direct(address: str) -> Tuple[str, str]:
        if address.startswith("cm:"):
            return ("cache_manager", "on_message")
        return ("directory", "handle")

    @staticmethod
    def _label_behind_router(address: str) -> Tuple[str, str]:
        # Cache managers bind on the router, which binds here for them.
        if address.startswith("cm:"):
            return ("router", "incoming")
        return ("directory", "handle")

    def _instrument(self, tracer: Tracer) -> None:
        if self.config == "composed":
            tracer.wrap_method(self.system.plane.router, "send",
                               "router", "send")
            for dm in self.shards:
                tracer.wrap_method(dm.durability, "append",
                                   "durability", "append")
                tracer.wrap_method(dm.durability, "sync", "durability", "sync")
                dm.durability.append = self._sized(dm.durability.append)
        for cm in self.cms:
            tracer.wrap_method(cm, "end_use_image",
                               "cache_manager", "end_use_image")
            for call in ("start_use_image", "pull_image", "push_image"):
                tracer.wrap_method(cm, call, "cache_manager", call,
                                   completes=True)
            tracer.wrap_method(cm, "extract_from_view",
                               "cache_manager", "extract_view")
            tracer.wrap_method(cm, "merge_into_view",
                               "cache_manager", "merge_view")
            if self.config == "composed":
                tracer.wrap_method(cm.endpoint, "handler",
                                   "cache_manager", "on_message")
            if cm.triggers.push is not None:
                tracer.wrap_method(cm.triggers.push, "evaluate",
                                   "cache_manager", "trigger_eval")

    def _sized(self, append: Callable) -> Callable:
        """``DurabilityManager.append`` that also notes every 64th
        record's framed size (u32 length + payload + u32 crc), outside
        the timed span."""
        calls = itertools.count()

        def sized(record: Dict[str, Any]) -> bool:
            if next(calls) % 64 == 0:
                self.wal_record_sizes.append(len(encode_value(record)) + 8)
            return append(record)

        return sized

    # -- lifecycle ----------------------------------------------------------
    def each_view(self, call: Callable[[CacheManager], Any],
                  timeout: float = SETUP_TIMEOUT_S) -> List[str]:
        """Make one completion-returning cache-manager call on every view
        at once and wait for all of them; returns what went wrong."""
        done = threading.Event()
        problems: List[str] = []
        left = [len(self.cms)]
        lock = threading.Lock()

        def finished(comp: Any) -> None:
            try:
                comp.value
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                problems.append(repr(exc))
            with lock:
                left[0] -= 1
                if left[0] == 0:
                    done.set()

        for cm in self.cms:
            self.on_loop(lambda cm=cm: call(cm).then(finished))
        if not done.wait(timeout):
            problems.append(f"{left[0]} views did not answer in {timeout} s")
        return problems

    def start_views(self) -> None:
        """``start()`` every view, then ``init_image()`` every view."""
        problems = (self.each_view(lambda cm: cm.start())
                    or self.each_view(lambda cm: cm.init_image()))
        if problems:
            raise RuntimeError(f"set-up failed: {problems[:3]}")

    def on_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the transport's timer thread — on ``aio`` the
        loop thread every handler runs on.  *Every* cache-manager call
        the benchmark makes goes through here: a CM called from a second
        thread registers its reply callback after the send, so it can
        apply a GRANT after the loop thread has already answered a later
        INVALIDATE, which splits ownership (README.md, "Findings")."""
        self.transport_chain()[-1].schedule(0.0, fn)

    def call_on_loop(self, fn: Callable[[], Any]) -> Any:
        """``fn()`` evaluated on that thread; blocks for the result."""
        done = threading.Event()
        box: List[Any] = []

        def run() -> None:
            try:
                box.append(fn())
            finally:
                done.set()

        self.on_loop(run)
        if not done.wait(SETUP_TIMEOUT_S) or not box:
            raise RuntimeError("call on the transport's loop thread failed")
        return box[0]

    def transport_chain(self) -> List[Transport]:
        """Every transport from the one views bind on down to the wire."""
        chain, t = [], self.system.transport
        while t is not None:
            chain.append(t)
            t = getattr(t, "inner", None)
        return chain

    def handler_errors(self) -> list:
        return list(getattr(self.transport_chain()[-1], "handler_errors", ()))

    def quarantined(self) -> List[str]:
        return [v for dm in self.shards for v in dm.quarantined]

    def counters(self) -> Dict[str, int]:
        return dict(self.system.directory.counters)

    def knobs(self) -> Dict[str, Any]:
        """The configuration as the built objects resolved it."""
        dm = self.shards[0]
        chain = self.transport_chain()
        wire = chain[-1]
        durability = dm.durability.spec if dm.durability else None
        plane = getattr(self.system, "plane", None)
        return {
            "builder": type(self.system).__name__,
            "transport_chain": [
                type(t).__name__ for t in chain
                if not isinstance(t, TracingTransport)
            ],
            "codec": getattr(wire, "preferred_codec", None),
            "wrap_batches": getattr(wire, "wrap_batches", None),
            "n_shards": len(self.shards),
            "partitioner": (
                f"{type(plane.partitioner).__name__}"
                f"({plane.partitioner.partition_property!r})"
                if plane else None
            ),
            "delta": dm.delta,
            "coalesce_rounds": dm.coalesce_rounds,
            "concurrent_rounds": dm.concurrent_rounds,
            "conflict_index": dm.policy.indexed,
            "durability": (
                {"fsync": durability.fsync,
                 "batch_interval": durability.batch_interval,
                 "snapshot_every": durability.snapshot_every}
                if durability else None
            ),
            "conflict_resolver": getattr(dm.conflict_resolver, "__name__", None),
            "extract_cells": dm.extract_cells is not None,
        }

    def close(self) -> None:
        self.system.close()
        self.top.close()


def timed_setup(config: str, inputs: Inputs, wal_root: Path, transport: str,
                tracer: Optional[Tracer] = None) -> Tuple[Stack, float]:
    """Build a stack and bring every view up; returns it and the seconds
    from nothing to "the first op can be issued"."""
    t0 = time.perf_counter()
    stack = Stack(config, inputs, wal_root, transport, tracer)
    try:
        stack.start_views()
    except BaseException:
        stack.close()
        raise
    return stack, time.perf_counter() - t0
