"""Outside-in tracing: spans around calls into each layer.

Nothing under ``src/`` is edited.  A layer is seen by wrapping what the
benchmark itself constructs and passes in (transports, codec, extract
and merge callbacks) or by replacing a public method on an instance it
built (``ShardRouter.send``, ``CacheManager.push_image``,
``DurabilityManager.append``).  Every wrapper records one span

    (layer, name, start_ns, end_ns, parent, op_id, thread)

into a pre-allocated list; ``parent`` is the enclosing span on the same
thread and ``op_id`` is minted by the driver per view op and carried
across the wire by the :class:`TracingTransport` (a message delivered
to a handler runs under the op that sent it).  Spans are written out
once, after the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.message import BATCH, Message
from repro.net.transport import Completion, Endpoint, TimerHandle, Transport

clock_ns = time.perf_counter_ns

Span = Tuple[str, str, int, int, int, int, int]


class _Context(threading.local):
    def __init__(self) -> None:   # runs once per thread, on first use
        self.span = -1   # innermost open span on this thread
        self.op = -1     # the view op this thread is working for
        self.thread = threading.get_ident()


class Tracer:
    """Span recorder; inert (wrappers call straight through) until ``on``."""

    def __init__(self, capacity: int = 1_500_000) -> None:
        self.capacity = capacity
        self.spans: List[Optional[Span]] = [None] * capacity
        self._next = itertools.count()   # next() is atomic under the GIL
        self._ops = itertools.count()
        self.dropped = 0
        self.on = False
        self.ctx = _Context()
        self.completions: Dict[Tuple[str, str], List[int]] = {}

    def wrap(self, layer: str, name: str, fn: Callable, new_op: bool = False
             ) -> Callable:
        """``fn`` with a span around each call.  ``new_op`` mints a
        fresh op id for the call's duration (the driver's issue step)."""
        ctx, spans, capacity = self.ctx, self.spans, self.capacity

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            idx = next(self._next)
            if idx >= capacity:
                self.dropped += 1
                return fn(*args, **kwargs)
            parent, prev_op = ctx.span, ctx.op
            ctx.span = idx
            if new_op:
                ctx.op = next(self._ops)
            start = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, name, start, clock_ns(), parent, ctx.op,
                              ctx.thread)
                ctx.span, ctx.op = parent, prev_op

        return traced

    def wrap_method(self, obj: Any, attr: str, layer: str, name: str,
                    completes: bool = False) -> None:
        """Replace ``obj.attr`` (a public bound method) on the instance.
        ``completes``: it returns a Completion; also time call ->
        completion into ``self.completions`` and count the calls that
        were already complete on return."""
        traced = self.wrap(layer, name, getattr(obj, attr))
        if completes:
            traced = self._timed_completion((layer, name), traced)
        setattr(obj, attr, traced)

    def _timed_completion(self, key: Tuple[str, str], fn: Callable) -> Callable:
        acc = self.completions.setdefault(key, [0, 0, 0])  # calls, ns, sync

        def call(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            start = clock_ns()
            comp = fn(*args, **kwargs)
            acc[0] += 1
            if comp.done:
                acc[2] += 1

            def completed(_comp: Any) -> None:
                acc[1] += clock_ns() - start

            comp.then(completed)
            return comp

        return call

    def freeze(self) -> Tuple[List[int], List[Span]]:
        """Stop recording; the finished spans and their ids (a span's
        ``parent`` field is such an id)."""
        self.on = False
        n = min(next(self._next), self.capacity)
        pairs = [(i, s) for i, s in enumerate(self.spans[:n]) if s is not None]
        return [i for i, _ in pairs], [s for _, s in pairs]


SPAN_FIELDS = ("id", "layer", "name", "start_ns", "end_ns", "parent", "op_id",
               "thread")


def write_jsonl(path: Path, span_ids: List[int], spans: List[Span]) -> None:
    """One header line naming the fields, then one JSON array per span
    (arrays, not objects: a traced run records ~400k spans)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for i, span in zip(span_ids, spans):
            f.write(json.dumps((i, *span), separators=(",", ":")) + "\n")


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    with open(path) as f:
        fields = json.loads(next(f))["fields"]
        return [dict(zip(fields, json.loads(line))) for line in f]


class TracingTransport(Transport):
    """Pass-through transport that times sends and hand-offs.

    ``send`` records a ``(layer, "send")`` span and remembers when each
    message id left and for which op; the handler wrapper installed at
    ``bind`` looks that up on arrival, so ``deliver_ns`` is send call ->
    destination handler entry (queue + flush + socket + decode), and the
    handler runs under the sender's op id.
    """

    def __init__(self, inner: Transport, tracer: Tracer, layer: str,
                 handler_label: Callable[[str], Tuple[str, str]]) -> None:
        super().__init__()
        self.inner = inner
        self.stats = inner.stats
        self._tracer = tracer
        self._handler_label = handler_label
        self._inner_eps: Dict[str, Endpoint] = {}
        self._sent: Dict[int, Tuple[int, int]] = {}
        self.deliver_ns = 0
        self.delivered = 0
        self._traced_send = tracer.wrap(layer, "send", self._send)

    # -- sending -----------------------------------------------------------
    def send(self, msg: Message) -> None:
        self._traced_send(msg)

    def _send(self, msg: Message) -> None:
        if self._tracer.on:
            stamp = (clock_ns(), self._tracer.ctx.op)
            self._sent[msg.msg_id] = stamp
            if msg.msg_type == BATCH:
                # The receiver splits the envelope; handlers see the subs.
                for sub in msg.payload.get("messages", ()):
                    self._sent[sub["msg_id"]] = stamp
        self.inner.send(msg)

    # -- binding -----------------------------------------------------------
    def _on_bind(self, ep: Endpoint) -> None:
        tracer, ctx, sent = self._tracer, self._tracer.ctx, self._sent
        traced = tracer.wrap(*self._handler_label(ep.address), ep.handler)

        def on_message(msg: Message) -> None:
            stamp = sent.pop(msg.msg_id, None)
            if stamp is None or not tracer.on:
                traced(msg)
                return
            self.deliver_ns += clock_ns() - stamp[0]
            self.delivered += 1
            prev, ctx.op = ctx.op, stamp[1]
            try:
                traced(msg)
            finally:
                ctx.op = prev

        self._inner_eps[ep.address] = self.inner.bind(ep.address, on_message)

    def _on_unbind(self, ep: Endpoint) -> None:
        inner_ep = self._inner_eps.pop(ep.address, None)
        if inner_ep is not None:
            inner_ep.close()

    # -- delegated services -------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        ctx, op = self._tracer.ctx, self._tracer.ctx.op

        def fire() -> None:   # a timer works for the op that armed it
            prev, ctx.op = ctx.op, op
            try:
                fn()
            finally:
                ctx.op = prev

        return self.inner.schedule(delay, fire)

    def now(self) -> float:
        return self.inner.now()

    def completion(self, name: str = "") -> Completion:
        return self.inner.completion(name)

    def node_of(self, address: str) -> Optional[str]:
        fn = getattr(self.inner, "node_of", None)
        return fn(address) if fn is not None else None

    def set_codec(self, codec: Any) -> None:
        self.inner.set_codec(codec)

    @property
    def handler_errors(self) -> list:
        return getattr(self.inner, "handler_errors", [])

    def close(self) -> None:
        super().close()
        self.inner.close()


def timing_codec(base: type, tracer: Tracer, **kwargs: Any) -> Any:
    """An instance of ``base`` (a wire codec class) whose ``encode`` and
    ``decode`` are spans.  A subclass, so ``codec_name`` still negotiates
    it under the base codec's wire name."""

    class TimingCodec(base):  # type: ignore[misc, valid-type]
        pass

    codec = TimingCodec(**kwargs)
    tracer.wrap_method(codec, "encode", "codec", "encode")
    tracer.wrap_method(codec, "decode", "codec", "decode")
    return codec


# ---------------------------------------------------------------------------
# Post-run analysis
# ---------------------------------------------------------------------------

def call_stats(spans: List[Span]) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """(layer, name) -> (calls, total ns), inclusive of child spans."""
    out: Dict[Tuple[str, str], List[int]] = defaultdict(lambda: [0, 0])
    for layer, name, start, end, _parent, _op, _tid in spans:
        acc = out[(layer, name)]
        acc[0] += 1
        acc[1] += end - start
    return {k: (v[0], v[1]) for k, v in out.items()}


def layer_budget(
    spans: List[Span],
    span_ids: List[int],
    op_windows: List[Tuple[float, float]],
    t0_ns: int,
    t1_ns: int,
) -> Dict[str, float]:
    """Share of op wall time spent while each layer was executing.

    Op wall time over the window is the integral of n(t), the number of
    ops in flight.  Every instant either falls in some span's *self*
    time (span minus child spans) or in none; a layer's share is the
    integral of n(t) over its self time, so the rows plus
    ``unaccounted`` sum to 1 by construction.  n(t) is read at each
    span's midpoint (it changes only inside driver callbacks, which are
    leaf-short).  ``unaccounted`` is time with ops in flight and no
    traced code running: asyncio and socket internals, the kernel, idle
    waits for a peer — outside-in wrappers cannot split it further.
    """
    live = [(b, e) for b, e in op_windows if e > t0_ns and b < t1_ns]
    begins = np.sort(np.array([max(b, t0_ns) for b, _ in live], dtype=np.int64))
    ends = np.sort(np.array([min(e, t1_ns) for _, e in live], dtype=np.int64))
    wall = float(ends.sum() - begins.sum())
    if wall <= 0 or not spans:
        return {"unaccounted": 1.0}
    child_ns: Dict[int, int] = defaultdict(int)
    for (_l, _n, start, end, parent, _op, _tid) in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    starts = np.array([s[2] for s in spans], dtype=np.int64)
    stops = np.array([s[3] for s in spans], dtype=np.int64)
    self_ns = (stops - starts) - np.array(
        [child_ns.get(i, 0) for i in span_ids], dtype=np.int64
    )
    mid = (starts + stops) // 2
    in_window = (mid >= t0_ns) & (mid < t1_ns)
    in_flight = (np.searchsorted(begins, mid, side="right")
                 - np.searchsorted(ends, mid, side="right"))
    weighted = self_ns * in_flight * in_window
    shares: Dict[str, float] = defaultdict(float)
    for (layer, *_), w in zip(spans, weighted.tolist()):
        shares[layer] += w / wall
    shares["unaccounted"] = 1.0 - sum(shares.values())
    return dict(shares)
