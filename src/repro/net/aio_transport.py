"""The TCP socket transport (localhost): one asyncio loop, multiplexed
links, coalesced writes, bounded send queues.

This backend keeps the reproduction faithful to the paper's networked
prototype — every control message crosses a real socket — while
staying inside the single-threaded handler model the protocol engines
assume.

Wire contract: each frame is a 4-byte big-endian length followed by the
encoded message.  A connection speaks the transport's codec from its
first frame: the client (the mux link's writer) takes ``self.codec``
when it opens the connection and the server takes it at accept.  Both
ends are this one object, so there is nothing to negotiate.  The codec
is chosen before the first send (:meth:`AioTcpTransport.set_codec`
refuses once the mux link exists), and a connection a raw peer opened
before a ``set_codec`` finishes on the codec it was accepted with.

Machinery:

- **Multiplexing** — all endpoints bound on one transport share a
  single listening socket and a single mux connection; ``bind`` is a
  dict insert, not a socket.  10k endpoints cost 10k dict entries and
  one socket pair.
- **Write coalescing** — the writer coroutine drains whatever has
  queued since the last flush and ships it in one ``write()`` +
  ``drain()``; with ``wrap_batches=True`` adjacent messages are
  additionally wrapped in one ``BATCH`` envelope, paying one codec
  pass and one frame for the whole flush.
- **Replay** — the server reads each connection with an
  :class:`asyncio.Protocol` that decodes a frame and delivers it in the
  callback that read it, counting the frame as consumed just before.
  The mux link keeps every frame it wrote until then.  When the link
  dies (the server dropped it, or the socket failed), its replacement
  aborts the old server connection on the loop thread and then
  re-sends, in order and as encoded, the frames that connection never
  consumed, then the messages still queued, then anything sent since.
  So the link loses and duplicates nothing while the transport lives,
  which is what :attr:`AioTcpTransport.reliable` states.  A frame the
  server cannot decode counts as consumed: it is listed under
  :data:`BAD_FRAME`, costs its connection, and is never re-sent.
- **Backpressure** — the send queue is bounded (``max_queue``).  A
  send against a full queue is *refused* with a ``TransportError``
  and counted in ``stats.backpressure_stalls``; a layer above turns
  that refusal into flow control instead of unbounded buffering
  (``ReliableTransport`` keeps refused sends in order and offers them
  again on its backoff timer).

Threaded callers are first-class: ``send``/``schedule``/``close`` may
be called from any thread (``call_soon_threadsafe`` carries them onto
the loop; calls made *on* the loop thread — every handler and timer —
skip that hop and its self-pipe write), and ``completion()`` returns a
:class:`ThreadCompletion` that a caller thread can block on, resolved
from handler code running on the loop.  Handlers themselves run on the
loop thread, one at a time — the same one-at-a-time semantics the sim
kernel provides — so engine code runs unchanged.

Time: ``now()`` is wall-clock seconds since transport creation, scaled
by :data:`TIME_SCALE` so tests can use the same trigger expressions as
the simulated runs.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import CodecError, TransportError
from repro.net.binary_codec import codec_name, resolve_codec
from repro.net.message import Message, make_batch
from repro.net.transport import Completion, Endpoint, TimerHandle, Transport

_log = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024

# Bytes one socket read asks for.  asyncio's selector transports ask for
# 256 KiB, and glibc serves an allocation that size with mmap until some
# earlier free in the process has raised its mmap threshold, so every
# read then costs an mmap, page faults and a munmap.  64 KiB stays on
# the heap.
_READ_BYTES = 64 * 1024

# Most messages the writer coalesces into one ``drain()``.
MAX_FLUSH = 128

# Transport time units per wall-clock second: one unit ~= 1 ms, so
# trigger expressions like ``t > 1500`` mean "after 1.5 s" on sockets
# while being pure numbers in simulation.
TIME_SCALE = 1000.0

# What ``handler_errors`` lists in place of a message type for an
# inbound frame no message could be read from.
BAD_FRAME = "<bad frame>"

# Default for ThreadCompletion.wait: long enough for any test or demo
# round-trip, finite so a lost reply surfaces as a clear TransportError
# instead of blocking the calling thread forever.
DEFAULT_WAIT_TIMEOUT = 30.0


class ThreadCompletion(Completion):
    """Completion that threads can block on.

    Most completions are resolved and consumed through ``then`` on the
    loop thread and never waited on, so the state is a done flag under
    one lock; the ``threading.Event`` (a Condition and a second lock) is
    only built by a ``wait()`` that arrives before completion.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or "completion"
        self._lock = threading.Lock()
        self._done = False
        self._ev: Optional[threading.Event] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[[Completion], None]] = []

    def _complete(self, value: Any, exc: Optional[BaseException]) -> None:
        with self._lock:
            if self._done:
                raise TransportError(f"{self.name} already completed")
            self._value = value
            self._exc = exc
            callbacks = self._callbacks
            self._done = True
            ev = self._ev
        if ev is not None:
            ev.set()
        for cb in callbacks:
            cb(self)

    def resolve(self, value: Any = None) -> None:
        self._complete(value, None)

    def fail(self, exc: BaseException) -> None:
        self._complete(None, exc)

    def then(self, callback: Callable[[Completion], None]) -> None:
        with self._lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        callback(self)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise TransportError(f"{self.name}: value read before completion")
        if self._exc is not None:
            raise self._exc
        return self._value

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until completion; ``timeout`` in wall-clock seconds.

        ``None`` means the finite :data:`DEFAULT_WAIT_TIMEOUT`, never
        indefinite blocking: a lost reply must surface as an error
        naming what was being waited on, not as a hung thread.
        """
        if timeout is None:
            timeout = DEFAULT_WAIT_TIMEOUT
        with self._lock:
            ev = None
            if not self._done:
                ev = self._ev
                if ev is None:
                    ev = self._ev = threading.Event()
        if ev is not None and not ev.wait(timeout):
            raise TransportError(
                f"timed out after {timeout}s waiting on {self.name!r} "
                f"(the reply for this pending message type never arrived)"
            )
        return self.value


class _Link:
    """The mux connection: one bounded queue, one writer coroutine, and
    the frames written that its server connection has not consumed."""

    def __init__(self, max_queue: int) -> None:
        self.max_queue = max_queue
        self.queue: Deque[Message] = deque()
        self.lock = threading.Lock()
        # Created off-loop (safe on 3.10+: Event binds its loop on first
        # await); set on the loop thread, directly by senders already on
        # it and via call_soon_threadsafe by every other thread.
        self.wake = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.error: Optional[BaseException] = None
        # Encoded frames, length prefix included, in write order: written
        # (or, carried over from a dead link, to be written first on
        # connect) and not yet consumed by the server side.  Loop thread.
        self.unconsumed: Deque[bytes] = deque()
        # The accepted end of this link's connection, once it is known.
        self.server: Optional["_ServerConn"] = None
        # Set (under ``lock``) when a replacement takes the queue over:
        # a send that still holds this link must go to its successor.
        self.retired = False


class _ServerConn(asyncio.Protocol):
    """One accepted connection.  Frames are decoded and delivered in the
    callback that read them, each counted as consumed just before; on
    the mux link's own connection that pops the link's oldest
    unconsumed frame, so a replacement re-sends exactly the frames this
    connection never delivered."""

    def __init__(self, owner: "AioTcpTransport") -> None:
        self.owner: Optional["AioTcpTransport"] = owner
        self.codec = owner.codec
        self.transport: Optional[asyncio.Transport] = None
        self.link: Optional[_Link] = None
        self.claimed = False
        # A frame split across reads: its chunks, their total length and
        # the bytes needed before anything more can be read.
        self.parts: List[bytes] = []
        self.have = 0
        self.need = 0
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        transport.max_size = _READ_BYTES  # type: ignore[attr-defined]
        owner = self.owner
        owner._server_conns.add(self)
        if transport.get_extra_info("peername") in owner._dialled:
            self._claim()

    def _claim(self) -> None:
        """Find the link this connection serves; the link's writer
        registered it before writing, so by the first frame it is known.
        A raw-socket peer has none."""
        self.claimed = True
        link = self.owner._dialled.pop(
            self.transport.get_extra_info("peername"), None)
        if link is None:
            return
        if link.retired:  # replaced before it was accepted: re-sent there
            self.transport.abort()
            return
        link.server = self
        self.link = link

    def abort(self) -> None:
        """Drop the connection at once: nothing more is read or delivered."""
        if self.transport is not None:
            self.transport.abort()

    def data_received(self, data: bytes) -> None:
        if not self.claimed:
            self._claim()
            if self.transport.is_closing():
                return
        if self.parts:
            self.parts.append(data)
            self.have += len(data)
            if self.have < self.need:
                return
            data = b"".join(self.parts)
            self.parts = []
        owner, decode, link = self.owner, self.codec.decode, self.link
        off, end, size = 0, len(data), _LEN.size
        while True:
            if end - off < size:
                need = size
                break
            (length,) = _LEN.unpack_from(data, off)
            stop = off + size + length
            if length > _MAX_FRAME:
                self._bad(link, TransportError(f"frame too large: {length}"))
                return
            if stop > end:
                need = stop - off
                break
            raw = data[off + size:stop]
            off = stop
            if link is not None:
                link.unconsumed.popleft()
            try:
                owner._deliver(decode(raw))
            except CodecError as exc:  # undecodable, or a BATCH unsplit
                self._bad(None, exc)
                return
            if self.transport.is_closing():
                return
        if off < end:
            self.parts = [data[off:] if off else data]
            self.have, self.need = end - off, need

    def _bad(self, link: Optional[_Link], exc: BaseException) -> None:
        """The stream cannot be re-synchronised after a bad frame, so the
        connection goes — and with it everything multiplexed on it,
        which is why it must not go quietly.  The frame counts as
        consumed (``link``: pop it now), so it is never re-sent."""
        if link is not None:
            link.unconsumed.popleft()
        self.owner.handler_errors.append((BAD_FRAME, exc))
        _log.warning(
            "dropping connection from %s: %s",
            self.transport.get_extra_info("peername"), exc,
        )
        self.transport.close()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        # Break every reference back: the link and the transport outlive
        # a connection only as long as something else holds them.
        self.owner._server_conns.discard(self)
        link = self.link
        if link is not None and link.server is self:
            link.server = None
        self.owner = self.link = self.transport = None
        self.parts = []
        if not self.lost.done():
            self.lost.set_result(None)


def _link_read_done(read: asyncio.Future, link: _Link) -> None:
    """Done-callback of a link's watch read: wake its writer (which then
    sees the connection gone) and consume the read's outcome, so a reset
    connection is not reported again as an unretrieved exception."""
    if not read.cancelled():
        read.exception()
    link.wake.set()


class AioTcpTransport(Transport):
    """Asyncio localhost TCP backend with a process-local address book.

    ``codec``: the wire codec — ``"json"`` (default), ``"binary"``,
    ``"binary+zlib"``, or a codec instance.
    ``max_queue`` bounds the mux send queue (full queue ⇒ the send is
    refused with ``TransportError`` + a ``backpressure_stalls`` tick).
    ``wrap_batches`` additionally wraps each multi-frame flush in a
    single ``BATCH`` envelope: one codec pass and one frame per flush,
    with logical per-message counts (the Fig-4 metric) unchanged —
    bytes are then accounted per envelope, not per message, so leave it
    off when per-type wire-byte attribution matters.
    """

    def __init__(
        self,
        codec: Any = None,
        max_queue: int = 4096,
        wrap_batches: bool = False,
    ) -> None:
        super().__init__()
        self.max_queue = max_queue
        self.wrap_batches = wrap_batches
        self._t0 = time.monotonic()
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        # Set by the loop thread itself: handlers and timers all run
        # there, and on it send/schedule/cancel touch the loop directly
        # instead of paying call_soon_threadsafe's self-pipe write.
        self._loop_tid: Optional[int] = None
        # The listening socket, and the accepted connections still being
        # wrapped in a _ServerConn (close() waits for them).
        self._listener: Optional[socket.socket] = None
        self._accepting: Set[asyncio.Task] = set()
        # Accepted connections, and the mux links that dialled one but
        # are not yet claimed by it, keyed by the link's local address.
        # Both loop thread only.
        self._server_conns: Set[_ServerConn] = set()
        self._dialled: Dict[Tuple[str, int], _Link] = {}
        self._port: Optional[int] = None
        self._link: Optional[_Link] = None
        # Writer gate for deterministic backpressure tests: cleared by
        # pause_writes(), the writer coroutine parks before its next
        # flush until resume_writes().
        self._gate = asyncio.Event()
        self._gate.set()
        #: (msg_type, exception) pairs from handlers that raised — a bad
        #: handler must not kill the shared mux connection, but the
        #: failure has to stay observable.  A frame that could not be
        #: decoded (or was oversized, or a BATCH that could not be
        #: split) is listed under :data:`BAD_FRAME`; that one does cost
        #: the inbound connection it arrived on.
        self.handler_errors: List[Tuple[str, BaseException]] = []
        self.set_codec(codec)

    # -- codec selection --------------------------------------------------
    def set_codec(self, codec: Any) -> None:
        """Choose the wire codec, before the first send.  The mux link
        speaks the codec it opened with and replays what it holds in
        it, so once the link exists this raises ``TransportError``
        instead of leaving queued messages behind."""
        codec = resolve_codec(codec)
        with self._lifecycle_lock:  # no link may open between check and set
            if self._link is not None:
                raise TransportError(
                    "set_codec after the first send: the mux link already "
                    f"speaks {self.preferred_codec}")
            self.codec = codec
            codec.stats = self.stats

    @property
    def reliable(self) -> bool:
        """True: while the transport lives, every frame the mux link
        accepts is delivered exactly once and in send order, across
        dead connections too (see *Replay* above).  Only a send to an
        address not bound here is lost, as on any backend."""
        return True

    @property
    def preferred_codec(self) -> str:
        """The wire name of :attr:`codec` (``"json"`` or ``"binary"``)."""
        return codec_name(self.codec)

    # -- loop lifecycle ---------------------------------------------------
    def _ensure_loop(self) -> None:
        if self._loop is not None:
            return
        with self._lifecycle_lock:
            if self._loop is not None:
                return
            if self._closed:
                raise TransportError("transport closed")
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=self._run_loop, args=(loop,), name="aio-transport",
                daemon=True,
            )
            thread.start()
            fut = asyncio.run_coroutine_threadsafe(self._start_server(), loop)
            self._port = fut.result(timeout=10.0)
            self._loop = loop
            self._loop_thread = thread

    def _run_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        self._loop_tid = threading.get_ident()
        try:
            loop.run_forever()
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            except Exception:
                pass
            loop.close()

    async def _start_server(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        asyncio.get_running_loop().add_reader(listener.fileno(), self._accept)
        return listener.getsockname()[1]

    def _accept(self) -> None:
        """Accept what is pending and wrap each connection in a
        :class:`_ServerConn`.  Not an asyncio server: closing one while
        an accepted socket waits for its transport leaks that socket."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            conn.setblocking(False)
            task = loop.create_task(loop.connect_accepted_socket(
                lambda: _ServerConn(self), conn))
            self._accepting.add(task)
            task.add_done_callback(self._accepting.discard)

    @property
    def port(self) -> Optional[int]:
        """The shared server port (None until the loop has started)."""
        return self._port

    # -- server side (see _ServerConn) ------------------------------------
    def _invoke(self, ep: Endpoint, msg: Message) -> None:
        """Handler exceptions are recorded, not propagated — one bad
        handler must not tear down the shared mux connection."""
        try:
            ep.handler(msg)
        except Exception as exc:  # noqa: BLE001 - observability list
            self.handler_errors.append((msg.msg_type, exc))

    # -- client (writer) side ---------------------------------------------
    async def _run_link(self, link: _Link, dead: Optional[_Link]) -> None:
        link.task = asyncio.current_task()
        if dead is not None:
            self._take_over(link, dead)
        codec = self.codec
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self._port
            )
        except OSError as exc:
            link.error = exc
            return
        # Registered before the first write, so the server side finds it
        # by the time it reads a frame.
        self._dialled[writer.get_extra_info("sockname")] = link
        closed: Optional[asyncio.Future] = None
        msgs: List[Message] = []
        try:
            # The server never writes, so a read that returns means the
            # connection is gone: wake the writer to retire the link
            # before it writes into a dead socket.
            closed = asyncio.ensure_future(reader.read(1))
            closed.add_done_callback(lambda f: _link_read_done(f, link))
            if link.unconsumed:
                writer.write(b"".join(link.unconsumed))
            while True:
                while not link.queue and not closed.done():
                    link.wake.clear()
                    await link.wake.wait()
                await self._gate.wait()
                if closed.done():
                    raise ConnectionResetError("connection closed by the server")
                with link.lock:
                    while link.queue and len(msgs) < MAX_FLUSH:
                        msgs.append(link.queue.popleft())
                if not msgs:
                    continue
                frames = self._encode_flush(msgs, codec)
                n, msgs = len(msgs), []
                link.unconsumed.extend(frames)
                writer.write(b"".join(frames))
                await writer.drain()
                if n > 1:
                    self.stats.record_coalesced_flush(n - 1)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, CodecError, TransportError) as exc:
            link.error = exc
            for m in msgs:  # a flush that failed to encode is lost
                self.stats.record_drop(m)
            if not self._closed and (link.unconsumed or link.queue):
                # Nothing else may send soon: what the link leaves
                # behind gets its replacement now.
                self._link_for()
        finally:
            if closed is not None and not closed.done():
                closed.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _take_over(self, link: _Link, dead: _Link) -> None:
        """Hand what ``dead`` did not deliver to its replacement ``link``
        (on the loop thread, before ``link`` connects): the frames its
        server connection never consumed, re-sent first as encoded, then
        its queue, ahead of anything sent to ``link`` since.  The old
        server connection is aborted first, so it delivers none of them."""
        if dead.server is not None:
            dead.server.abort()
        with dead.lock:
            # Not yet claimed, its server connection aborts when it is.
            dead.retired = True
            stranded = list(dead.queue)
            dead.queue.clear()
        link.unconsumed, dead.unconsumed = dead.unconsumed, link.unconsumed
        if stranded:
            with link.lock:
                link.queue.extendleft(reversed(stranded))
        _log.warning(
            "mux link lost (%s): reconnecting, re-sending %d unconsumed "
            "frame(s) and %d queued message(s)",
            dead.error, len(link.unconsumed), len(stranded),
        )

    def _encode_flush(self, msgs: List[Message], codec: Any) -> List[bytes]:
        """Encode one flush worth of messages into wire frames.

        Stats contract: each logical message is recorded exactly once
        (identical ``by_type``/``by_pair``/``total`` to the sim
        backend).  In ``wrap_batches`` mode the flush ships as one
        BATCH envelope, so bytes are accounted per envelope and the
        envelope itself stays out of ``by_type`` — it is transport
        framing, not a protocol message.
        """
        stats = self.stats
        if self.wrap_batches and len(msgs) >= 2:
            env = make_batch(msgs[0].src, msgs[0].dst, msgs)
            t0 = time.perf_counter_ns()
            raw = codec.encode(env)
            stats.record_encode(len(raw), time.perf_counter_ns() - t0)
            for m in msgs:
                stats.record(m)
            stats.bytes_sent += len(raw)
            stats.batches_sent += 1
            stats.messages_coalesced += len(msgs)
            return [_LEN.pack(len(raw)) + raw]
        frames: List[bytes] = []
        for m in msgs:
            t0 = time.perf_counter_ns()
            raw = codec.encode(m)
            size = len(raw)
            stats.record_encode(size, time.perf_counter_ns() - t0)
            stats.record(m, size=size)
            frames.append(_LEN.pack(size) + raw)
        return frames

    def _link_for(self) -> _Link:
        """The live mux link.  A link whose writer has died (connection
        refused, reset or closed by the server) is replaced here, by the
        next send or by the dying writer itself when it leaves frames or
        messages behind; the replacement takes them over."""
        link = self._link
        if link is not None and link.error is None:
            return link
        with self._lifecycle_lock:
            dead = self._link
            if dead is not None and dead.error is None:
                return dead
            link = _Link(self.max_queue)
            self._link = link
        loop = self._loop
        assert loop is not None  # _ensure_loop ran first
        asyncio.run_coroutine_threadsafe(self._run_link(link, dead), loop)
        return link

    # -- test hooks -------------------------------------------------------
    def pause_writes(self) -> None:
        """Park the writer before its next flush (deterministic
        backpressure tests: queued sends accumulate until the bound)."""
        self._ensure_loop()
        self._loop.call_soon_threadsafe(self._gate.clear)

    def resume_writes(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._gate.set)

    # -- Transport hooks --------------------------------------------------
    def _on_bind(self, ep: Endpoint) -> None:
        # Binding is a dict insert (the base class did it); the shared
        # server just has to exist so peers have somewhere to frame to.
        self._ensure_loop()

    # -- Transport API ----------------------------------------------------
    def send(self, msg: Message) -> None:
        if self._closed:
            raise TransportError("transport closed")
        if msg.dst not in self._endpoints:
            # Same semantics as sim: message to a vanished endpoint
            # is lost (and there is no link to size the frame with).
            self.stats.record(msg)
            self.stats.record_drop(msg)
            return
        self._ensure_loop()
        while True:
            link = self._link_for()
            with link.lock:
                if link.retired:
                    continue  # taken over meanwhile: its successor's turn
                if len(link.queue) >= link.max_queue:
                    self.stats.record_backpressure_stall()
                    raise TransportError(
                        f"send queue full ({link.max_queue}) for "
                        f"{msg.msg_type} {msg.src}->{msg.dst}: receiver is "
                        f"slower than sender"
                    )
                link.queue.append(msg)
                depth = len(link.queue)
            break
        self.stats.record_queue_depth(depth)
        self._wake(link)

    def _wake(self, link: _Link) -> None:
        if threading.get_ident() == self._loop_tid:
            link.wake.set()
            return
        try:
            self._loop.call_soon_threadsafe(link.wake.set)
        except RuntimeError:
            pass  # loop shut down under us; close() owns cleanup

    def now(self) -> float:
        return (time.monotonic() - self._t0) * TIME_SCALE

    def schedule(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        self._ensure_loop()
        loop = self._loop
        # ``run`` (which the loop's handle holds) sees the cancelled
        # flag but never the handle: handle -> run -> handle would be a
        # cycle outliving every timer the loop dropped unrun at close.
        cancelled = False
        handle: Optional[asyncio.Handle] = None

        def run() -> None:
            if cancelled or self._closed:
                return
            try:
                fn()
            except (TransportError, OSError):
                # Timer fired in the close() race window; the transport
                # is (or is becoming) dead, so the failure is expected.
                if not self._closed:
                    raise

        def create() -> None:
            nonlocal handle
            if not cancelled:
                handle = (
                    loop.call_later(delay / TIME_SCALE, run)
                    if delay > 0 else loop.call_soon(run)
                )

        def drop() -> None:
            if handle is not None:
                handle.cancel()

        def cancel() -> None:
            nonlocal cancelled
            cancelled = True
            if threading.get_ident() == self._loop_tid:
                drop()
                return
            try:
                loop.call_soon_threadsafe(drop)
            except RuntimeError:
                pass

        try:
            if threading.get_ident() == self._loop_tid:
                create()
            elif delay > 0:
                loop.call_soon_threadsafe(create)
            else:  # one loop turn, not two: ``run`` itself is the callback
                handle = loop.call_soon_threadsafe(run)
        except RuntimeError:
            raise TransportError("transport closed")
        return TimerHandle(cancel)

    def completion(self, name: str = "") -> ThreadCompletion:
        return ThreadCompletion(name)

    def close(self, join_timeout: float = 2.0) -> None:
        if self._closed:
            return
        self._closed = True
        super().close()
        loop, thread = self._loop, self._loop_thread
        if loop is None:
            return
        if thread is threading.current_thread():
            # close() from a handler/timer on the loop itself: blocking
            # on the shutdown would deadlock — the loop stops once it is
            # done.
            loop.create_task(self._shutdown()).add_done_callback(
                lambda _task: loop.stop())
            return
        try:
            fut = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            fut.result(timeout=join_timeout)
        except Exception:
            pass
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        if thread is not None and thread is not threading.current_thread():
            thread.join(join_timeout)

    async def _shutdown(self) -> None:
        """Stop the writer and the server, and let every connection
        finish closing before the loop stops: a socket left to the
        garbage collector would be reported as unclosed."""
        link = self._link
        if link is not None and link.task is not None:
            link.task.cancel()
            try:
                await link.task  # its writer closes on the way out
            except (asyncio.CancelledError, Exception):
                pass
        listener, self._listener = self._listener, None
        if listener is not None:
            # The loop's reader holds our accept method: removing it
            # breaks that cycle.
            asyncio.get_running_loop().remove_reader(listener.fileno())
            listener.close()
        if self._accepting:
            await asyncio.wait(list(self._accepting), timeout=1.0)
        conns = list(self._server_conns)
        for conn in conns:
            conn.abort()
        if conns:
            await asyncio.wait([conn.lost for conn in conns], timeout=1.0)
        self._dialled.clear()
