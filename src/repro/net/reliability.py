"""Reliable-delivery sublayer: ACK vectors + one retransmit timer over
any transport.

The Flecc FSMs (paper §4.2) assume reliable, ordered delivery between
the directory manager and the cache managers.  The raw transports do
not guarantee that — :class:`~repro.net.sim_transport.SimTransport`
supports injected drops/duplicates/delays and the TCP backend can lose
frames to a vanished endpoint.  :class:`ReliableTransport` wraps any
inner :class:`~repro.net.transport.Transport` and restores the FSMs'
assumptions at TCP's cost model — bookkeeping per segment, messages
per flight:

- **At-least-once**: every protocol message rides one ``R_DATA``
  envelope ``{"seq", "ctl", "t", "p", "i", "r"}`` — per-link sequence
  number, the sender's control address, then the logical message's
  type, payload, id and reply_to, flat (retransmissions add ``"n"``,
  the attempt number).  Unacknowledged envelopes sit in one deadline
  heap served by a single inner timer; an expired one is retransmitted
  with exponential backoff (plus seeded jitter, so synchronized retry
  storms de-correlate deterministically) up to :data:`MAX_ATTEMPTS`
  times, then given up like a raw transport's loss.
- **ACK vectors**: the receiver does not answer each frame.  It notes
  ``(link, seq[, attempt])`` as owed and flushes once per loop turn:
  one ``R_ACK`` per peer control address, payload ``{"acks": [[src,
  dst, [seq | [seq, attempt], ...]], ...]}``.  Every ACK crosses the
  inner transport, local senders included.  On a binary link both
  envelopes travel as records of their own (``0x0F`` / ``0x10`` in
  :mod:`repro.net.binary_codec`) that imply these keys instead of
  spelling them, so keep their shape or they fall back to generic dicts.
- **At-most-once**: the receiver keeps a per-link cursor of the last
  in-order sequence delivered plus a bounded window of seen envelope
  msg_ids; duplicate frames (retransmissions whose ACK was lost, or
  duplicates injected below the sublayer) are suppressed and owed an
  ACK again, every time they arrive.
- **In-order handoff**: out-of-order arrivals are buffered and handed
  to the destination endpoint in send order, so delayed/reordered
  frames cannot interleave a round's replies.
- **Learned timeout**: per link, ``RTO = max(ack_timeout, srtt +
  4*rttvar)``.  The ACK echoes the attempt number it answers, so every
  ACK is an unambiguous round-trip sample — including the slow
  originals whose retransmission was spurious, which is exactly what
  the estimator has to see.  A retransmit timer that itself fires late
  means the thread was busy and ACKs may sit unread behind it: the
  scan is put off once, by a quarter of ``ack_timeout``, before
  anything is declared lost.

Threads: ``send`` may be called from any thread while the inner
transport's delivery thread runs the ACK and timer paths; one lock
guards the sublayer's state and is never held across ``inner.send`` or
a handler hand-off.

Accounting: ``self.stats`` records the *logical* messages the protocol
sent — exactly what a raw transport would record for the same run, so
the paper's Fig 4 efficiency metric is unchanged by the sublayer.  The
wire overhead is visible separately in ``inner.stats`` and in this
layer's counters: ``acks_sent`` (sequence numbers acknowledged, one per
data frame received), ``ack_frames_sent`` (``R_ACK`` vectors that
carried them), ``retransmits`` and ``duplicates_suppressed``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.message import R_ACK, R_DATA, Message
from repro.net.transport import Endpoint, LayeredTransport, TimerHandle, Transport

# R_DATA and R_ACK are the sublayer's envelope vocabulary.  Protocol
# engines never see either type: R_DATA is unwrapped before handoff,
# R_ACK terminates at the sublayer.

Link = Tuple[str, str]  # (sender address, receiver address)

# A timer that fires later than this share of ack_timeout past its
# deadline ran behind a busy thread; the scan is then put off, once, by
# _LATE_DEFER * ack_timeout so ACKs already in the socket get read.
_LATE_FIRE = 0.1
_LATE_DEFER = 0.25

# Message ids remembered per receiving link for duplicate suppression,
# and the ceiling (transport time units) on one retransmission delay.
DEDUP_WINDOW = 1024
MAX_BACKOFF = 200.0

# Transmissions of one envelope before it is given up, the factor each
# retransmission multiplies the timeout by, and the seeded spread of a
# retransmission delay (a uniform factor in [1 - JITTER, 1 + JITTER]).
MAX_ATTEMPTS = 12
BACKOFF = 1.5
JITTER = 0.1


class _Outgoing:
    """Sender-side state for one envelope; ``envelope`` is dropped
    (None) once it is acknowledged, abandoned or given up."""

    __slots__ = ("link", "seq", "envelope", "sent_at")

    def __init__(self, link: Link, seq: int, envelope: Message, now: float) -> None:
        self.link = link
        self.seq = seq
        self.envelope: Optional[Message] = envelope
        self.sent_at = [now]  # transmission time of attempt 1, 2, ...


class _LinkSender:
    """Sender-side state for one directed link."""

    __slots__ = ("next_seq", "unacked", "srtt", "rttvar")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: Dict[int, _Outgoing] = {}
        self.srtt: Optional[float] = None
        self.rttvar = 0.0

    def rto(self, floor: float) -> float:
        if self.srtt is None:
            return floor
        return max(floor, self.srtt + 4.0 * self.rttvar)

    def observe(self, sample: float) -> None:
        """Fold one round-trip sample in (RFC 6298 gains, except that
        ``rttvar`` jumps to a larger error at once and decays slowly:
        one slow round trip predicts the next better than the mean)."""
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
            return
        err = sample - self.srtt
        self.srtt += err / 8.0
        dev = abs(err)
        if dev > self.rttvar:
            self.rttvar = dev
        else:
            self.rttvar += (dev - self.rttvar) / 16.0


class _LinkReceiver:
    """Receiver-side state for one directed link."""

    __slots__ = ("delivered_upto", "pending", "seen_ids")

    def __init__(self) -> None:
        self.delivered_upto = 0            # highest contiguously delivered seq
        self.pending: Dict[int, Message] = {}  # out-of-order buffer
        self.seen_ids: "OrderedDict[int, None]" = OrderedDict()


class ReliableTransport(LayeredTransport):
    """ACK/retransmit + dedup + in-order handoff over an inner transport.

    Endpoints bind on this transport exactly as on a raw one; each bind
    is mirrored onto the inner transport, where the sublayer's frames
    actually travel.  Clock, timers, completions, placement and codec
    selection are the inner backend's (:class:`LayeredTransport`):
    R_DATA/R_ACK envelopes are ordinary messages on the inner transport,
    so they ride whatever codec the inner transport speaks.
    ``ack_timeout`` is the initial and minimum retransmission timeout;
    ``seed`` seeds the retransmission jitter.
    """

    def __init__(
        self,
        inner: Transport,
        ack_timeout: float = 10.0,
        seed: int = 0,
    ) -> None:
        super().__init__(inner)
        if ack_timeout <= 0:
            raise TransportError("ack_timeout must be > 0")
        self.ack_timeout = ack_timeout
        from repro.sim.rng import stream_for

        self._jitter_rng = stream_for(seed, "reliability-jitter")
        self._inner_node_of = getattr(inner, "node_of", None)
        self._lock = threading.Lock()
        self._inner_eps: Dict[str, Endpoint] = {}
        # Control endpoints ACK vectors are addressed to, one per
        # topology node senders sit on (a single one, keyed None, where
        # the inner transport has no placement), so under a sim topology
        # a vector sees the latency of the links it covers.
        self._ctl: Dict[Optional[str], Endpoint] = {}
        self._senders: Dict[Link, _LinkSender] = {}
        self._receivers: Dict[Link, _LinkReceiver] = {}
        self._unacked = 0
        # (deadline, push order, envelope state), head = next to expire.
        # Acknowledged entries stay until the timer pops them.
        self._heap: List[Tuple[float, int, _Outgoing]] = []
        self._pushes = 0
        self._timer: Optional[TimerHandle] = None
        self._timer_at = 0.0
        self._timer_gen = 0
        self._deferred = False
        # (peer control address, our node) -> (an address of ours the
        # vector leaves from, link -> sequence numbers owed)
        self._owed: Dict[
            Tuple[str, Optional[str]], Tuple[str, Dict[Link, List[Any]]]
        ] = {}
        self._flush_armed = False
        self._closed = False

    # -- binding ---------------------------------------------------------
    def _on_bind(self, ep: Endpoint) -> None:
        self._inner_eps[ep.address] = self.inner.bind(ep.address, self._on_frame)

    def _on_unbind(self, ep: Endpoint) -> None:
        inner_ep = self._inner_eps.pop(ep.address, None)
        if inner_ep is not None:
            inner_ep.close()
        # Abandon retransmissions originating from the closed address.
        with self._lock:
            for link, sender in self._senders.items():
                if link[0] == ep.address and sender.unacked:
                    self._unacked -= len(sender.unacked)
                    for out in sender.unacked.values():
                        out.envelope = None
                    sender.unacked.clear()

    def _ctl_for(self, address: str) -> str:
        """The control address serving ``address`` (lock held)."""
        node = self._inner_node_of(address) if self._inner_node_of else None
        ep = self._ctl.get(node)
        if ep is None:
            base = "rel-ctl" if node is None else f"rel-ctl@{node}"
            name, n = base, 1
            while self.inner.is_bound(name):  # another sublayer, same inner
                n += 1
                name = f"{base}#{n}"
            ep = self._ctl[node] = self.inner.bind(name, self._on_frame)
            place = getattr(self.inner, "place", None)
            if node is not None and place is not None:
                place(name, node)
        return ep.address

    # -- sending ---------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self._closed:
            raise TransportError("reliable transport closed")
        link = (msg.src, msg.dst)
        with self._lock:
            # Logical accounting: what the protocol sent, envelope-free.
            self.stats.record(msg)
            sender = self._senders.get(link)
            if sender is None:
                sender = self._senders[link] = _LinkSender()
            sender.next_seq = seq = sender.next_seq + 1
            envelope = Message(R_DATA, msg.src, msg.dst, {
                "seq": seq, "ctl": self._ctl_for(msg.src), "t": msg.msg_type,
                "p": msg.payload, "i": msg.msg_id, "r": msg.reply_to,
            })
            now = self.inner.now()
            out = sender.unacked[seq] = _Outgoing(link, seq, envelope, now)
            self._unacked += 1
            self._push(out, now + self._retry_delay(sender, 1))
        self._wire_send(envelope)

    def _wire_send(self, frame: Message) -> None:
        try:
            self.inner.send(frame)
        except TransportError:
            # The wire refused the frame (e.g. the aio send queue is
            # full); for data the retransmit timer is the recovery
            # path, for an ACK vector the sender's is.
            self.inner.stats.record_drop(frame)

    def _retry_delay(self, sender: _LinkSender, attempt: int) -> float:
        delay = min(sender.rto(self.ack_timeout) * BACKOFF ** (attempt - 1),
                    MAX_BACKOFF)
        return delay * (1.0 + JITTER * (2.0 * self._jitter_rng.random() - 1.0))

    # -- the retransmit timer (lock held in _push/_arm) --------------------
    def _push(self, out: _Outgoing, deadline: float) -> None:
        self._pushes += 1
        heappush(self._heap, (deadline, self._pushes, out))
        if self._timer is None or deadline < self._timer_at:
            self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        # A cancelled timer may already be past the point of no return
        # on another thread; its generation tells _on_timer to ignore it.
        self._timer_gen = gen = self._timer_gen + 1
        self._timer_at = deadline
        self._timer = self.inner.schedule(
            max(0.0, deadline - self.inner.now()), lambda: self._on_timer(gen)
        )

    def _on_timer(self, gen: int) -> None:
        resend: List[Message] = []
        with self._lock:
            if gen != self._timer_gen or self._closed:
                return
            self._timer = None
            if self._unacked == 0:
                self._heap.clear()  # nothing to watch: the timer rests
                self._deferred = False
                return
            now = self.inner.now()
            late = now - self._timer_at > _LATE_FIRE * self.ack_timeout
            if late and not self._deferred:
                self._deferred = True
                self._arm(now + _LATE_DEFER * self.ack_timeout)
                return
            self._deferred = False
            heap = self._heap
            while heap:
                deadline, _, out = heap[0]
                envelope = out.envelope
                if envelope is not None and deadline > now:
                    break
                heappop(heap)
                if envelope is None:
                    continue  # acknowledged or abandoned meanwhile
                sender = self._senders[out.link]
                attempt = len(out.sent_at)
                if attempt >= MAX_ATTEMPTS:
                    # Out of attempts: behave like a raw transport
                    # losing the message (the protocol's own watchdogs
                    # take over).
                    out.envelope = None
                    del sender.unacked[out.seq]
                    self._unacked -= 1
                    self.stats.record_drop(envelope)
                    continue
                attempt += 1
                out.sent_at.append(now)
                self.stats.record_retransmit(envelope)
                resend.append(Message(
                    R_DATA, envelope.src, envelope.dst,
                    {**envelope.payload, "n": attempt}, msg_id=envelope.msg_id,
                ))
                self._pushes += 1
                heappush(heap, (now + self._retry_delay(sender, attempt), self._pushes, out))
            if self._unacked == 0:
                heap.clear()
            else:
                self._arm(heap[0][0])
        for frame in resend:
            self._wire_send(frame)

    # -- receiving -------------------------------------------------------
    def _on_frame(self, frame: Message) -> None:
        if frame.msg_type == R_DATA:
            self._on_data(frame)
        elif frame.msg_type == R_ACK:
            self._on_ack(frame)
        else:  # a raw message that bypassed the sublayer — hand off as-is
            self._deliver(frame)

    def _on_ack(self, frame: Message) -> None:
        with self._lock:
            now = self.inner.now()
            for src, dst, seqs in frame.payload["acks"]:
                sender = self._senders.get((src, dst))
                if sender is None:
                    continue
                for entry in seqs:
                    seq, attempt = (entry, 1) if entry.__class__ is int else entry
                    out = sender.unacked.pop(seq, None)
                    if out is None:
                        continue  # acknowledged before (a re-ACK)
                    if 1 <= attempt <= len(out.sent_at):
                        sender.observe(now - out.sent_at[attempt - 1])
                    # The heap entry stays until the timer pops it; the
                    # envelope it pins does not.
                    out.envelope = None
                    self._unacked -= 1

    def _on_data(self, frame: Message) -> None:
        link = (frame.src, frame.dst)
        p = frame.payload
        seq = p["seq"]
        ready: List[Message] = []
        with self._lock:
            if self._closed:
                return
            # Always owe an ACK — the previous one may have been lost.
            # One vector per sender control address and receiving node:
            # it leaves from an endpoint it acknowledges for, so the
            # inner transport routes it over the links it covers.
            node = self._inner_node_of(frame.dst) if self._inner_node_of else None
            group = self._owed.get((p["ctl"], node))
            if group is None:
                group = self._owed[(p["ctl"], node)] = (frame.dst, {})
            group[1].setdefault(link, []).append(
                [seq, p["n"]] if "n" in p else seq
            )
            self.stats.record_ack(frame)
            if not self._flush_armed:
                self._flush_armed = True
                self.inner.schedule(0.0, self._flush_acks)
            recv = self._receivers.get(link)
            if recv is None:
                recv = self._receivers[link] = _LinkReceiver()
            if (
                seq <= recv.delivered_upto
                or seq in recv.pending
                or frame.msg_id in recv.seen_ids
            ):
                self.stats.record_duplicate_suppressed(frame)
                return
            recv.seen_ids[frame.msg_id] = None
            while len(recv.seen_ids) > DEDUP_WINDOW:
                recv.seen_ids.popitem(last=False)
            recv.pending[seq] = Message(
                p["t"], frame.src, frame.dst, p["p"], p["i"], p["r"]
            )
            # In-order handoff: the contiguous prefix is ready.
            while recv.delivered_upto + 1 in recv.pending:
                recv.delivered_upto += 1
                ready.append(recv.pending.pop(recv.delivered_upto))
        for msg in ready:
            self._deliver(msg)

    def _flush_acks(self) -> None:
        """Send everything owed: one vector per peer control address
        (and receiving node), however many frames and links it covers."""
        with self._lock:
            self._flush_armed = False
            owed, self._owed = self._owed, {}
            if self._closed:
                return
            self.stats.record_ack_frames(len(owed))
        for (theirs, _node), (ours, by_link) in owed.items():
            self._wire_send(Message(R_ACK, ours, theirs, {
                "acks": [[src, dst, seqs] for (src, dst), seqs in by_link.items()]
            }))

    # -- introspection ---------------------------------------------------
    def in_flight_count(self) -> int:
        """Envelopes awaiting acknowledgement (for tests/monitoring)."""
        return self._unacked

    def rto(self, src: str, dst: str) -> float:
        """The link's current retransmission timeout, before backoff
        and jitter: ``ack_timeout`` until its round trips say more."""
        with self._lock:
            sender = self._senders.get((src, dst))
            return sender.rto(self.ack_timeout) if sender else self.ack_timeout

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._heap.clear()
            self._senders.clear()
            self._owed.clear()
            self._unacked = 0
            ctl, self._ctl = self._ctl, {}
        super().close()  # closes reliable endpoints -> unbinds inner ones
        for ep in ctl.values():
            ep.close()
        self.inner.close()
