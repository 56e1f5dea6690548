"""Reliable-delivery sublayer: flights, ACK vectors and one retransmit
timer over any transport.

The Flecc FSMs (paper §4.2) assume reliable, ordered delivery between
the directory manager and the cache managers.  The raw transports do
not guarantee that — :class:`~repro.net.sim_transport.SimTransport`
supports injected drops/duplicates/delays and the TCP backend can lose
frames to a vanished endpoint.  :class:`ReliableTransport` wraps any
inner :class:`~repro.net.transport.Transport` and restores the FSMs'
assumptions the way TCP does, one message per segment:

- **Connections**: the sublayer binds one control endpoint per
  topology node its senders sit on (a single one, ``rel-ctl``, where
  the inner transport has no placement).  A connection is the pair
  (sending control endpoint, receiving control endpoint): one per node
  pair under a sim topology, a single one without placement.
- **Flights**: each logical message leaves at once as one ``R_DATA``
  flight ``{"seq", "ctl", "f", "m"}``: the connection's sequence
  number, the sender's control address, the floor (see below) and, in
  ``"m"``, the message itself, keeping its own ``msg_id`` and
  ``reply_to``.  A flight leaves from its message's source and goes to
  the receiving control endpoint, which is always bound, so the inner
  transport charges the message's path latency and a vanished
  destination is the hand-off's business, not the wire's.
- **At-least-once**: unacknowledged flights sit in one deadline heap
  served by a single inner timer; an expired one is retransmitted (with
  ``"n"``, the attempt number) with exponential backoff (plus seeded
  jitter, so synchronized retry storms de-correlate deterministically)
  up to :data:`MAX_ATTEMPTS` times, then given up like a raw
  transport's loss.
- **ACK vectors**: the receiver does not answer each flight.  It notes
  ``seq[, attempt]`` as owed on the connection and flushes once per
  loop turn: one ``R_ACK`` per connection, payload ``{"acks": [[sender
  ctl, receiver ctl, [seq | [seq, attempt], ...]]]}``.  Every ACK
  crosses the inner transport, local senders included.  On a binary
  link both envelopes travel as records of their own (``0x11`` /
  ``0x10`` in :mod:`repro.net.binary_codec`) that imply these keys
  instead of spelling them, so keep their shape or they fall back to
  generic dicts.
- **At-most-once**: the receiver keeps a per-connection cursor of the
  last in-order flight delivered plus a bounded window of seen flight
  msg_ids; duplicate flights (retransmissions whose ACK was lost, or
  duplicates injected below the sublayer) are suppressed and owed an
  ACK again, every time they arrive.
- **In-order handoff**: out-of-order flights are buffered and their
  messages handed to their endpoints in send order, per connection, so
  delayed/reordered frames cannot interleave a round's replies.
- **No stranded connection**: unbinding an address abandons its
  unacknowledged flights (never sent again, not counted as given up).
  A flight's floor ``"f"`` is the lowest sequence number its sender
  still retransmits, so every flight below it was acknowledged,
  abandoned or given up: the receiver hands off what it buffered below
  the floor and stops waiting for the rest.
- **Learned timeout**: per connection, ``RTO = max(ack_timeout, srtt
  + 4*rttvar)``.  The ACK echoes the attempt number it answers, so every
  ACK is an unambiguous round-trip sample — including the slow
  originals whose retransmission was spurious, which is exactly what
  the estimator has to see.

Over a reliable inner transport (:attr:`Transport.reliable`, e.g. the
aio link, which replays what a dropped connection did not deliver) the
sublayer steps aside, as the end-to-end argument asks (Saltzer, Reed &
Clark, 1984): it binds each endpoint on the inner transport under its
own address and forwards every send, with no flights, ACKs, timer or
dedup.  Only the inner transport's refusal of a send for backpressure
is still its business: the refused message and every later one wait
in order in an overflow, offered again on the retransmission backoff
until :data:`MAX_ATTEMPTS` runs out, so refusal stays flow control.

Threads: ``send`` may be called from any thread while the inner
transport's delivery thread runs the ACK and timer paths; one lock
guards the sublayer's state and is never held across ``inner.send`` or
a handler hand-off.

Accounting: ``self.stats`` records the *logical* messages the protocol
sent — exactly what a raw transport would record for the same run, so
the paper's Fig 4 efficiency metric is unchanged by the sublayer.  The
wire overhead is visible separately in ``inner.stats`` and in this
layer's counters, which count flights: ``acks_sent`` (sequence numbers
acknowledged, one per flight received), ``ack_frames_sent`` (``R_ACK``
vectors that carried them), ``retransmits``, ``duplicates_suppressed``
and ``dropped`` (flights given up); a flight being one message, they
count messages as well.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.message import R_ACK, R_DATA, Message, read_messages
from repro.net.transport import Endpoint, LayeredTransport, TimerHandle, Transport

# R_DATA and R_ACK are the sublayer's envelope vocabulary.  Protocol
# engines never see either type: a flight is unpacked before handoff,
# R_ACK terminates at the sublayer.

Conn = Tuple[str, str]  # (sending control address, receiving control address)

# Flight ids remembered per receiving connection for duplicate
# suppression, and the ceiling (transport time units) on one
# retransmission delay.
DEDUP_WINDOW = 1024
MAX_BACKOFF = 200.0

# Transmissions of one flight before it is given up, the factor each
# retransmission multiplies the timeout by, and the seeded spread of a
# retransmission delay (a uniform factor in [1 - JITTER, 1 + JITTER]).
MAX_ATTEMPTS = 12
BACKOFF = 1.5
JITTER = 0.1


def _flight(src: str, dst: str, seq: int, ctl: str, floor: int,
            msgs: List[Message], attempt: int = 1,
            msg_id: Optional[int] = None) -> Message:
    """An R_DATA flight, its keys in the order the binary record reads
    them (a retransmission's ``"n"`` last)."""
    payload: Dict[str, Any] = {"seq": seq, "ctl": ctl, "f": floor, "m": msgs}
    if attempt > 1:
        payload["n"] = attempt
    if msg_id is None:
        return Message(R_DATA, src, dst, payload)
    return Message(R_DATA, src, dst, payload, msg_id)


class _Outgoing:
    """Sender-side state for one flight; ``flight`` is dropped (None)
    once it is acknowledged, abandoned or given up."""

    __slots__ = ("conn", "seq", "flight", "sent_at")

    def __init__(self, conn: Conn, seq: int, flight: Message, now: float) -> None:
        self.conn = conn
        self.seq = seq
        self.flight: Optional[Message] = flight
        self.sent_at = [now]  # transmission time of attempt 1, 2, ...


class _ConnSender:
    """Sender-side state for one connection.  ``unacked`` holds its
    flights in sequence order, so its first key is the floor."""

    __slots__ = ("next_seq", "unacked", "srtt", "rttvar")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: Dict[int, _Outgoing] = {}
        self.srtt: Optional[float] = None
        self.rttvar = 0.0

    def floor(self) -> int:
        """The lowest sequence number still retransmitted (the next one
        to be sent when none is)."""
        return next(iter(self.unacked), self.next_seq + 1)

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


class _ConnReceiver:
    """Receiver-side state for one connection."""

    __slots__ = ("delivered_upto", "pending", "seen_ids")

    def __init__(self) -> None:
        self.delivered_upto = 0  # highest contiguously delivered seq
        self.pending: Dict[int, List[Message]] = {}  # out-of-order flights
        self.seen_ids: "OrderedDict[int, None]" = OrderedDict()


class ReliableTransport(LayeredTransport):
    """Flights + ACK/retransmit + dedup + in-order handoff over an inner
    transport.

    Endpoints bind on this transport exactly as on a raw one; only the
    sublayer's control endpoints bind on the inner transport, where its
    frames actually travel.  Clock, timers, completions, placement and
    codec selection are the inner backend's (:class:`LayeredTransport`):
    R_DATA/R_ACK envelopes are ordinary messages on the inner transport,
    so they ride whatever codec the inner transport speaks.
    ``ack_timeout`` is the initial and minimum retransmission timeout;
    ``seed`` seeds the retransmission jitter.

    Over an inner transport that is itself reliable the endpoints bind
    on it directly and sends are forwarded (see the module docstring).
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
        # Control endpoint per topology node (one, keyed None, where the
        # inner transport has no placement).
        self._ctl: Dict[Optional[str], Endpoint] = {}
        self._senders: Dict[Conn, _ConnSender] = {}
        self._receivers: Dict[Conn, _ConnReceiver] = {}
        self._unacked = 0
        # (deadline, push order, flight state), head = next to expire.
        # Acknowledged entries stay until the timer pops them.
        self._heap: List[Tuple[float, int, _Outgoing]] = []
        self._pushes = 0
        self._timer: Optional[TimerHandle] = None
        self._timer_at = 0.0
        self._timer_gen = 0
        # connection -> (an address of ours the vector leaves from, the
        # sequence numbers owed)
        self._owed: Dict[Conn, Tuple[str, List[Any]]] = {}
        self._acks_armed = False
        self._closed = False
        # The step-aside: over a reliable inner transport, the inner
        # endpoint each of ours is bound as, and the sends the inner
        # transport refused (with every later one), in send order, with
        # the attempt count of the oldest.
        self._forward = inner.reliable
        self._inner_eps: Dict[str, Endpoint] = {}
        self._overflow: Deque[Message] = deque()
        self._overflow_attempt = 1

    @property
    def reliable(self) -> bool:
        """True: this is what the sublayer provides, over any inner."""
        return True

    # -- control endpoints -------------------------------------------------
    @staticmethod
    def _ctl_name(node: Optional[str]) -> str:
        return "rel-ctl" if node is None else f"rel-ctl@{node}"

    def _node(self, address: str) -> Optional[str]:
        return self._inner_node_of(address) if self._inner_node_of else None

    def _ctl_for(self, address: str) -> str:
        """The control address serving ``address``, bound on first use
        (lock held)."""
        node = self._node(address)
        ep = self._ctl.get(node)
        if ep is None:
            name = self._ctl_name(node)
            ep = self._ctl[node] = self.inner.bind(name, self._on_frame)
            if node is not None:
                self.inner.place(name, node)
        return ep.address

    def _on_bind(self, ep: Endpoint) -> None:
        if self._forward:
            self._inner_eps[ep.address] = self.inner.bind(ep.address, ep.handler)

    def _on_unbind(self, ep: Endpoint) -> None:
        """Abandon the closed address's unacknowledged flights.
        Forwarding, its inner endpoint closes and its refused sends go."""
        addr = ep.address
        if self._forward:
            inner_ep = self._inner_eps.pop(addr, None)
            if inner_ep is not None:
                inner_ep.close()
            with self._lock:
                if any(m.src == addr for m in self._overflow):
                    self._overflow = deque(
                        m for m in self._overflow if m.src != addr)
            return
        with self._lock:
            for sender in self._senders.values():
                for seq, out in list(sender.unacked.items()):
                    if out.flight.src == addr:
                        out.flight = None
                        del sender.unacked[seq]
                        self._unacked -= 1

    # -- sending ---------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self._closed:
            raise TransportError("reliable transport closed")
        if self._forward:
            self._pass(msg)
            return
        with self._lock:
            # Logical accounting: what the protocol sent, envelope-free.
            self.stats.record(msg)
            conn = (self._ctl_for(msg.src), self._ctl_for(msg.dst))
            sender = self._senders.get(conn)
            if sender is None:
                sender = self._senders[conn] = _ConnSender()
            now = self.inner.now()
            floor = sender.floor()
            sender.next_seq = seq = sender.next_seq + 1
            flight = _flight(msg.src, conn[1], seq, conn[0], floor, [msg])
            out = sender.unacked[seq] = _Outgoing(conn, seq, flight, now)
            self._unacked += 1
            self._push(out, now + self._retry_delay(
                sender.rto(self.ack_timeout), 1))
        self._wire_send(flight)

    def _pass(self, msg: Message) -> None:
        """Forward ``msg`` to the reliable inner transport, behind any
        send it refused before."""
        with self._lock:
            self.stats.record(msg)
            if self._overflow:
                self._overflow.append(msg)
                return
        try:
            self.inner.send(msg)
        except TransportError:
            with self._lock:
                self._overflow.append(msg)
                if self._timer is None:
                    self._arm_overflow()

    def _arm_overflow(self) -> None:
        """Offer the overflow again after the backoff of its oldest
        message's next attempt (lock held)."""
        self._timer = self.inner.schedule(
            self._retry_delay(self.ack_timeout, self._overflow_attempt),
            self._offer_overflow)

    def _offer_overflow(self) -> None:
        """Re-offer refused sends, oldest first.  Each leaves the overflow
        only once the inner transport took it, so a send made meanwhile
        still finds the overflow non-empty and queues behind it."""
        with self._lock:
            self._timer = None
        while True:
            with self._lock:
                if self._closed or not self._overflow:
                    return
                msg = self._overflow[0]
            try:
                self.inner.send(msg)
            except TransportError:
                with self._lock:
                    if self._closed:
                        return
                    self._overflow_attempt += 1
                    if self._overflow_attempt > MAX_ATTEMPTS:
                        # Out of attempts: lost, like a raw transport's
                        # loss; the protocol's own watchdogs take over.
                        self._overflow.popleft()
                        self._overflow_attempt = 1
                        self.stats.record_drop(msg)
                    if self._overflow and self._timer is None:
                        self._arm_overflow()
                return
            with self._lock:
                self._overflow.popleft()
                self._overflow_attempt = 1

    def _wire_send(self, frame: Message) -> None:
        try:
            self.inner.send(frame)
        except TransportError:
            # The wire refused the frame (e.g. the aio send queue is
            # full); for data the retransmit timer is the recovery
            # path, for an ACK vector the sender's is.
            self.inner.stats.record_drop(frame)

    def _retry_delay(self, rto: float, attempt: int) -> float:
        delay = min(rto * BACKOFF ** (attempt - 1), MAX_BACKOFF)
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
                return
            now = self.inner.now()
            heap = self._heap
            while heap:
                deadline, _, out = heap[0]
                flight = out.flight
                if flight is not None and deadline > now:
                    break
                heappop(heap)
                if flight is None:
                    continue  # acknowledged or abandoned meanwhile
                sender = self._senders[out.conn]
                attempt = len(out.sent_at)
                if attempt >= MAX_ATTEMPTS:
                    # Out of attempts: behave like a raw transport
                    # losing the flight (the protocol's own watchdogs
                    # take over; later flights carry a floor past it).
                    out.flight = None
                    del sender.unacked[out.seq]
                    self._unacked -= 1
                    self.stats.record_drop(flight)
                    continue
                attempt += 1
                out.sent_at.append(now)
                self.stats.record_retransmit(flight)
                p = flight.payload
                resend.append(_flight(
                    flight.src, flight.dst, out.seq, p["ctl"], sender.floor(),
                    p["m"], attempt, flight.msg_id))
                self._pushes += 1
                heappush(heap, (now + self._retry_delay(
                    sender.rto(self.ack_timeout), attempt), self._pushes, out))
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
        else:  # the control endpoints speak nothing else
            self.inner.stats.record_drop(frame)

    def _on_ack(self, frame: Message) -> None:
        with self._lock:
            now = self.inner.now()
            try:
                for src, dst, seqs in frame.payload["acks"]:
                    sender = self._senders.get((src, dst))
                    if sender is None:
                        continue
                    for entry in seqs:
                        seq, attempt = (
                            (entry, 1) if entry.__class__ is int else entry)
                        out = sender.unacked.pop(seq, None)
                        if out is None:
                            continue  # acknowledged before (a re-ACK)
                        if 1 <= attempt <= len(out.sent_at):
                            sender.observe(now - out.sent_at[attempt - 1])
                        # The heap entry stays until the timer pops it;
                        # the flight it pins does not.
                        out.flight = None
                        self._unacked -= 1
            except (KeyError, TypeError, ValueError):
                # Not an ACK vector: dropped from the bad entry on.
                self.inner.stats.record_drop(frame)

    def _on_data(self, frame: Message) -> None:
        p = frame.payload
        try:
            conn = (p["ctl"], frame.dst)
            seq, floor = p["seq"], p["f"]
            msgs = read_messages(p["m"])
        except (KeyError, TypeError):  # not a flight (an older envelope?)
            self.inner.stats.record_drop(frame)
            return
        ready: List[List[Message]] = []
        with self._lock:
            if self._closed:
                return
            # Always owe an ACK — the previous one may have been lost.
            # The vector leaves from an address its flights were for,
            # so the inner transport charges it their path latency.
            owed = self._owed.get(conn)
            if owed is None:
                owed = self._owed[conn] = (
                    msgs[0].dst if msgs else frame.dst, [])
            owed[1].append([seq, p["n"]] if "n" in p else seq)
            self.stats.record_ack(frame)
            if not self._acks_armed:
                self._acks_armed = True
                self.inner.schedule(0.0, self._flush_acks)
            recv = self._receivers.get(conn)
            if recv is None:
                recv = self._receivers[conn] = _ConnReceiver()
            if (
                seq <= recv.delivered_upto
                or seq in recv.pending
                or frame.msg_id in recv.seen_ids
            ):
                self.stats.record_duplicate_suppressed(frame)
            else:
                recv.seen_ids[frame.msg_id] = None
                while len(recv.seen_ids) > DEDUP_WINDOW:
                    recv.seen_ids.popitem(last=False)
                recv.pending[seq] = msgs
            # Below the floor nothing more is coming: hand off what is
            # buffered there, in order, and stop waiting for the rest
            # (a duplicate's floor counts too: it may be newer).
            if floor > recv.delivered_upto + 1:
                for below in sorted(s for s in recv.pending if s < floor):
                    ready.append(recv.pending.pop(below))
                recv.delivered_upto = floor - 1
            # In-order handoff: the contiguous prefix is ready.
            while recv.delivered_upto + 1 in recv.pending:
                recv.delivered_upto += 1
                ready.append(recv.pending.pop(recv.delivered_upto))
        for flight in ready:
            for msg in flight:
                self._deliver(msg)

    def _flush_acks(self) -> None:
        """Send everything owed: one vector per connection, however many
        flights it acknowledges."""
        with self._lock:
            self._acks_armed = False
            owed, self._owed = self._owed, {}
            if self._closed:
                return
            self.stats.record_ack_frames(len(owed))
        for (theirs, ours), (src, seqs) in owed.items():
            self._wire_send(Message(R_ACK, src, theirs, {
                "acks": [[theirs, ours, seqs]]
            }))

    # -- introspection ---------------------------------------------------
    def in_flight_count(self) -> int:
        """Flights awaiting acknowledgement, and sends a reliable inner
        transport refused and has not yet taken (for tests/monitoring)."""
        return self._unacked + len(self._overflow)

    def rto(self, src: str, dst: str) -> float:
        """The current retransmission timeout of the connection src→dst
        traffic uses, before backoff and jitter: ``ack_timeout`` until
        its round trips say more."""
        conn = (self._ctl_name(self._node(src)), self._ctl_name(self._node(dst)))
        with self._lock:
            sender = self._senders.get(conn)
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
            self._overflow.clear()
            self._unacked = 0
            ctl, self._ctl = self._ctl, {}
        super().close()  # closes this transport's endpoints
        for ep in ctl.values():
            ep.close()
        self.inner.close()
