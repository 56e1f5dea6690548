"""The aio link carries the delivery guarantee itself, and the reliable
sublayer steps aside over it.

A mux link that dies hands what its server connection never consumed,
then what was still queued, to its replacement, which re-sends it in
order; the old server connection is aborted first, so nothing arrives
twice.  ``Transport.reliable`` states the guarantee per class, and
``ReliableTransport`` over a transport that has it only forwards.
"""

import threading
import time
from collections import Counter

import pytest

from repro.net import AioTcpTransport, Message, ReliableTransport, SimTransport
from repro.net import aio_transport
from repro.net.aio_transport import BAD_FRAME
from repro.net.message import R_ACK, R_DATA
from repro.net.transport import Transport
from repro.sim.kernel import SimKernel
from tests.net.composed_rig import BAD_FRAME_BYTES, drive_through_link_loss


def _wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _on_loop(tr, fn):
    """Run ``fn()`` on the transport's loop thread and wait for it."""
    done = threading.Event()

    def run():
        try:
            fn()
        finally:
            done.set()

    tr._loop.call_soon_threadsafe(run)
    assert done.wait(5.0)


def _abort_server_connections(tr):
    _on_loop(tr, lambda: [c.abort() for c in list(tr._server_conns)])


@pytest.fixture()
def transport():
    tr = AioTcpTransport()
    yield tr
    tr.close()


@pytest.fixture()
def held(monkeypatch):
    """While ``held["on"]``, a newly accepted connection reads nothing:
    what the link writes to it stays unconsumed."""
    state = {"on": False, "conns": []}
    made = aio_transport._ServerConn.connection_made

    def connection_made(self, transport):
        made(self, transport)
        if state["on"]:
            transport.pause_reading()
            state["conns"].append(self)

    monkeypatch.setattr(aio_transport._ServerConn, "connection_made",
                        connection_made)
    return state


# ---------------------------------------------------------------------------
# Replay on the raw link
# ---------------------------------------------------------------------------


def test_two_link_deaths_in_a_row_keep_send_order(transport, held):
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    transport.send(Message("PING", "a", "b", {"i": 0}))
    assert _wait_for(lambda: got == [0])
    first = transport._link
    # From here on no server connection reads: what a link writes stays
    # unconsumed until its connection is dropped.
    held["on"] = True
    for i in range(1, 6):
        transport.send(Message("PING", "a", "b", {"i": i}))
    _abort_server_connections(transport)  # the first link dies
    assert _wait_for(lambda: transport._link is not first
                     and len(held["conns"]) == 1)
    second = transport._link
    for i in range(6, 11):
        transport.send(Message("PING", "a", "b", {"i": i}))
    # The five frames the first link never delivered, re-sent, then five.
    assert _wait_for(lambda: len(second.unconsumed) == 10)
    assert got == [0]
    _abort_server_connections(transport)  # the second link dies too
    assert _wait_for(lambda: transport._link is not second
                     and len(held["conns"]) == 2)
    third = transport._link
    assert _wait_for(lambda: len(third.unconsumed) == 10)
    held["on"] = False
    _on_loop(transport, held["conns"][-1].transport.resume_reading)
    assert _wait_for(lambda: len(got) == 11)
    time.sleep(0.05)
    assert got == list(range(11))
    assert transport.stats.dropped == 0 and transport.handler_errors == []
    assert not third.unconsumed


def test_a_send_racing_the_hand_over_arrives_exactly_once(transport):
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    n = 3000

    def sender():
        for i in range(n):
            transport.send(Message("PING", "a", "b", {"i": i}))
            if i % 100 == 0:
                time.sleep(0.001)

    thread = threading.Thread(target=sender)
    thread.start()
    links = set()
    for _ in range(5):
        time.sleep(0.005)
        links.add(id(transport._link))
        _abort_server_connections(transport)
    thread.join(10.0)
    assert _wait_for(lambda: len(got) >= n, timeout=10.0)
    time.sleep(0.05)
    assert got == list(range(n))
    assert transport.stats.dropped == 0
    assert len(links) > 1, "no link was replaced while the sender ran"


def test_a_bad_frame_is_dropped_once_and_never_replayed(transport, caplog):
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    transport.send(Message("PING", "a", "b", {"i": 0}))
    assert _wait_for(lambda: got == [0])
    encode = transport._encode_flush

    def with_a_bad_frame(msgs, codec):
        # Once: the flush's first frame, an undecodable one, the rest.
        del transport._encode_flush
        frames = encode(msgs, codec)
        return [frames[0], BAD_FRAME_BYTES, *frames[1:]]

    transport.pause_writes()
    for i in (1, 2, 3):
        transport.send(Message("PING", "a", "b", {"i": i}))
    transport._encode_flush = with_a_bad_frame
    with caplog.at_level("WARNING", logger="repro.net.aio_transport"):
        transport.resume_writes()
        # 1 arrives on the first link, 2 and 3 after the bad frame cost
        # it: on its replacement, which does not send the bad frame.
        assert _wait_for(lambda: got == [0, 1, 2, 3])
        transport.send(Message("PING", "a", "b", {"i": 4}))
        assert _wait_for(lambda: got == [0, 1, 2, 3, 4])
    time.sleep(0.05)
    assert [kind for kind, _ in transport.handler_errors] == [BAD_FRAME]
    assert transport.stats.dropped == 0
    lost = [r.getMessage() for r in caplog.records
            if "mux link lost" in r.getMessage()]
    assert len(lost) == 1 and "2 unconsumed" in lost[0]


def test_zero_delay_timers_from_another_thread_run_in_call_order(transport):
    ran = []
    done = threading.Event()
    gate = threading.Event()
    # The loop waits in the first timer until all are scheduled, so the
    # cancel below lands before the cancelled timer's turn.
    transport.schedule(0.0, lambda: gate.wait(5.0))
    handles = [
        transport.schedule(0.0, lambda i=i: ran.append(i)) for i in range(50)
    ]
    handles[17].cancel()
    transport.schedule(0.0, done.set)
    gate.set()
    assert done.wait(5.0)
    assert ran == [i for i in range(50) if i != 17]


# ---------------------------------------------------------------------------
# Reliable is a fact of the class; the sublayer steps aside over it
# ---------------------------------------------------------------------------


class _PassThrough(Transport):
    """A wrapper that is not a LayeredTransport, as a tracing layer is:
    it binds and sends on ``inner`` and borrows its clock."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.stats = inner.stats
        self._inner_eps = {}

    def _on_bind(self, ep):
        self._inner_eps[ep.address] = self.inner.bind(ep.address, ep.handler)

    def _on_unbind(self, ep):
        self._inner_eps.pop(ep.address).close()

    def send(self, msg):
        self.inner.send(msg)

    def now(self):
        return self.inner.now()

    def schedule(self, delay, fn):
        return self.inner.schedule(delay, fn)

    def completion(self, name=""):
        return self.inner.completion(name)

    def close(self):
        super().close()
        self.inner.close()


def test_reliable_is_a_fact_of_each_class():
    sim = SimTransport(SimKernel())
    aio = AioTcpTransport()
    try:
        assert sim.reliable is False
        assert aio.reliable is True
        assert ReliableTransport(SimTransport(SimKernel())).reliable is True
        assert _PassThrough(sim).reliable is False
        assert _PassThrough(aio).reliable is True
        with pytest.raises(AttributeError):
            aio.reliable = False
    finally:
        aio.close()


@pytest.mark.parametrize("wrapped", [False, True], ids=["aio", "wrapped-aio"])
def test_over_a_reliable_inner_the_sublayer_only_forwards(wrapped):
    wire = AioTcpTransport(codec="binary")
    inner = _PassThrough(wire) if wrapped else wire
    rel = ReliableTransport(inner, ack_timeout=50.0)
    try:
        got = []
        rel.bind("src", lambda m: None)
        rel.bind("dst", lambda m: got.append(m.payload["i"]))
        for i in range(200):
            rel.send(Message("SEQ", "src", "dst", {"i": i}))
        assert _wait_for(lambda: len(got) == 200)
        assert got == list(range(200))
        assert rel.in_flight_count() == 0
        assert wire.stats.by_type[R_DATA] == wire.stats.by_type[R_ACK] == 0
        assert wire.stats.by_type["SEQ"] == 200
        assert rel.stats.total == 200
        assert rel.stats.acks_sent == rel.stats.retransmits == 0
        # Only the protocol's own addresses are bound below: no rel-ctl.
        assert sorted(wire.endpoints()) == ["dst", "src"]
        rel._endpoints["dst"].close()  # and closing one closes it below
        assert sorted(wire.endpoints()) == ["src"]
    finally:
        rel.close()


def test_refused_forwarded_sends_wait_in_order_behind_the_first(monkeypatch):
    from repro.net import reliability

    monkeypatch.setattr(reliability, "MAX_ATTEMPTS", 3)
    wire = AioTcpTransport(max_queue=2)
    # First re-offer ~50 ms on: after the checks just below.
    rel = ReliableTransport(wire, ack_timeout=50.0)
    try:
        got = []
        rel.bind("src", lambda m: None)
        rel.bind("dst", lambda m: got.append(m.payload["i"]))
        wire.pause_writes()
        for i in range(6):
            rel.send(Message("SEQ", "src", "dst", {"i": i}))
        # Two queued below; the first refusal and every later send wait.
        assert rel.in_flight_count() == 4
        assert wire.stats.backpressure_stalls == 1
        # Three attempts later the oldest waiting send is given up, as
        # a raw transport's loss; the rest keep their order.
        assert _wait_for(lambda: rel.stats.dropped >= 1)
        wire.resume_writes()
        assert _wait_for(lambda: rel.in_flight_count() == 0)
        assert _wait_for(lambda: len(got) == 6 - rel.stats.dropped)
        assert got == sorted(got) and got[:2] == [0, 1]
    finally:
        rel.close()


# ---------------------------------------------------------------------------
# The composed plane loses its mux connection mid-burst
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fault", ["drop", "bad_frame"])
def test_the_composed_plane_rides_out_a_lost_link(tmp_path, fault):
    # drive_through_link_loss checks every op and the end state.
    run = drive_through_link_loss(str(tmp_path), fault)
    assert run["replaced"], "the mux link never died"
    twice = [i for i, n in Counter(run["delivered"]).items() if n > 1]
    assert twice == [], f"delivered more than once: {twice}"
    assert run["wire"].dropped == 0 and run["logical"].dropped == 0
    assert run["errors"] == ([BAD_FRAME] if fault == "bad_frame" else [])
    # The sublayer stepped aside: nothing but protocol messages crossed.
    assert run["wire"].by_type[R_DATA] == run["wire"].by_type[R_ACK] == 0
    assert run["logical"].retransmits == 0
