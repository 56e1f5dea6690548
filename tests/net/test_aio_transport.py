"""Unit tests for repro.net.aio_transport (event-loop TCP on localhost).

The asyncio backend must honour the Transport contract — framing, the
transport's codec on the wire, completion semantics — plus the three things its event
loop adds: connection multiplexing, write coalescing, and bounded-queue
backpressure.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import CodecError, TransportError
from repro.net import (
    AioTcpTransport,
    BinaryCodec,
    JsonCodec,
    Message,
    ThreadCompletion,
    resolve_transport,
)
from repro.net.aio_transport import BAD_FRAME
from repro.net.message import BATCH


@pytest.fixture()
def transport():
    tr = AioTcpTransport()
    yield tr
    tr.close()


def test_send_and_receive_over_event_loop(transport):
    got = []
    done = threading.Event()

    def handler(m):
        got.append(m)
        done.set()

    transport.bind("a", lambda m: None)
    transport.bind("b", handler)
    transport.send(Message("HELLO", "a", "b", {"x": 1}))
    assert done.wait(5.0)
    assert got[0].msg_type == "HELLO" and got[0].payload == {"x": 1}


def test_request_reply_roundtrip(transport):
    done = threading.Event()
    answers = []

    def server(m):
        if m.msg_type == "ASK":
            server_ep.send(m.reply("ANSWER", {"n": m.payload["n"] * 2}))

    def client(m):
        answers.append(m)
        done.set()

    server_ep = transport.bind("server", server)
    transport.bind("client", client)
    transport.send(Message("ASK", "client", "server", {"n": 21}))
    assert done.wait(5.0)
    assert answers[0].msg_type == "ANSWER" and answers[0].payload == {"n": 42}
    assert answers[0].reply_to is not None


def test_many_messages_arrive_in_order(transport):
    got = []
    done = threading.Event()

    def handler(m):
        got.append(m.payload["i"])
        if len(got) == 200:
            done.set()

    transport.bind("src", lambda m: None)
    transport.bind("dst", handler)
    for i in range(200):
        transport.send(Message("SEQ", "src", "dst", {"i": i}))
    assert done.wait(10.0)
    assert got == list(range(200))


def test_endpoints_multiplex_one_server_port(transport):
    done = threading.Event()
    seen = []

    def handler(m):
        seen.append(m.src)
        if len(seen) == 3:
            done.set()

    transport.bind("sink", handler)
    for name in ("a", "b", "c"):
        transport.bind(name, lambda m: None)
    port = transport.port
    for name in ("a", "b", "c"):
        transport.send(Message("PING", name, "sink", {}))
    assert done.wait(5.0)
    # All endpoints share the transport's single listening socket.
    assert transport.port == port
    assert sorted(seen) == ["a", "b", "c"]


def test_binary_codec_negotiates_like_tcp():
    tr = AioTcpTransport(codec="binary")
    try:
        done = threading.Event()
        tr.bind("x", lambda m: None)
        tr.bind("y", lambda m: done.set())
        msg = Message("PING", "x", "y", {})
        tr.send(msg)
        assert done.wait(5.0)
        assert tr.preferred_codec == "binary"
        # The one frame on the wire is the binary encoding, nothing else.
        assert tr.stats.bytes_sent == len(BinaryCodec().encode(msg))
    finally:
        tr.close()


def test_json_is_the_default_codec(transport):
    done = threading.Event()
    transport.bind("x", lambda m: None)
    transport.bind("y", lambda m: done.set())
    msg = Message("PING", "x", "y", {})
    transport.send(msg)
    assert done.wait(5.0)
    assert transport.preferred_codec == "json"
    assert transport.stats.bytes_sent == len(JsonCodec().encode(msg))


def test_completion_bridges_loop_to_caller_thread(transport):
    comp = transport.completion("probe")
    assert isinstance(comp, ThreadCompletion)

    def resolver(m):
        comp.resolve(m.payload["v"])

    transport.bind("p", lambda m: None)
    transport.bind("q", resolver)
    transport.send(Message("SET", "p", "q", {"v": 7}))
    assert comp.wait(5.0) == 7


def test_schedule_and_cancel(transport):
    fired = []
    done = threading.Event()
    transport.schedule(5.0, lambda: (fired.append("a"), done.set()))
    handle = transport.schedule(5.0, lambda: fired.append("b"))
    handle.cancel()
    assert done.wait(5.0)
    time.sleep(0.05)
    assert fired == ["a"]


def test_send_to_unknown_destination_counts_a_drop(transport):
    transport.bind("known", lambda m: None)
    transport.send(Message("PING", "known", "ghost", {}))
    time.sleep(0.05)
    assert transport.stats.dropped >= 1


def test_send_after_close_raises():
    tr = AioTcpTransport()
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    tr.close()
    with pytest.raises(TransportError):
        tr.send(Message("PING", "a", "b", {}))


def test_close_is_idempotent(transport):
    transport.bind("a", lambda m: None)
    transport.send(Message("PING", "a", "a", {}))
    transport.close()
    transport.close()


def test_handler_exceptions_are_captured_not_fatal(transport):
    done = threading.Event()

    def bad(m):
        raise RuntimeError("boom")

    transport.bind("src", lambda m: None)
    transport.bind("bad", bad)
    transport.bind("ok", lambda m: done.set())
    transport.send(Message("PING", "src", "bad", {}))
    transport.send(Message("PING", "src", "ok", {}))
    assert done.wait(5.0)
    assert any("boom" in str(e) for e in transport.handler_errors)


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def test_burst_coalesces_into_fewer_frames():
    tr = AioTcpTransport()
    try:
        got = []
        done = threading.Event()

        def handler(m):
            got.append(m.payload["i"])
            if len(got) == 100:
                done.set()

        tr.bind("src", lambda m: None)
        tr.bind("dst", handler)
        tr.pause_writes()  # let the burst pile up behind the writer
        for i in range(100):
            tr.send(Message("SEQ", "src", "dst", {"i": i}))
        tr.resume_writes()
        assert done.wait(10.0)
        assert got == list(range(100))
        # Messages shared flushes (fewer drains), but without
        # wrap_batches each one is still its own encoded frame.
        assert tr.stats.flushes_coalesced > 0
        assert tr.stats.encodes == 100
    finally:
        tr.close()


def test_wrap_batches_preserves_logical_type_counts():
    tr = AioTcpTransport(wrap_batches=True)
    try:
        got = []
        done = threading.Event()

        def handler(m):
            got.append(m.payload["i"])
            if len(got) == 60:
                done.set()

        tr.bind("src", lambda m: None)
        tr.bind("dst", handler)
        tr.pause_writes()
        for i in range(60):
            tr.send(Message("DATA", "src", "dst", {"i": i}))
        tr.resume_writes()
        assert done.wait(10.0)
        assert got == list(range(60))
        # Fig-4 counting: the BATCH envelope is invisible to by_type —
        # the 60 logical messages are what is recorded.
        assert tr.stats.by_type.get("DATA") == 60
        assert "BATCH" not in tr.stats.by_type
        assert tr.stats.batches_sent >= 1
        assert tr.stats.messages_coalesced >= 2
    finally:
        tr.close()


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_full_send_queue_refuses_and_counts_stalls():
    tr = AioTcpTransport(max_queue=8)
    try:
        got = []
        all_in = threading.Event()

        def handler(m):
            got.append(m.payload["i"])
            if len(got) == 8:
                all_in.set()

        tr.bind("src", lambda m: None)
        tr.bind("dst", handler)
        tr.pause_writes()  # simulate a reader that cannot drain
        sent = stalled = 0
        for i in range(20):
            try:
                tr.send(Message("SEQ", "src", "dst", {"i": i}))
                sent += 1
            except TransportError:
                stalled += 1
        assert sent == 8 and stalled == 12
        assert tr.stats.backpressure_stalls == 12
        assert tr.stats.send_queue_hwm == 8
        tr.resume_writes()  # queue drains: nothing queued was lost
        assert all_in.wait(5.0)
        assert got == list(range(8))
    finally:
        tr.close()


def test_stacked_reliable_transport_recovers_stalled_frames(monkeypatch):
    from repro.net import reliability
    from repro.net.reliability import ReliableTransport

    monkeypatch.setattr(reliability, "MAX_ATTEMPTS", 20)
    tr = AioTcpTransport(max_queue=4)
    rel = ReliableTransport(tr, ack_timeout=50.0)
    try:
        got = []
        done = threading.Event()

        def handler(m):
            got.append(m.payload["i"])
            if len(got) == 12:
                done.set()

        rel.bind("src", lambda m: None)
        rel.bind("dst", handler)
        tr.pause_writes()
        for i in range(12):
            # The bounded queue refuses some of these; ReliableTransport
            # keeps them, in order, and offers them again on its timer.
            rel.send(Message("SEQ", "src", "dst", {"i": i}))
        assert tr.stats.backpressure_stalls >= 1
        time.sleep(0.05)
        tr.resume_writes()
        assert done.wait(20.0)
        # No frame loss end to end despite refused sends, and no reorder.
        assert sorted(got) == list(range(12))
        assert got == list(range(12))
        assert _wait_for(lambda: rel.in_flight_count() == 0)
    finally:
        rel.close()


# ---------------------------------------------------------------------------
# A dead mux link is replaced
# ---------------------------------------------------------------------------


def _drop_server_connections(tr):
    """Close every inbound connection from the server side, as the
    server does after a frame it cannot decode."""
    tr._loop.call_soon_threadsafe(
        lambda: [c.transport.close() for c in list(tr._server_conns)]
    )


def _wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_send_after_the_server_drops_the_link_reconnects(transport, caplog):
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    transport.send(Message("PING", "a", "b", {"i": 0}))
    assert _wait_for(lambda: got == [0])
    _drop_server_connections(transport)
    assert _wait_for(lambda: transport._link.error is not None)
    with caplog.at_level("WARNING", logger="repro.net.aio_transport"):
        transport.send(Message("PING", "a", "b", {"i": 1}))
        assert _wait_for(lambda: got == [0, 1])
    lost = [r for r in caplog.records if "mux link lost" in r.getMessage()]
    assert len(lost) == 1 and "0 queued" in lost[0].getMessage()
    assert transport.stats.dropped == 0


def test_messages_stranded_on_a_dead_link_arrive_on_its_replacement(
        transport, caplog):
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    transport.send(Message("PING", "a", "b", {"i": 0}))
    assert _wait_for(lambda: got == [0])
    first = transport._link
    transport.pause_writes()
    for i in (1, 2, 3):
        transport.send(Message("PING", "a", "b", {"i": i}))
    _drop_server_connections(transport)
    with caplog.at_level("WARNING", logger="repro.net.aio_transport"):
        time.sleep(0.1)
        transport.resume_writes()  # the writer finds the connection gone
        # The dead writer hands its queue on at once, in order, and a
        # later send queues behind it.
        assert _wait_for(lambda: got == [0, 1, 2, 3])
        transport.send(Message("PING", "a", "b", {"i": 4}))
        assert _wait_for(lambda: got == [0, 1, 2, 3, 4])
    assert first.error is not None and transport._link is not first
    assert transport.stats.dropped == 0
    assert any("3 queued" in r.getMessage() for r in caplog.records)


def test_reliable_send_survives_the_server_dropping_the_link():
    from repro.net.reliability import ReliableTransport

    tr = AioTcpTransport(codec="binary")
    rel = ReliableTransport(tr, ack_timeout=20.0)
    try:
        got = []
        rel.bind("src", lambda m: None)
        rel.bind("dst", lambda m: got.append(m.payload["i"]))
        rel.send(Message("SEQ", "src", "dst", {"i": 0}))
        assert _wait_for(lambda: got == [0])
        _drop_server_connections(tr)
        rel.send(Message("SEQ", "src", "dst", {"i": 1}))
        assert _wait_for(lambda: got == [0, 1])
        assert _wait_for(lambda: rel.in_flight_count() == 0)
    finally:
        rel.close()


def test_one_loop_turns_reliable_sends_leave_in_one_flush():
    """Eight sends in one loop turn over the reliable aio link: the
    sublayer forwards them, so they leave in one flush, in send order,
    with no R_DATA envelope and nothing to acknowledge."""
    from repro.net.message import R_ACK, R_DATA
    from repro.net.reliability import ReliableTransport

    tr = AioTcpTransport(codec="binary")
    rel = ReliableTransport(tr, ack_timeout=50.0)
    try:
        got = []
        done = threading.Event()

        def handler(m):
            got.append(m.payload["i"])
            if len(got) == 8:
                done.set()

        rel.bind("src", lambda m: None)
        rel.bind("dst", handler)

        def burst():
            for i in range(8):
                rel.send(Message("SEQ", "src", "dst", {"i": i}))

        rel.schedule(0.0, burst)  # on the loop thread: one turn
        assert done.wait(5.0)
        assert got == list(range(8))
        assert tr.stats.by_type[R_DATA] == tr.stats.by_type[R_ACK] == 0
        assert tr.stats.by_type["SEQ"] == tr.stats.encodes == 8
        assert tr.stats.flushes_coalesced == 7  # one drain for all eight
        assert rel.stats.total == 8 and rel.stats.retransmits == 0
        assert rel.stats.acks_sent == 0
        assert rel.in_flight_count() == 0
    finally:
        rel.close()


def test_a_batch_that_cannot_be_split_is_a_bad_frame(transport, caplog):
    """A malformed BATCH from a socket is refused like an undecodable
    frame — recorded, logged once, its connection dropped — instead of
    escaping the server's connection callback."""
    got = []
    transport.bind("dir", got.append)
    codec = JsonCodec()
    with caplog.at_level("WARNING"):
        for subs in ([], [{"src": "x"}], "nope"):
            raw = codec.encode(Message(BATCH, "ext", "dir", {"messages": subs}))
            with socket.create_connection(
                ("127.0.0.1", transport.port), timeout=5.0
            ) as sock:
                sock.sendall(struct.pack(">I", len(raw)) + raw)
                assert sock.recv(1) == b"", "server keeps a bad connection"
    assert got == []
    assert [kind for kind, _ in transport.handler_errors] == [BAD_FRAME] * 3
    assert all(isinstance(exc, CodecError)
               for _, exc in transport.handler_errors)
    assert [r.name for r in caplog.records] == ["repro.net.aio_transport"] * 3


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def test_resolve_transport_specs():
    # "tcp" names the wire, not a threading model: one socket backend.
    for spec in ("aio", "tcp"):
        tr = resolve_transport(spec)
        try:
            assert isinstance(tr, AioTcpTransport)
        finally:
            tr.close()


def test_resolve_transport_passthrough_and_errors():
    tr = AioTcpTransport()
    try:
        assert resolve_transport(tr) is tr
        with pytest.raises(TransportError):
            resolve_transport(tr, codec="json")  # kwargs need a spec string
        with pytest.raises(TransportError):
            resolve_transport("carrier-pigeon")
    finally:
        tr.close()
