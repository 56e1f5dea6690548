"""Codec negotiation on the TCP transport: hello/welcome handshake,
fallback to JSON for legacy and mismatched peers, and the set_codec
plumbing through SimTransport / ReliableTransport / FleccSystem."""

import socket
import struct
import threading

import pytest

from repro.errors import ReproError
from repro.net import (
    BinaryCodec,
    JsonCodec,
    Message,
    ReliableTransport,
    SimTransport,
    resolve_transport,
)
from repro.net.aio_transport import BAD_FRAME, CODEC_HELLO, CODEC_WELCOME
from repro.sim.kernel import SimKernel

_LEN = struct.Struct(">I")


def _send_frame(sock, raw):
    sock.sendall(_LEN.pack(len(raw)) + raw)


def _recv_frame(sock):
    header = b""
    while len(header) < _LEN.size:
        chunk = sock.recv(_LEN.size - len(header))
        assert chunk, "peer closed during frame header"
        header += chunk
    (length,) = _LEN.unpack(header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "peer closed during frame body"
        body += chunk
    return body


@pytest.fixture()
def transport():
    tr = resolve_transport("tcp", codec="binary")
    yield tr
    tr.close()


def test_binary_codec_negotiated_between_local_endpoints(transport):
    got = []
    done = threading.Event()
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: (got.append(m), done.set()))
    transport.send(Message("HELLO", "a", "b", {"x": 1}))
    assert done.wait(5.0)
    assert got[0].payload == {"x": 1}
    assert transport.negotiated_codec("a", "b") == "binary"


def test_default_transport_negotiates_json():
    tr = resolve_transport("tcp")
    try:
        done = threading.Event()
        tr.bind("a", lambda m: None)
        tr.bind("b", lambda m: done.set())
        tr.send(Message("X", "a", "b"))
        assert done.wait(5.0)
        assert tr.negotiated_codec("a", "b") == "json"
        assert tr.preferred_codec == "json"
    finally:
        tr.close()


def test_supported_codecs_always_include_json(transport):
    assert transport.preferred_codec == "binary"
    assert set(transport.supported_codecs) == {"json", "binary"}


def test_legacy_peer_without_hello_still_delivered(transport):
    """A peer that never sends CODEC_HELLO (older code, foreign tool)
    speaks plain JSON; its first and later frames must be delivered."""
    got = []
    done = threading.Event()

    def handler(m):
        got.append(m)
        if len(got) == 2:
            done.set()

    transport.bind("dir", handler)
    codec = JsonCodec()
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        _send_frame(sock, codec.encode(Message("ONE", "ext", "dir", {"i": 1})))
        _send_frame(sock, codec.encode(Message("TWO", "ext", "dir", {"i": 2})))
        assert done.wait(5.0)
    assert [m.msg_type for m in got] == ["ONE", "TWO"]


def test_hello_answered_with_welcome_and_codec_switch(transport):
    """A hello advertising binary gets `use: binary`, and the following
    binary-encoded frame is decoded and delivered."""
    got = []
    done = threading.Event()
    transport.bind("dir", lambda m: (got.append(m), done.set()))
    json_codec, binary_codec = JsonCodec(), BinaryCodec()
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        hello = Message(
            CODEC_HELLO, "ext", "dir",
            {"supported": ["binary", "json"], "prefer": "binary"},
        )
        _send_frame(sock, json_codec.encode(hello))
        welcome = json_codec.decode(_recv_frame(sock))
        assert welcome.msg_type == CODEC_WELCOME
        assert welcome.payload["use"] == "binary"
        assert "json" in welcome.payload["supported"]
        _send_frame(
            sock, binary_codec.encode(Message("DATA", "ext", "dir", {"i": 9}))
        )
        assert done.wait(5.0)
    assert got[0].msg_type == "DATA" and got[0].payload == {"i": 9}


def test_unknown_codec_preference_falls_back_to_json(transport):
    """A peer preferring a codec this transport does not speak is told
    to use JSON — negotiation degrades, never breaks."""
    got = []
    done = threading.Event()
    transport.bind("dir", lambda m: (got.append(m), done.set()))
    json_codec = JsonCodec()
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        hello = Message(
            CODEC_HELLO, "ext", "dir",
            {"supported": ["msgpack"], "prefer": "msgpack"},
        )
        _send_frame(sock, json_codec.encode(hello))
        welcome = json_codec.decode(_recv_frame(sock))
        assert welcome.payload["use"] == "json"
        _send_frame(sock, json_codec.encode(Message("DATA", "ext", "dir", {})))
        assert done.wait(5.0)
    assert got[0].msg_type == "DATA"


def test_undecodable_frame_is_recorded_and_logged_not_swallowed(transport, caplog):
    """A corrupt frame costs the inbound connection (the stream cannot
    be re-synchronised) — loudly: ``handler_errors`` and one warning."""
    got = []
    done = threading.Event()
    transport.bind("dir", lambda m: (got.append(m), done.set()))
    json_codec, binary_codec = JsonCodec(), BinaryCodec()
    good = binary_codec.encode(Message("DATA", "ext", "dir", {"i": 9}))
    with caplog.at_level("WARNING", logger="repro.net.aio_transport"):
        with socket.create_connection(
            ("127.0.0.1", transport.port), timeout=5.0
        ) as sock:
            hello = Message(CODEC_HELLO, "ext", "dir",
                            {"supported": ["binary"], "prefer": "binary"})
            _send_frame(sock, json_codec.encode(hello))
            assert json_codec.decode(_recv_frame(sock)).payload["use"] == "binary"
            _send_frame(sock, good)
            assert done.wait(5.0)
            _send_frame(sock, good + b"junk")
            assert sock.recv(1) == b"", "server keeps a desynchronised stream"
    assert [m.payload for m in got] == [{"i": 9}]
    assert [kind for kind, _ in transport.handler_errors] == [BAD_FRAME]
    assert "trailing bytes" in str(transport.handler_errors[0][1])
    (record,) = [r for r in caplog.records
                 if r.name == "repro.net.aio_transport"]
    assert "127.0.0.1" in record.getMessage()
    assert "trailing bytes" in record.getMessage()
    # The transport itself is unharmed: a fresh connection is served.
    done.clear()
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        _send_frame(sock, json_codec.encode(Message("DATA", "ext", "dir", {})))
        assert done.wait(5.0)


def test_handler_never_sees_handshake_messages(transport):
    seen = []
    done = threading.Event()
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: (seen.append(m.msg_type), done.set()))
    transport.send(Message("APP", "a", "b"))
    assert done.wait(5.0)
    assert seen == ["APP"]


def test_set_codec_renegotiates_existing_links(transport):
    done1, done2 = threading.Event(), threading.Event()
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: (done1.set() if not done1.is_set() else done2.set()))
    transport.send(Message("X", "a", "b"))
    assert done1.wait(5.0)
    assert transport.negotiated_codec("a", "b") == "binary"
    transport.set_codec("json")
    assert transport.negotiated_codec("a", "b") is None  # link dropped
    transport.send(Message("Y", "a", "b"))
    assert done2.wait(5.0)
    assert transport.negotiated_codec("a", "b") == "json"


def test_frame_bytes_shrink_under_binary_codec():
    from repro.core import ObjectImage

    img = ObjectImage()
    for i in range(64):
        img.put(f"c{i:04d}", i)
    payload = {"image": img}
    sizes = {}
    for spec in ("json", "binary"):
        tr = resolve_transport("tcp", codec=spec)
        try:
            done = threading.Event()
            tr.bind("a", lambda m: None)
            tr.bind("b", lambda m: done.set())
            tr.send(Message("PUSH", "a", "b", payload))
            assert done.wait(5.0)
            sizes[spec] = tr.stats.bytes_sent
        finally:
            tr.close()
    assert sizes["binary"] * 2 <= sizes["json"]


# -- sim transport / reliability / system plumbing ---------------------------

def test_sim_transport_codec_param():
    kernel = SimKernel()
    transport = SimTransport(kernel, strict_wire=True, codec="binary")
    assert isinstance(transport.codec, BinaryCodec)
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", got.append)
    transport.send(Message("T", "a", "b", {"n": [1, 2, 3]}))
    kernel.run()
    assert got[0].payload == {"n": [1, 2, 3]}


def test_sim_transport_compression_counters_reach_stats():
    kernel = SimKernel()
    transport = SimTransport(kernel, strict_wire=True, codec="binary+zlib")
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: None)
    transport.send(
        Message("T", "a", "b", {"cells": {f"c{i:03d}": 7 for i in range(200)}})
    )
    kernel.run()
    assert transport.stats.frames_compressed == 1
    assert transport.stats.bytes_saved_compression > 0


def test_reliable_transport_codec_passthrough():
    kernel = SimKernel()
    inner = SimTransport(kernel, strict_wire=True)
    rel = ReliableTransport(inner)
    rel.set_codec("binary")
    assert isinstance(inner.codec, BinaryCodec)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", got.append)
    rel.send(Message("T", "a", "b", {"x": 1}))
    kernel.run()
    assert got and got[0].payload == {"x": 1}


def test_flecc_system_codec_kwarg():
    from repro.core.system import FleccSystem
    from repro.testing import Store, extract_from_object, merge_into_object

    kernel = SimKernel()
    transport = SimTransport(kernel, strict_wire=True)
    FleccSystem(
        transport,
        Store({"a": 1}),
        extract_from_object,
        merge_into_object,
        codec="binary",
    )
    assert isinstance(transport.codec, BinaryCodec)


def test_flecc_system_codec_requires_capable_transport():
    from repro.core.system import FleccSystem
    from repro.testing import Store, extract_from_object, merge_into_object

    class Bare:
        pass

    with pytest.raises(ReproError, match="codec"):
        FleccSystem(
            Bare(),
            Store({"a": 1}),
            extract_from_object,
            merge_into_object,
            codec="binary",
        )
