"""Codec selection: an aio connection speaks its transport's codec from
its first frame (there is no handshake), and the set_codec plumbing
through SimTransport / ReliableTransport / FleccSystem."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import CodecError, ReproError, TransportError
from repro.net import (
    BinaryCodec,
    JsonCodec,
    Message,
    ReliableTransport,
    SimTransport,
    resolve_transport,
)
from repro.net.aio_transport import BAD_FRAME
from repro.sim.kernel import SimKernel

_LEN = struct.Struct(">I")


def _send_frame(sock, raw):
    sock.sendall(_LEN.pack(len(raw)) + raw)


def _wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


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
    msg = Message("HELLO", "a", "b", {"x": 1})
    transport.send(msg)
    assert done.wait(5.0)
    assert got[0].payload == {"x": 1}
    # The connection's first and only frame is the binary one.
    assert transport.stats.bytes_sent == len(BinaryCodec().encode(msg))


def test_default_transport_negotiates_json():
    tr = resolve_transport("tcp")
    try:
        done = threading.Event()
        tr.bind("a", lambda m: None)
        tr.bind("b", lambda m: done.set())
        msg = Message("X", "a", "b")
        tr.send(msg)
        assert done.wait(5.0)
        assert tr.stats.bytes_sent == len(JsonCodec().encode(msg))
        assert tr.preferred_codec == "json"
    finally:
        tr.close()


def test_first_frame_speaks_the_transport_codec(transport):
    """A raw peer's very first frame is read with the transport's codec:
    there is no hello to send first."""
    got = []
    done = threading.Event()
    transport.bind("dir", lambda m: (got.append(m), done.set()))
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        _send_frame(
            sock, BinaryCodec().encode(Message("DATA", "ext", "dir", {"i": 9}))
        )
        assert done.wait(5.0)
    assert got[0].msg_type == "DATA" and got[0].payload == {"i": 9}
    assert transport.handler_errors == []


def test_json_frame_on_a_binary_link_is_refused(transport):
    transport.bind("dir", lambda m: None)
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        _send_frame(sock, JsonCodec().encode(Message("DATA", "ext", "dir", {})))
        assert sock.recv(1) == b"", "server keeps a desynchronised stream"
    ((kind, exc),) = transport.handler_errors
    assert kind == BAD_FRAME and isinstance(exc, CodecError)
    assert "magic" in str(exc)


def test_open_connection_keeps_its_codec_across_set_codec(transport):
    """The server takes the codec at accept: a connection opened before
    set_codec finishes on the codec it opened with."""
    got = []
    transport.bind("dir", lambda m: got.append(m.payload["i"]))
    binary = BinaryCodec()
    with socket.create_connection(
        ("127.0.0.1", transport.port), timeout=5.0
    ) as sock:
        _send_frame(sock, binary.encode(Message("DATA", "ext", "dir", {"i": 1})))
        assert _wait_for(lambda: got == [1])
        transport.set_codec("json")
        _send_frame(sock, binary.encode(Message("DATA", "ext", "dir", {"i": 2})))
        assert _wait_for(lambda: got == [1, 2])
    assert transport.handler_errors == []


def test_undecodable_frame_is_recorded_and_logged_not_swallowed(transport, caplog):
    """A corrupt frame costs the inbound connection (the stream cannot
    be re-synchronised) — loudly: ``handler_errors`` and one warning."""
    got = []
    done = threading.Event()
    transport.bind("dir", lambda m: (got.append(m), done.set()))
    good = BinaryCodec().encode(Message("DATA", "ext", "dir", {"i": 9}))
    with caplog.at_level("WARNING", logger="repro.net.aio_transport"):
        with socket.create_connection(
            ("127.0.0.1", transport.port), timeout=5.0
        ) as sock:
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
        _send_frame(sock, good)
        assert done.wait(5.0)


def test_set_codec_is_refused_once_the_link_exists(transport):
    """The codec is chosen before the first send: the mux link keeps
    the one it opened with, and so does every later frame."""
    done1, done2 = threading.Event(), threading.Event()
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: (done1.set() if not done1.is_set() else done2.set()))
    x, y = Message("X", "a", "b"), Message("Y", "a", "b")
    transport.send(x)
    assert done1.wait(5.0)
    with pytest.raises(TransportError, match="after the first send"):
        transport.set_codec("json")
    assert transport.preferred_codec == "binary"
    transport.send(y)
    assert done2.wait(5.0)
    binary = BinaryCodec()
    assert transport.stats.bytes_sent == (
        len(binary.encode(x)) + len(binary.encode(y)))
    assert transport.handler_errors == []


def test_set_codec_on_a_live_link_loses_no_queued_message(transport):
    """Messages queued behind a parked writer when set_codec is tried
    all arrive, in order, on the link they were queued on."""
    got = []
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: got.append(m.payload["i"]))
    transport.send(Message("X", "a", "b", {"i": 0}))
    assert _wait_for(lambda: got == [0])
    transport.pause_writes()
    for i in (1, 2, 3):
        transport.send(Message("X", "a", "b", {"i": i}))
    with pytest.raises(TransportError):
        transport.set_codec("json")
    transport.resume_writes()
    transport.send(Message("X", "a", "b", {"i": 4}))
    assert _wait_for(lambda: len(got) == 5), got
    assert got == [0, 1, 2, 3, 4]
    assert transport.stats.dropped == 0 and transport.handler_errors == []


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
