"""BATCH frames: construction, codec round-trip, transport splitting."""

import pytest

from repro.errors import CodecError
from repro.core.messages import BATCH as CORE_BATCH
from repro.net.binary_codec import BinaryCodec
from repro.net.codec import JsonCodec
from repro.net.message import (
    BATCH,
    Message,
    is_batch,
    make_batch,
    split_batch,
)
from repro.net.sim_transport import SimTransport
from repro.net.stats import MessageStats
from repro.net.transport import resolve_transport
from repro.net.topology import Topology
from repro.sim import SimKernel


def _subs():
    return [
        Message("INVALIDATE", "dir", "cm:a", {"view_id": "a", "requested_by": "q"}),
        Message("FETCH_REQ", "dir", "cm:b", {"view_id": "b", "requested_by": "q"}),
        Message("INVALIDATE", "dir", "cm:c", {"view_id": "c", "n": 3}),
    ]


def test_batch_constant_shared_with_core_vocabulary():
    assert CORE_BATCH == BATCH == "BATCH"


def test_make_and_split_batch_preserves_messages():
    subs = _subs()
    batch = make_batch("dir", "cm:a", subs)
    assert is_batch(batch)
    out = split_batch(batch)
    assert [m.to_dict() for m in out] == [m.to_dict() for m in subs]


def test_batch_carries_the_messages_themselves():
    subs = _subs()
    batch = make_batch("dir", "cm:a", subs)
    assert all(a is b for a, b in zip(batch.payload["messages"], subs))
    assert split_batch(batch) == subs
    # Field access works on either spelling of a sub-message.
    assert [m["msg_id"] for m in batch.payload["messages"]] == [
        m.to_dict()["msg_id"] for m in subs]
    with pytest.raises(KeyError):
        subs[0]["nope"]


def test_split_batch_reads_dict_and_native_spellings_alike():
    subs = _subs()
    spelled = Message(BATCH, "dir", "cm:a",
                      {"messages": [m.to_dict() for m in subs[:2]] + subs[2:]})
    assert split_batch(spelled) == subs


def test_json_frame_of_a_batch_is_the_dict_spelling_byte_for_byte():
    subs = _subs()
    batch = make_batch("dir", "cm:a", subs)
    spelled = Message(BATCH, "dir", "cm:a",
                      {"messages": [m.to_dict() for m in subs]},
                      msg_id=batch.msg_id)
    assert JsonCodec().encode(batch) == JsonCodec().encode(spelled)
    assert JsonCodec()._lower(batch.to_dict()) == JsonCodec()._lower(spelled.to_dict())


def test_binary_batch_decodes_straight_to_messages():
    subs = _subs()
    decoded = BinaryCodec().decode(BinaryCodec().encode(make_batch("dir", "cm:a", subs)))
    assert decoded.payload["messages"] == subs
    assert all(type(m) is Message for m in decoded.payload["messages"])
    assert split_batch(decoded) == subs


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        make_batch("dir", "cm:a", [])
    # An envelope off the wire that holds no messages is a bad frame.
    for subs in ([], [{"src": "x"}], "nope"):
        with pytest.raises(CodecError):
            split_batch(Message(BATCH, "dir", "cm:a", {"messages": subs}))
    with pytest.raises(ValueError):
        split_batch(Message("PUSH", "dir", "cm:a", {}))  # not a batch


def test_batch_codec_roundtrip_byte_identical_subs():
    """encode -> decode -> split: sub-messages re-encode to the same bytes."""
    codec = JsonCodec()
    subs = _subs()
    batch = make_batch("dir", "cm:a", subs)
    decoded = codec.decode(codec.encode(batch))
    assert is_batch(decoded)
    out = split_batch(decoded)
    assert [codec.encode(m) for m in out] == [codec.encode(m) for m in subs]


def test_stats_counts_batches_and_coalesced_messages():
    stats = MessageStats()
    subs = _subs()
    stats.record(make_batch("dir", "cm:a", subs), size=100)
    stats.record(subs[0], size=10)
    assert stats.batches_sent == 1
    assert stats.messages_coalesced == 3
    assert stats.total == 2  # one batch frame + one plain frame
    assert stats.by_type[BATCH] == 1
    assert "batches=1" in stats.summary()
    stats.reset()
    assert stats.batches_sent == 0
    assert stats.messages_coalesced == 0


def test_sim_transport_splits_batch_to_each_endpoint():
    kernel = SimKernel()
    transport = SimTransport(kernel)
    got = {"a": [], "b": []}
    transport.bind("cm:a", lambda m: got["a"].append(m))
    transport.bind("cm:b", lambda m: got["b"].append(m))
    ep = transport.bind("dir", lambda m: None)
    subs = [
        Message("INVALIDATE", "dir", "cm:a", {"view_id": "a"}),
        Message("FETCH_REQ", "dir", "cm:b", {"view_id": "b"}),
    ]
    ep.send(make_batch("dir", "cm:a", subs))
    kernel.run()
    assert [m.msg_type for m in got["a"]] == ["INVALIDATE"]
    assert [m.msg_type for m in got["b"]] == ["FETCH_REQ"]
    assert transport.stats.batches_sent == 1
    assert transport.stats.messages_coalesced == 2
    assert transport.stats.total == 1  # one frame on the wire


def test_sim_transport_drops_sub_for_vanished_endpoint():
    kernel = SimKernel()
    transport = SimTransport(kernel)
    got = []
    transport.bind("cm:a", got.append)
    ep = transport.bind("dir", lambda m: None)
    subs = [
        Message("INVALIDATE", "dir", "cm:a", {"view_id": "a"}),
        Message("INVALIDATE", "dir", "cm:gone", {"view_id": "gone"}),
    ]
    ep.send(make_batch("dir", "cm:a", subs))
    kernel.run()
    assert len(got) == 1  # the live endpoint's sub-message arrived
    assert transport.stats.dropped == 1  # the vanished one was dropped


def test_batch_delivery_latency_is_one_frame():
    """The batch pays the carrier destination's latency once."""
    topo = Topology()
    for n in ("h0", "h1"):
        topo.add_node(n)
    topo.add_link("h0", "h1", latency=5.0)
    kernel = SimKernel()
    transport = SimTransport(kernel, topology=topo)
    seen_at = {}
    transport.bind("cm:a", lambda m: seen_at.setdefault("a", kernel.now))
    transport.bind("cm:b", lambda m: seen_at.setdefault("b", kernel.now))
    for addr in ("cm:a", "cm:b"):
        transport.place(addr, "h1")
    ep = transport.bind("dir", lambda m: None)
    transport.place("dir", "h0")
    subs = [
        Message("INVALIDATE", "dir", "cm:a", {}),
        Message("INVALIDATE", "dir", "cm:b", {}),
    ]
    ep.send(make_batch("dir", "cm:a", subs))
    kernel.run()
    assert seen_at == {"a": 5.0, "b": 5.0}


def test_tcp_transport_splits_batch_to_each_endpoint():
    transport = resolve_transport("tcp")
    try:
        import threading

        done = threading.Event()
        got = {"a": [], "b": []}

        def make_handler(key):
            def handler(m):
                got[key].append(m)
                if got["a"] and got["b"]:
                    done.set()
            return handler

        transport.bind("cm:a", make_handler("a"))
        transport.bind("cm:b", make_handler("b"))
        ep = transport.bind("dir", lambda m: None)
        subs = [
            Message("INVALIDATE", "dir", "cm:a", {"view_id": "a"}),
            Message("FETCH_REQ", "dir", "cm:b", {"view_id": "b"}),
        ]
        ep.send(make_batch("dir", "cm:a", subs))
        assert done.wait(5.0), "batch sub-messages not delivered over TCP"
        assert [m.msg_type for m in got["a"]] == ["INVALIDATE"]
        assert [m.msg_type for m in got["b"]] == ["FETCH_REQ"]
        assert transport.stats.batches_sent == 1
        assert transport.stats.messages_coalesced == 2
    finally:
        transport.close()
