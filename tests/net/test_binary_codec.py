"""Unit tests for repro.net.binary_codec: framing, fast paths, adaptive
compression, and codec resolution."""

import threading
import zlib

import pytest

from repro.core import (
    DiscreteSet,
    Interval,
    ObjectImage,
    Property,
    PropertySet,
    VersionVector,
)
from repro.core.image import DeltaImage
from repro.errors import CodecError
from repro.net import BinaryCodec, JsonCodec, Message, codec_name, resolve_codec
from repro.net.binary_codec import (
    MAGIC_RAW,
    MAGIC_ZLIB,
    SEGMENT_BYTES,
    decode_value,
    encode_value,
)
from repro.net.stats import MessageStats


def _rt(msg, codec=None):
    codec = codec or BinaryCodec()
    return codec.decode(codec.encode(msg))


def test_plain_payload_roundtrip():
    m = Message("T", "a", "b", {"n": 1, "s": "x", "f": 2.5, "b": True,
                                "l": [1, 2], "none": None})
    m2 = _rt(m)
    assert m2 == m


def test_negative_and_big_ints_roundtrip():
    payload = {"neg": -123456789, "big": 2**80, "negbig": -(2**80), "zero": 0}
    assert _rt(Message("T", "a", "b", payload)).payload == payload


def test_non_finite_floats_roundtrip():
    m2 = _rt(Message("T", "a", "b", {"inf": float("inf"),
                                     "ninf": float("-inf"),
                                     "nan": float("nan")}))
    assert m2.payload["inf"] == float("inf")
    assert m2.payload["ninf"] == float("-inf")
    assert m2.payload["nan"] != m2.payload["nan"]  # NaN


def test_unicode_strings_roundtrip():
    payload = {"kéy": "välue \U0001f600", "": "empty-key-value"}
    assert _rt(Message("T", "a", "b", payload)).payload == payload


def test_string_interning_shrinks_repeated_keys():
    codec = BinaryCodec()
    m = Message("T", "a", "b", [{"repeated-cell-key": i} for i in range(50)])
    raw = codec.encode(m)
    # The key's bytes appear exactly once (the definition); the other 49
    # occurrences are 2-byte table references.
    assert raw.count(b"repeated-cell-key") == 1
    assert len(raw) < len(JsonCodec().encode(m)) / 2
    assert codec.decode(raw) == m


def test_tuple_decodes_as_list():
    m2 = _rt(Message("T", "a", "b", {"t": (1, 2, 3)}))
    assert m2.payload["t"] == [1, 2, 3]


def test_reserved_key_needs_no_escaping():
    payload = {"cellmap": {"__type__": [1, 2], "normal": "x"}}
    assert _rt(Message("T", "a", "b", payload)).payload == payload


def test_registered_image_roundtrip():
    img = ObjectImage()
    for i in range(8):
        img.put(f"c{i}", i * 10)
    m2 = _rt(Message("PULL_DATA", "dir", "cm", {"image": img}))
    out = m2.payload["image"]
    assert out.cells == img.cells
    assert out.versions == img.versions


def test_image_with_version_only_keys_roundtrip():
    img = ObjectImage({"a": 1}, VersionVector({"a": 3, "gone": 7}))
    out = _rt(Message("T", "a", "b", {"image": img})).payload["image"]
    assert out.cells == {"a": 1}
    assert out.versions.get("gone") == 7


def test_delta_image_roundtrip():
    inner = ObjectImage({"a": 1}, VersionVector({"a": 5}))
    d = DeltaImage(inner, base_seq=3, as_of=9, complete=False, slice_size=12)
    out = _rt(Message("PULL_DATA", "dir", "cm", {"image": d})).payload["image"]
    assert out.base_seq == 3 and out.as_of == 9
    assert out.complete is False and out.slice_size == 12
    assert out.image.cells == {"a": 1}


def test_property_set_roundtrip():
    ps = PropertySet([
        Property("p", Interval(-5, 5)),
        Property("q", DiscreteSet({1, 2, 3})),
    ])
    assert _rt(Message("T", "a", "b", {"props": ps})).payload["props"] == ps


def test_version_vector_roundtrip():
    vv = VersionVector({"a": 1, "b": 200})
    assert _rt(Message("T", "a", "b", {"vv": vv})).payload["vv"] == vv


def test_unregistered_type_raises():
    class Foreign:
        pass

    with pytest.raises(CodecError, match="not wire-encodable"):
        BinaryCodec().encode(Message("T", "a", "b", {"bad": Foreign()}))


def test_decode_garbage_raises():
    with pytest.raises(CodecError, match="magic"):
        BinaryCodec().decode(b"\xffgarbage")
    with pytest.raises(CodecError, match="empty"):
        BinaryCodec().decode(b"")


def test_decode_truncated_frame_raises():
    raw = BinaryCodec().encode(Message("T", "a", "b", {"n": 1}))
    with pytest.raises(CodecError):
        BinaryCodec().decode(raw[: len(raw) // 2])


def test_every_truncation_of_a_frame_is_a_codec_error():
    """Cut a frame that uses every record kind at each byte: the
    decoder must answer CodecError, never an IndexError or a bogus
    message."""
    img = ObjectImage({"a": 1, "b": [2.5, None]}, VersionVector({"a": 300, "b": 1, "gone": 7}))
    payload = {
        "image": img,
        "delta": DeltaImage(img, base_seq=3, as_of=9, slice_size=12),
        "props": PropertySet([Property("p", Interval(-5, 5))]),
        "vv": VersionVector({"a": 1}),
        "big": 2**70, "s": "x" * 200, "t": True,
        "sub": Message("S", "x", "y", {"k": [1]}, msg_id=2**40, reply_to=3),
    }
    raw = BinaryCodec().encode(Message("T", "a", "b", payload, reply_to=7))
    assert BinaryCodec().decode(raw).payload["big"] == 2**70
    for cut in range(1, len(raw)):
        with pytest.raises(CodecError):
            BinaryCodec().decode(raw[:cut])
    value = encode_value(payload)
    for cut in range(len(value)):
        with pytest.raises(CodecError):
            decode_value(value[:cut])
    with pytest.raises(CodecError, match="trailing"):
        decode_value(value + b"\x00")


def test_corrupt_bodies_raise_codec_error():
    sref_out_of_range = bytes((MAGIC_RAW, 0x06, 0x05))
    with pytest.raises(CodecError, match="out of range"):
        BinaryCodec().decode(sref_out_of_range)
    runaway = bytes((MAGIC_RAW, 0x03)) + b"\xff" * 2000
    with pytest.raises(CodecError, match="runaway varint"):
        BinaryCodec().decode(runaway)
    with pytest.raises(CodecError, match="unknown value tag"):
        BinaryCodec().decode(bytes((MAGIC_RAW, 0x7F, 0x00)))
    # dict key that is not a string record
    with pytest.raises(CodecError, match="expected string"):
        decode_value(bytes((0x08, 0x01, 0x03, 0x02, 0x00)))
    # a collection claiming more entries than any frame could hold
    with pytest.raises(CodecError):
        decode_value(bytes((0x07,)) + b"\xff" * 9 + b"\x7f")
    with pytest.raises(CodecError, match="missing image"):
        decode_value(bytes((0x0D, 0x00)))


def _frame(*six):
    """A raw frame whose six header values are whatever the caller says."""
    return bytes((MAGIC_RAW,)) + b"".join(encode_value(v) for v in six)


def test_frame_decoder_rejects_leftovers_and_mistyped_headers():
    codec = BinaryCodec()
    m = Message("T", "a", "b", {"n": 1}, msg_id=5, reply_to=4)
    raw = codec.encode(m)
    assert codec.decode(_frame("T", "a", "b", 5, 4, {"n": 1})) == m
    with pytest.raises(CodecError, match="trailing bytes"):
        codec.decode(raw + b"junk")
    packed = bytes((MAGIC_ZLIB,)) + zlib.compress(raw[1:] + b"\x00")
    with pytest.raises(CodecError, match="trailing bytes"):
        codec.decode(packed)
    for header in [
        (7, "a", "b", 5, None),      # msg_type
        ("T", 7, "b", 5, None),      # src
        ("T", "a", None, 5, None),   # dst
        ("T", "a", "b", "5", None),  # msg_id
        ("T", "a", "b", None, None),
        ("T", "a", "b", True, None),
        ("T", "a", "b", 5, "4"),     # reply_to
    ]:
        with pytest.raises(CodecError, match="not a message"):
            codec.decode(_frame(*header, {"n": 1}))


def test_nested_message_is_a_native_record():
    sub = Message("PULL_REQ", "cm:a", "dir", {"view_id": "a", "keys": [1, 2]},
                  msg_id=2**35, reply_to=None)
    reply = Message("PULL_DATA", "dir", "cm:a", {}, msg_id=0, reply_to=2**35)
    m = Message("T", "cm:a", "dir", {"one": sub, "more": [reply, {"deep": sub}]})
    out = _rt(m)
    assert out == m
    assert type(out.payload["one"]) is Message
    assert out.payload["more"][0].reply_to == 2**35
    assert out.payload["more"][0].msg_id == 0
    assert out.payload["more"][1]["deep"].reply_to is None
    # ... and costs less than its six-key dict spelling.
    spelled = Message("T", "cm:a", "dir", {"one": sub.to_dict()}, msg_id=m.msg_id)
    native = Message("T", "cm:a", "dir", {"one": sub}, msg_id=m.msg_id)
    assert len(BinaryCodec().encode(native)) < len(BinaryCodec().encode(spelled))
    # JSON has no such record: a nested message is its plain dict.
    assert JsonCodec().encode(native) == JsonCodec().encode(spelled)
    assert encode_value(decode_value(encode_value(sub))) == encode_value(sub)


def test_malformed_nested_message_is_refused_at_encode():
    for bad in [
        Message("T", 7, "b"),
        Message("T", "a", None),
        Message(None, "a", "b"),
        Message("T", "a", "b", msg_id="x"),
        Message("T", "a", "b", reply_to="x"),
    ]:
        with pytest.raises(CodecError, match="malformed"):
            BinaryCodec().encode(Message("T", "a", "b", {"sub": bad}))


def test_decode_json_frame_falls_back():
    """Nothing falls back: a link speaks one codec from its first frame,
    so a JSON frame handed to the binary decoder is refused like any
    other unknown magic byte."""
    raw = JsonCodec().encode(Message("T", "a", "b", {"x": 1}))
    assert raw[0] == 0x7B
    with pytest.raises(CodecError, match="magic"):
        BinaryCodec().decode(raw)


def test_raw_frame_magic():
    raw = BinaryCodec().encode(Message("T", "a", "b", {}))
    assert raw[0] == MAGIC_RAW


def test_compression_applied_above_threshold():
    stats = MessageStats()
    codec = BinaryCodec(compress_level=6, compress_min_bytes=64)
    codec.stats = stats
    m = Message("T", "a", "b", {"cells": {f"c{i:03d}": 7 for i in range(100)}})
    raw = codec.encode(m)
    assert raw[0] == MAGIC_ZLIB
    assert stats.frames_compressed == 1 and stats.frames_stored == 0
    assert stats.bytes_saved_compression > 0
    assert codec.decode(raw) == m


def test_small_frames_stored_uncompressed():
    stats = MessageStats()
    codec = BinaryCodec(compress_level=6, compress_min_bytes=200)
    codec.stats = stats
    raw = codec.encode(Message("T", "a", "b", {"n": 1}))
    assert raw[0] == MAGIC_RAW
    assert stats.frames_stored == 1 and stats.frames_compressed == 0


def test_incompressible_frames_stored():
    import os
    import zlib

    stats = MessageStats()
    codec = BinaryCodec(compress_level=6, compress_min_bytes=16)
    codec.stats = stats
    # Already-compressed bytes cannot shrink again: the adaptive check
    # must keep the raw form and count the frame as stored.
    body = zlib.compress(os.urandom(600), 9)
    raw = codec._finish_frame(bytearray((MAGIC_RAW,)) + body)
    assert raw[0] == MAGIC_RAW
    assert raw[1:] == body
    assert stats.frames_stored == 1 and stats.frames_compressed == 0


def test_default_floor_is_one_segment():
    """A frame that fits one TCP segment is never sampled; from the
    segment size up it is deflated iff that shrinks it."""
    import os

    def message_with_body(size):
        empty = len(BinaryCodec().encode(Message("T", "a", "b", {"blob": ""}, msg_id=1)))
        # the blob's length varint grows from one byte to two at 128
        m = Message("T", "a", "b", {"blob": "x" * (size - empty)}, msg_id=1)
        raw = BinaryCodec().encode(m)
        assert len(raw) - 1 == size
        return m, raw

    stats = MessageStats()
    codec = BinaryCodec(compress_level=6)
    codec.stats = stats
    assert codec.compress_min_bytes == SEGMENT_BYTES == 1400
    # one byte under the segment: stored, however compressible
    m, raw = message_with_body(SEGMENT_BYTES - 1)
    assert codec.encode(m) == raw and raw[0] == MAGIC_RAW
    assert (stats.frames_stored, stats.frames_compressed) == (1, 0)
    # at the segment and compressible: deflated
    m, raw = message_with_body(SEGMENT_BYTES)
    packed = codec.encode(m)
    assert packed[0] == MAGIC_ZLIB and len(packed) < len(raw)
    assert (stats.frames_stored, stats.frames_compressed) == (1, 1)
    assert stats.bytes_saved_compression == len(raw) - len(packed)
    assert codec.decode(packed) == m
    # at the segment and incompressible: sampled, then stored
    noise = bytearray((MAGIC_RAW,)) + os.urandom(SEGMENT_BYTES)
    assert codec._finish_frame(noise) == bytes(noise)
    assert (stats.frames_stored, stats.frames_compressed) == (2, 1)


def test_compression_disabled_by_default():
    stats = MessageStats()
    codec = BinaryCodec()
    codec.stats = stats
    raw = codec.encode(
        Message("T", "a", "b", {"cells": {f"c{i:03d}": 7 for i in range(200)}})
    )
    assert raw[0] == MAGIC_RAW
    # No compression configured: neither counter moves.
    assert stats.frames_stored == 0 and stats.frames_compressed == 0


def test_invalid_compress_level_rejected():
    with pytest.raises(CodecError, match="compress_level"):
        BinaryCodec(compress_level=11)


def test_binary_smaller_than_json_on_image_payload():
    img = ObjectImage()
    for i in range(64):
        img.put(f"c{i:04d}", i)
    m = Message("PULL_DATA", "dir", "cm", {"image": img})
    assert len(BinaryCodec().encode(m)) * 2 <= len(JsonCodec().encode(m))


def test_no_last_encoded_size_alias():
    codec = BinaryCodec()
    codec.encode(Message("T", "a", "b", {"n": 1}))
    assert not hasattr(codec, "last_encoded_size")


def test_concurrent_encodes_produce_consistent_frames():
    """Frames must be sized from their own bytes: many threads sharing
    one codec still each get a self-consistent, decodable frame."""
    codec = BinaryCodec(compress_level=6, compress_min_bytes=64)
    errors = []

    def worker(i):
        try:
            m = Message("T", "a", "b", {"i": i, "pad": "x" * (i * 13 % 300)})
            for _ in range(50):
                if codec.decode(codec.encode(m)) != m:
                    errors.append(i)
                    return
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# -- codec resolution --------------------------------------------------------

def test_resolve_codec_specs():
    assert isinstance(resolve_codec(None), JsonCodec)
    assert isinstance(resolve_codec("json"), JsonCodec)
    assert isinstance(resolve_codec("binary"), BinaryCodec)
    z = resolve_codec("binary+zlib")
    assert isinstance(z, BinaryCodec) and z.compress_level == 6
    inst = BinaryCodec()
    assert resolve_codec(inst) is inst


def test_resolve_codec_rejects_unknown():
    with pytest.raises(CodecError, match="unknown codec spec"):
        resolve_codec("msgpack")
    with pytest.raises(CodecError, match="not a codec"):
        resolve_codec(42)


def test_codec_name():
    assert codec_name(JsonCodec()) == "json"
    assert codec_name(BinaryCodec()) == "binary"
    # Compressed and raw binary share one wire name: the magic byte
    # distinguishes them, so any binary decoder handles both.
    assert codec_name(BinaryCodec(compress_level=9)) == "binary"
