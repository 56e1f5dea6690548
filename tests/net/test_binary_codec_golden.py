"""Golden frames: BinaryCodec output is pinned byte for byte.

``golden_binary_frames.json`` holds what the codec emitted for the
corpus below before its encode/decode loops were rewritten for speed
(commit d774046).  The wire and the WAL both store these bytes, so an
optimisation may not move one of them.  Compressed frames are pinned by
their magic and their decompressed body: the deflate stream itself
belongs to whichever zlib the interpreter links.

A format change regenerates only the entries it means to move: ``batch``
moved once, when nested messages became native ``0x0E`` records, and
``r_data`` once, when the reliable sublayer's envelopes became ``0x0F``
/ ``0x10`` records.  What the codec wrote before each is kept as
``legacy.batch`` and ``legacy.r_data`` — bytes no encoder produces any
more and every decoder must still read — and ``legacy.reliable_flush``
is ``reliable_flush`` as the encoder before the envelope records wrote
it, every sub-message a ``0x0E`` record.  When the sublayer began
sending one ``R_DATA`` flight (``0x11``) per connection and flush
instead of one envelope per message, the one-message ``0x0F`` spellings
left the encoder: ``legacy.r_data_record`` and
``legacy.reliable_flush_record`` are what it wrote for ``r_data`` and
``reliable_flush`` until then, and ``flight`` pins the record that
replaced them.  The sublayer drops a one-message envelope however it is
spelled, so the ``0x0F`` record then left the decoder too: those two
frames must now be refused.
"""

import json
import zlib
from pathlib import Path

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
from repro.net import BinaryCodec, JsonCodec, Message
from repro.net.binary_codec import MAGIC_RAW, MAGIC_ZLIB, decode_value, encode_value
from repro.net.message import make_batch, split_batch

GOLDEN = Path(__file__).with_name("golden_binary_frames.json")


def _image(n, start=0):
    img = ObjectImage()
    for i in range(start, start + n):
        img.put(f"flight:{i:04d}", {"seats": 180 - i, "price": 99.5 + i,
                                    "open": i % 2 == 0})
    return img


def _reliable_flush():
    """One write flush of the composed stack before flights: 8
    R_DATA{PUSH} envelopes, the fourth a retransmission, and the ACK
    vector for the replies."""
    subs = []
    for v in range(8):
        payload = {"seq": 300 + v, "ctl": "rel-ctl", "t": "PUSH",
                   "p": {"view_id": f"ta{v:04d}", "image": _image(2, start=2 * v)},
                   "i": 9000 + 2 * v, "r": None}
        if v == 3:
            payload["n"] = 2
        subs.append(Message("R_DATA", f"cm:ta{v:04d}", f"shard:{v % 4}",
                            payload, msg_id=9001 + 2 * v))
    subs.append(Message("R_ACK", "rel-ctl", "rel-ctl", {"acks": [
        [f"shard:{k}", f"cm:ta{k:04d}", [290 + k, [291 + k, 3]] if k == 2
         else [290 + k]]
        for k in range(4)
    ]}, msg_id=9020))
    batch = make_batch("cm:ta0000", "shard:0", subs)
    batch.msg_id = 9021
    return batch


def _flight():
    """One write flush of the composed stack: its 8 PUSHes in one flight
    to the receiving control endpoint."""
    msgs = [
        Message("PUSH", f"cm:ta{v:04d}", f"shard:{v % 4}",
                {"view_id": f"ta{v:04d}", "image": _image(2, start=2 * v),
                 "state_seq": 40 + v},
                msg_id=9000 + 2 * v)
        for v in range(8)
    ]
    return Message("R_DATA", "cm:ta0000", "rel-ctl",
                   {"seq": 300, "ctl": "rel-ctl", "f": 298, "m": msgs},
                   msg_id=9017)


def _legacy_messages():
    """What the ``legacy.*`` frames decode to."""
    return {
        "r_data": Message(
            "R_DATA", "cm:ta0001", "shard:2",
            {"seq": 129, "ctl": "rel-ctl", "t": "PUSH",
             "p": {"view_id": "ta0001", "image": _image(2)},
             "i": 88, "r": None},
            msg_id=89, reply_to=None),
        "reliable_flush": _reliable_flush(),
    }


def _messages():
    props = PropertySet([
        Property("flight", DiscreteSet({"AA10", "BA7", "LH400"})),
        Property("price", Interval(-5, 5000)),
    ])
    delta = DeltaImage(_image(3, start=40), base_seq=17, as_of=23,
                       complete=False, slice_size=64)
    sparse = ObjectImage({"a": 1}, VersionVector({"a": 300, "gone": 7}))
    subs = [
        Message("INVALIDATE", "shard:0", f"cm:ta{i:04d}",
                {"view_id": f"ta{i:04d}", "round": 130 + i}, msg_id=500 + i)
        for i in range(3)
    ]
    batch = make_batch("shard:0", "cm:ta0000", subs)
    batch.msg_id = 777  # make_batch mints it from the process-wide counter
    return {
        "scalars": Message(
            "T", "a", "b",
            {"zero": 0, "one": 1, "neg": -1, "b63": 63, "b64": 64,
             "b127": 127, "b128": 128, "big": 2**80, "negbig": -(2**80),
             "f": 2.5, "inf": float("inf"), "t": True, "f0": False,
             "none": None, "s": "välue \U0001f600", "": "empty key",
             "tuple": (1, "a", None), "nested": [[], {}, [{"k": []}]]},
            msg_id=1, reply_to=None),
        "register": Message(
            "REGISTER", "cm:ta0001", "shard:2",
            {"view_id": "ta0001", "properties": props, "mode": "strong",
             "triggers": {"push": "t % 10 == 0", "pull": None}},
            msg_id=70000, reply_to=None),
        "grant_full": Message(
            "GRANT", "shard:1", "cm:ta0003",
            {"view_id": "ta0003", "image": _image(12), "seq": 200},
            msg_id=123456, reply_to=123450),
        "pull_delta": Message(
            "PULL_DATA", "shard:3", "cm:ta0007",
            {"view_id": "ta0007", "image": delta}, msg_id=2**33, reply_to=9),
        "sparse_image": Message(
            "INIT_DATA", "dir", "cm:v", {"image": sparse,
                                         "versions": VersionVector({"z": 1})},
            msg_id=3, reply_to=2),
        "batch": batch,
        "flight": _flight(),
        "many_strings": Message(
            "T", "a", "b", {f"key-{i:03d}": f"key-{(i * 7) % 200:03d}"
                            for i in range(200)},
            msg_id=4, reply_to=None),
    }


def _values():
    return {
        "wal_commit": {"kind": "commit", "lsn": 4097, "view": "ta0002",
                       "image": _image(4), "seq": 300},
        "wal_scalar_list": [0, -64, 63, "x", "x", 1.0, None, True],
    }


def _corpus():
    """name -> bytes, everything the golden file pins."""
    out = {}
    raw_codec = BinaryCodec()
    # The floor the corpus was pinned at: the default has since moved to
    # one TCP segment, which most of these frames fit under.
    zlib_codec = BinaryCodec(compress_level=6, compress_min_bytes=200)
    for name, msg in _messages().items():
        out[f"frame.{name}"] = raw_codec.encode(msg)
        packed = zlib_codec.encode(msg)
        if packed[0] == MAGIC_ZLIB:
            out[f"zbody.{name}"] = zlib.decompress(packed[1:])
        else:
            out[f"zstored.{name}"] = packed
    for name, value in _values().items():
        out[f"value.{name}"] = encode_value(value)
    # JSON has no envelope records: a flight spells its messages as
    # their dicts, as a BATCH does.
    out["json.flight"] = JsonCodec().encode(_flight())
    return out


def test_encoder_output_is_byte_identical_to_golden():
    golden = {k: bytes.fromhex(v) for k, v in json.loads(GOLDEN.read_text()).items()
              if not k.startswith("legacy.")}
    corpus = _corpus()
    assert sorted(corpus) == sorted(golden)
    for name, raw in corpus.items():
        assert raw == golden[name], name
    kinds = {k.split(".")[0] for k in golden}
    assert {"frame", "zbody", "zstored", "value"} <= kinds


@pytest.mark.parametrize("name", sorted({**_messages(), **_legacy_messages()}))
def test_golden_frames_decode_to_the_messages_that_made_them(name):
    """Every pinned frame, and every older spelling the encoder has
    since stopped writing, decodes to the message that made it."""
    golden = json.loads(GOLDEN.read_text())
    current = _messages()
    msg = current[name] if name in current else _legacy_messages()[name]
    raw = bytes.fromhex(golden[f"frame.{name}" if name in current
                               else f"legacy.{name}"])
    decoded = BinaryCodec().decode(raw)
    again = BinaryCodec().decode(BinaryCodec().encode(msg))
    assert decoded == again
    assert decoded.msg_id == msg.msg_id and decoded.reply_to == msg.reply_to
    assert raw[0] == MAGIC_RAW


@pytest.mark.parametrize("magic", [MAGIC_RAW, MAGIC_ZLIB])
def test_dict_form_batch_from_older_encoders_still_splits(magic):
    """``legacy.batch`` spells each sub-message as a six-key dict."""
    legacy = bytes.fromhex(json.loads(GOLDEN.read_text())["legacy.batch"])
    assert legacy[0] == MAGIC_RAW
    frame = legacy
    if magic == MAGIC_ZLIB:
        frame = bytes((MAGIC_ZLIB,)) + zlib.compress(legacy[1:], 6)
    decoded = BinaryCodec().decode(frame)
    expected = _messages()["batch"]
    assert all(type(sub) is dict for sub in decoded.payload["messages"])
    assert split_batch(decoded) == split_batch(expected)
    assert (decoded.msg_type, decoded.src, decoded.dst, decoded.msg_id) == (
        expected.msg_type, expected.src, expected.dst, expected.msg_id)
    native = BinaryCodec().encode(expected)
    assert split_batch(BinaryCodec().decode(native)) == split_batch(expected)
    assert len(native) < len(legacy)


@pytest.mark.parametrize("magic", [MAGIC_RAW, MAGIC_ZLIB])
def test_six_value_r_data_from_older_encoders_still_decodes(magic):
    """``legacy.r_data`` spells the envelope as the generic six values."""
    golden = json.loads(GOLDEN.read_text())
    expected = _legacy_messages()["r_data"]
    legacy = bytes.fromhex(golden["legacy.r_data"])
    assert legacy[0] == MAGIC_RAW and legacy[1] in (0x05, 0x06)
    frame = legacy
    if magic == MAGIC_ZLIB:
        frame = bytes((MAGIC_ZLIB,)) + zlib.compress(legacy[1:], 6)
    decoded = BinaryCodec().decode(frame)
    assert decoded == expected
    assert list(decoded.payload) == list(expected.payload)
    # Not a flight: the encoder now spells it the generic way.
    assert BinaryCodec().encode(expected) == bytes.fromhex(golden["legacy.r_data"])


@pytest.mark.parametrize("magic", [MAGIC_RAW, MAGIC_ZLIB])
def test_message_record_envelopes_from_older_encoders_still_split(magic):
    """``legacy.reliable_flush`` spells every R_DATA/R_ACK sub-message
    as a ``0x0E`` record with a generic payload."""
    golden = json.loads(GOLDEN.read_text())
    expected = _legacy_messages()["reliable_flush"]
    legacy = bytes.fromhex(golden["legacy.reliable_flush"])
    assert legacy[0] == MAGIC_RAW
    frame = legacy
    if magic == MAGIC_ZLIB:
        frame = bytes((MAGIC_ZLIB,)) + zlib.compress(legacy[1:], 6)
    decoded = BinaryCodec().decode(frame)
    assert split_batch(decoded) == split_batch(expected)
    assert [list(m.payload) for m in split_batch(decoded)] == [
        list(m.payload) for m in split_batch(expected)]
    assert decoded.msg_id == expected.msg_id


@pytest.mark.parametrize("magic", [MAGIC_RAW, MAGIC_ZLIB])
@pytest.mark.parametrize(
    "name", ["legacy.r_data_record", "legacy.reliable_flush_record"])
def test_retired_0x0f_records_are_refused(name, magic):
    """The one-message ``0x0F`` envelope record, top-level or nested in
    a BATCH, is a bad frame."""
    legacy = bytes.fromhex(json.loads(GOLDEN.read_text())[name])
    assert legacy[0] == MAGIC_RAW and 0x0F in legacy[1:]
    frame = legacy
    if magic == MAGIC_ZLIB:
        frame = bytes((MAGIC_ZLIB,)) + zlib.compress(legacy[1:], 6)
    with pytest.raises(CodecError):
        BinaryCodec().decode(frame)


def test_a_flight_is_one_record_of_message_records():
    golden = json.loads(GOLDEN.read_text())
    raw = bytes.fromhex(golden["frame.flight"])
    assert raw[:2] == bytes((MAGIC_RAW, 0x11))
    decoded = BinaryCodec().decode(raw)
    assert decoded == _flight()
    assert all(type(m) is Message for m in decoded.payload["m"])
    # JSON spells the messages as dicts; the sublayer reads both.
    via_json = JsonCodec().decode(bytes.fromhex(golden["json.flight"]))
    assert all(type(m) is dict for m in via_json.payload["m"])
    assert [Message.from_dict(m) for m in via_json.payload["m"]] == _flight().payload["m"]


@pytest.mark.parametrize("name", sorted(_values()))
def test_golden_values_decode(name):
    golden = json.loads(GOLDEN.read_text())
    raw = bytes.fromhex(golden[f"value.{name}"])
    assert encode_value(decode_value(raw)) == raw
