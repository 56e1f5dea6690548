"""Cross-codec property tests: for arbitrary payload trees — including
every registered Flecc domain type, non-finite floats, and unicode keys
— the binary codec's round-trip result equals the JSON codec's:

    binary.decode(binary.encode(m)) == json.decode(json.encode(m))

which is the contract that lets a transport speak either format.
A ``Message`` nested in a payload is the one place the two differ in
spelling: binary hands back a ``Message``, JSON its ``to_dict()`` dict
(``split_batch`` reads both), so ``_eq`` compares them field by field.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DiscreteSet,
    Interval,
    ObjectImage,
    Property,
    PropertySet,
    VersionVector,
)
from repro.core.image import DeltaImage
from repro.net import BinaryCodec, JsonCodec, Message
from repro.net.message import make_batch, split_batch

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, width=64),  # infinities allowed
    st.text(max_size=20),
)

domains = st.one_of(
    st.tuples(st.integers(-100, 0), st.integers(1, 100)).map(lambda t: Interval(*t)),
    st.sets(st.integers(-50, 50), min_size=1, max_size=5).map(DiscreteSet),
)
props = st.builds(Property, st.sampled_from(["p", "q", "Flights"]), domains)


@st.composite
def property_sets(draw):
    ps = draw(st.lists(props, max_size=3))
    seen, unique = set(), []
    for p in ps:
        if p.name not in seen:
            seen.add(p.name)
            unique.append(p)
    return PropertySet(unique)


version_vectors = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.integers(0, 100), max_size=3
).map(VersionVector)


@st.composite
def images(draw):
    cells = draw(st.dictionaries(st.text(min_size=1, max_size=8), scalars, max_size=4))
    return ObjectImage(cells, draw(version_vectors))


@st.composite
def delta_images(draw):
    return DeltaImage(
        draw(images()),
        base_seq=draw(st.integers(-1, 50)),
        as_of=draw(st.integers(-1, 50)),
        complete=draw(st.booleans()),
        slice_size=draw(st.integers(-1, 50)),
    )


domain_objects = st.one_of(
    props, property_sets(), version_vectors, images(), delta_images()
)

def nested_messages(children):
    return st.builds(
        Message,
        msg_type=st.sampled_from(["PULL_REQ", "R_DATA", "INVALIDATE"]),
        src=st.text(max_size=8),
        dst=st.sampled_from(["dir", "cm:a", "shard:3"]),
        payload=st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=3),
        msg_id=st.integers(min_value=-(2**63), max_value=2**63),
        reply_to=st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63)),
    )


payload_values = st.recursive(
    st.one_of(scalars, domain_objects),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=3),
        nested_messages(children),
    ),
    max_leaves=12,
)

payloads = st.dictionaries(st.text(min_size=1, max_size=8), payload_values, max_size=4)


def _eq(a, b):
    """Structural equality: tuples==lists, NaN==NaN, zero-default
    version vectors, a nested Message == its dict spelling (how decoded
    payloads may legally differ in spelling while being the same
    value)."""
    if isinstance(a, Message):
        a = a.to_dict()
    if isinstance(b, Message):
        b = b.to_dict()
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, ObjectImage) and isinstance(b, ObjectImage):
        return _eq(a.cells, b.cells) and a.versions == b.versions
    if isinstance(a, DeltaImage) and isinstance(b, DeltaImage):
        return (
            _eq(a.image, b.image)
            and (a.base_seq, a.as_of, a.complete, a.slice_size)
            == (b.base_seq, b.as_of, b.complete, b.slice_size)
        )
    return a == b


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_binary_roundtrip_equals_json_roundtrip(payload):
    m = Message("T", "src", "dst", payload)
    j, b = JsonCodec(), BinaryCodec()
    via_json = j.decode(j.encode(m))
    via_binary = b.decode(b.encode(m))
    assert via_binary.msg_type == via_json.msg_type == "T"
    assert via_binary.msg_id == via_json.msg_id == m.msg_id
    assert _eq(via_binary.payload, via_json.payload)


@given(payloads)
@settings(max_examples=100, deadline=None)
def test_compressed_roundtrip_equals_raw_binary(payload):
    m = Message("T", "src", "dst", payload)
    raw = BinaryCodec()
    packed = BinaryCodec(compress_level=9, compress_min_bytes=1)
    assert _eq(
        packed.decode(packed.encode(m)).payload,
        raw.decode(raw.encode(m)).payload,
    )


@given(st.lists(nested_messages(payload_values), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_batch_envelope_splits_alike_under_every_codec(subs):
    """BATCH: Messages in, Messages out — whichever codec and whether or
    not the frame was deflated."""
    batch = make_batch("dir", subs[0].dst, subs)
    header = lambda m: (m.msg_type, m.src, m.dst, m.msg_id, m.reply_to)
    via_json = split_batch(JsonCodec().decode(JsonCodec().encode(batch)))
    assert [header(m) for m in via_json] == [header(m) for m in subs]
    for codec in (BinaryCodec(),
                  BinaryCodec(compress_level=9, compress_min_bytes=1)):
        decoded = codec.decode(codec.encode(batch))
        assert all(type(m) is Message for m in decoded.payload["messages"])
        assert _eq(split_batch(decoded), via_json)


# -- the reliable sublayer's envelopes --------------------------------------
# An R_DATA flight and an R_ACK have records of their own (0x11 / 0x10)
# when they have exactly ReliableTransport's shape, and the generic
# spelling otherwise.  The strategies below draw that shape and near
# misses of it; every one must decode to what the JSON codec decodes,
# records or not.

ints = st.integers(min_value=-(2**63), max_value=2**63)
not_ints = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                     st.floats(allow_nan=False), st.lists(st.integers(0, 9), max_size=2))
not_strs = st.one_of(st.none(), st.booleans(), ints, st.lists(st.text(max_size=2), max_size=2))


@st.composite
def flight_payloads(draw, exact=False):
    p = {
        "seq": draw(st.integers(0, 2**40)),
        "ctl": draw(st.sampled_from(["rel-ctl", "rel-ctl@n1", ""])),
        "f": draw(st.integers(0, 2**40)),
        "m": draw(st.lists(nested_messages(payload_values), max_size=3)),
    }
    if draw(st.booleans()):
        p["n"] = draw(st.integers(1, 2**20))
    miss = None if exact else draw(st.sampled_from([
        None, "n", "extra", "missing", "seq", "neg_seq", "ctl", "f", "m",
        "entry", "reorder",
    ]))
    if miss == "n":
        p["n"] = draw(st.one_of(st.integers(-2, 0), not_ints))
    elif miss == "extra":
        p[draw(st.sampled_from(["x", "N", "seq2", "t"]))] = draw(scalars)
    elif miss == "missing":
        del p[draw(st.sampled_from(sorted(p)))]
    elif miss == "seq":
        p["seq"] = draw(not_ints)
    elif miss == "neg_seq":
        p["seq"] = draw(st.integers(-(2**40), -1))
    elif miss == "ctl":
        p["ctl"] = draw(not_strs)
    elif miss == "f":
        p["f"] = draw(st.one_of(st.integers(-(2**20), -1), not_ints))
    elif miss == "m":  # not a list
        p["m"] = draw(st.one_of(scalars, st.tuples(
            nested_messages(payload_values))))
    elif miss == "entry":  # a non-message entry among the messages
        p["m"] = p["m"] + [draw(st.one_of(scalars, st.dictionaries(
            st.text(max_size=4), scalars, max_size=2)))]
    elif miss == "reorder":
        p = dict(reversed(list(p.items())))
    return p


ack_seqs = st.one_of(
    st.integers(0, 2**40),
    st.lists(st.integers(0, 2**20), min_size=2, max_size=2),
)
ack_near_seqs = st.one_of(
    ack_seqs,
    st.integers(-(2**20), -1),
    not_ints,
    st.lists(st.integers(-3, 2**20), max_size=3),  # wrong arity or sign
)


ack_entries = st.tuples(
    st.text(max_size=6), st.text(max_size=6), st.lists(ack_seqs, max_size=4)
).map(list)
ack_near_entries = st.one_of(
    st.tuples(st.text(max_size=6), st.text(max_size=6),
              st.lists(ack_near_seqs, max_size=4)).map(list),
    st.lists(st.text(max_size=4), max_size=4),  # wrong arity
    st.tuples(not_strs, st.text(max_size=4),    # a non-str address
              st.lists(ack_seqs, max_size=2)).map(list),
)


@st.composite
def r_ack_payloads(draw):
    near = draw(st.booleans())
    p = {"acks": draw(st.lists(ack_near_entries if near else ack_entries,
                               max_size=4))}
    if near and draw(st.booleans()):
        p[draw(st.sampled_from(["x", "acks2"]))] = draw(scalars)
    return p


envelopes = st.one_of(
    st.builds(Message, st.just("R_DATA"), st.text(max_size=8),
              st.sampled_from(["rel-ctl", "rel-ctl@n2"]), flight_payloads(),
              msg_id=ints, reply_to=st.one_of(st.none(), ints)),
    st.builds(Message, st.just("R_ACK"), st.text(max_size=8),
              st.sampled_from(["rel-ctl", "rel-ctl@n2"]), r_ack_payloads(),
              msg_id=ints, reply_to=st.one_of(st.none(), ints)),
)


@given(envelopes)
@settings(max_examples=300, deadline=None)
def test_envelopes_and_near_misses_round_trip_top_level_and_nested(m):
    j = JsonCodec()
    via_json = j.decode(j.encode(m))
    nested = make_batch("dir", m.dst, [m])
    for codec in (BinaryCodec(),
                  BinaryCodec(compress_level=9, compress_min_bytes=1)):
        top = codec.decode(codec.encode(m))
        assert _eq(top, via_json)
        assert list(top.payload) == list(m.payload)
        (sub,) = split_batch(codec.decode(codec.encode(nested)))
        assert type(sub) is Message and _eq(sub, via_json)
        assert list(sub.payload) == list(m.payload)


@given(st.builds(Message, st.just("R_DATA"), st.text(max_size=8),
                 st.just("rel-ctl"), flight_payloads(exact=True),
                 msg_id=ints))
@settings(max_examples=100, deadline=None)
def test_a_flight_of_the_sublayers_shape_is_one_record_top_level_and_nested(m):
    codec = BinaryCodec()
    raw = codec.encode(m)
    assert raw[1] == 0x11
    assert _eq(codec.decode(raw), m)
    batch = codec.encode(make_batch("dir", m.dst, [m, m]))
    subs = split_batch(codec.decode(batch))
    assert [type(sub) for sub in subs] == [Message, Message]
    assert all(_eq(sub, m) for sub in subs)


@given(st.lists(envelopes, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_json_spells_envelopes_as_their_dicts(subs):
    """JSON has no envelope records: a flush encodes to the bytes of its
    sub-messages' ``to_dict()`` spelling, as it always did."""
    batch = make_batch("dir", subs[0].dst, subs)
    spelled = Message(batch.msg_type, batch.src, batch.dst,
                      {"messages": [m.to_dict() for m in subs]},
                      msg_id=batch.msg_id)
    assert JsonCodec().encode(batch) == JsonCodec().encode(spelled)


@given(st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.floats(width=64),  # includes NaN and both infinities
    max_size=6,
))
@settings(max_examples=100, deadline=None)
def test_float_payloads_cross_codec(cells):
    m = Message("T", "a", "b", {"cells": cells})
    j, b = JsonCodec(), BinaryCodec()
    assert _eq(b.decode(b.encode(m)).payload, j.decode(j.encode(m)).payload)


@given(images())
@settings(max_examples=100, deadline=None)
def test_image_fast_path_matches_generic_json_lowering(img):
    m = Message("PULL_DATA", "dir", "cm", {"image": img})
    j, b = JsonCodec(), BinaryCodec()
    out_b = b.decode(b.encode(m)).payload["image"]
    out_j = j.decode(j.encode(m)).payload["image"]
    assert _eq(out_b.cells, out_j.cells)
    assert out_b.versions == out_j.versions
