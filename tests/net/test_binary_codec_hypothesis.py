"""Cross-codec property tests: for arbitrary payload trees — including
every registered Flecc domain type, non-finite floats, and unicode keys
— the binary codec's round-trip result equals the JSON codec's:

    binary.decode(binary.encode(m)) == json.decode(json.encode(m))

which is the contract that lets a negotiated link pick either format.
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
