"""Compact binary wire codec with adaptive per-frame compression.

Implements the same ``encode``/``decode`` contract as
:class:`~repro.net.codec.JsonCodec` against the same type registry, but
trades the ASCII JSON format for a length-friendly binary one:

- **varint framing** — collection sizes, string lengths, and integers
  are LEB128 varints (zigzag for signed values), so small numbers cost
  one byte instead of their decimal spelling;
- **per-frame string table** — every string (dict keys, codec tags,
  addresses, cell keys, values) is emitted once as a definition and
  referenced by index afterwards, so the key repetition that dominates
  JSON image payloads collapses to two-byte references;
- **struct-packed scalars** — floats travel as 8-byte IEEE doubles
  (non-finite values included), ints as varints of arbitrary precision;
- **fast paths for the hot registered types** — ``ObjectImage`` (cell
  key, version, and value fused into one record, so keys are not
  repeated between the cells dict and the version vector),
  ``DeltaImage``, ``VersionVector``, and ``PropertySet`` are walked
  directly off their attributes with no intermediate jsonable tree.

Adaptive compression rides on top: when ``compress_level`` is set,
frames at least ``compress_min_bytes`` long are zlib-compressed, and
the compressed form is kept only when it is actually smaller.  The
floor defaults to :data:`SEGMENT_BYTES`: a frame that already fits one
TCP segment cannot save a packet on any link, and ``zlib.compress``
builds and zeroes a ~270 KB deflate state per call to find that out.
The decision is recorded per frame on the attached
:class:`~repro.net.stats.MessageStats` (``frames_compressed`` /
``frames_stored`` / ``bytes_saved_compression``).

Frame layout::

    byte 0   magic: 0xF1 raw binary | 0xF2 zlib-compressed body
    body     msg_type, src, dst, msg_id, reply_to, payload — six
             values in the generic encoding below — or one envelope
             record of the reliable sublayer (0x11 flight, 0x10
             r_ack); the decoder tells the two apart by the first tag,
             a string tag in the six-value layout

Value encoding (one tag byte, then data)::

    0x00 null    0x01 true    0x02 false
    0x03 int     zigzag varint (arbitrary precision)
    0x04 float   8-byte big-endian IEEE double
    0x05 strdef  varint byte length + UTF-8 (appends to string table)
    0x06 strref  varint index into the frame's string table
    0x07 list    varint count + values          (tuples decode as lists)
    0x08 dict    varint count + (string key, value) pairs
    0x09 tagged  tag string + jsonable data     (generic registered type)
    0x0A image   ObjectImage fast path
    0x0B vvec    VersionVector fast path
    0x0C pset    PropertySet fast path
    0x0D delta   DeltaImage fast path
    0x0E message nested Message: type, src, dst as strings, msg_id as a
                 zigzag varint, reply_to as varint 0 (none) or zigzag+1,
                 then the payload value
    0x0F         retired (a one-message R_DATA envelope no sublayer
                 reads any more): a bad frame
    0x10 r_ack   R_ACK envelope: src, dst, msg_id (zigzag), entry
                 count; per entry src, dst, a count, then one uvarint
                 ``seq << 1 | has_attempt`` per sequence number, followed
                 by the attempt (uvarint) when that bit is set
    0x11 flight  R_DATA flight: src, dst, msg_id (zigzag), seq
                 (uvarint), ctl, floor (uvarint), attempt (uvarint, 0 =
                 no "n" key), a count, then that many nested message
                 records

A ``Message`` inside a payload — the sub-messages of a ``BATCH``
envelope — is a record of its own, walked off its attributes and
decoded straight back into a ``Message``.  The reliable sublayer's
envelopes get tighter records still, top-level or nested: their
payload keys are implied by the tag, so a flight costs its scalars and
its messages' records, not a dict of keys around them.  Each record
decodes to exactly the ``Message`` the generic spelling decodes to; an
envelope that does not have exactly the sublayer's shape (a key extra,
missing or out of order, a wrong type, a negative ``seq``, an ``"n"``
below 1, a ``reply_to``, a flight's ``"m"`` not a list of messages) is
written the generic way.  The tags are additive: frames written before
them spell sub-messages as six-key dicts or ``0x0E`` records and
envelopes as six values, and still decode (``split_batch`` takes
either spelling).  The one exception is the one-message ``0x0F``
envelope record, retired with the per-message envelope itself: the
sublayer drops such an envelope whatever its spelling, so the codec
refuses the tag.

Decoded results are equal to what :class:`JsonCodec` decodes from the
same message (the cross-codec property tests assert exactly that), with
one deliberate improvement: this format needs no reserved-key escaping,
so payload dicts containing ``"__type__"`` are stored structurally.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CodecError
from repro.net import codec as codec_mod
from repro.net.codec import JsonCodec
from repro.net.message import R_ACK, R_DATA, Message

MAGIC_RAW = 0xF1
MAGIC_ZLIB = 0xF2

_T_NULL = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_SDEF = 0x05
_T_SREF = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_TAGGED = 0x09
_T_IMAGE = 0x0A
_T_VVEC = 0x0B
_T_PSET = 0x0C
_T_DELTA = 0x0D
_T_MSG = 0x0E
_T_RACK = 0x10
_T_FLIGHT = 0x11

# A flight's payload keys, in the order ReliableTransport builds them (a
# retransmission appends "n"); the record decodes them in this order.
_FLIGHT_KEYS = ("seq", "ctl", "f", "m")
_FLIGHT_KEYS_N = _FLIGHT_KEYS + ("n",)

# Payload bytes of one TCP segment on a 1500-byte-MTU path, less
# headers and options with room to spare.  A frame under this leaves in
# one packet whether or not it is deflated, so compression can only cost.
SEGMENT_BYTES = 1400

_DOUBLE = struct.Struct(">d")

# Registered tags the codec encodes/decodes structurally.  Looked up by
# tag string so net/ stays import-independent of core/ (the classes
# register themselves at import time; a frame can only contain them if
# that registration already ran).
_IMAGE_TAG = "flecc.object_image"
_VVEC_TAG = "flecc.version_vector"
_PSET_TAG = "flecc.property_set"
_DELTA_TAG = "flecc.delta_image"


def _write_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n) << 1) - 1


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


# Two-byte records that need no arithmetic: references to the first 128
# table strings, and the ints whose zigzag form fits one varint byte.
_SREF_PAIR = [bytes((_T_SREF, i)) for i in range(0x80)]
_INT_PAIR = {_unzigzag(z): bytes((_T_INT, z)) for z in range(0x80)}

# Pre-built SDEF records are kept per codec for strings up to this many
# characters, and the cache is emptied when it reaches this many entries
# (keys, addresses and message types come straight back; one-off values
# cannot pin memory).
_SDEF_CACHE_STR_MAX = 64
_SDEF_CACHE_ENTRIES = 4096


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
# Module-level functions threading (out, strings, sdef) through: the
# frame body, the frame's string table and the codec's SDEF cache.

def _enc_str(s: str, out: bytearray, strings: Dict[str, int],
             sdef: Dict[str, bytes]) -> None:
    idx = strings.get(s)
    if idx is not None:
        if idx < 0x80:
            out += _SREF_PAIR[idx]
        else:
            out.append(_T_SREF)
            _write_uvarint(out, idx)
        return
    strings[s] = len(strings)
    record = sdef.get(s)
    if record is None:
        raw = s.encode("utf-8")
        head = bytearray((_T_SDEF,))
        _write_uvarint(head, len(raw))
        record = bytes(head) + raw
        if len(s) <= _SDEF_CACHE_STR_MAX:
            if len(sdef) >= _SDEF_CACHE_ENTRIES:
                sdef.clear()
            sdef[s] = record
    out += record


def _enc_value(obj: Any, out: bytearray, strings: Dict[str, int],
               sdef: Dict[str, bytes]) -> None:
    # Dispatch order mirrors JsonCodec._encode_into: exact scalar
    # classes, None, registered types, dict, list/tuple, scalar
    # subclasses (coerced to their base value, like json.dumps) — with
    # the exact dict and list classes, which cannot be registered types,
    # taken ahead of the registry lookup.
    cls = obj.__class__
    if cls is str:
        _enc_str(obj, out, strings, sdef)
        return
    if cls is int:
        pair = _INT_PAIR.get(obj)
        if pair is not None:
            out += pair
        else:
            out.append(_T_INT)
            _write_uvarint(out, _zigzag(obj))
        return
    if cls is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(obj)
        return
    if cls is bool:
        out.append(_T_TRUE if obj else _T_FALSE)
        return
    if obj is None:
        out.append(_T_NULL)
        return
    if cls is dict:
        _enc_dict(obj, out, strings, sdef)
        return
    if cls is list:
        _enc_list(obj, out, strings, sdef)
        return
    if cls is Message:
        _enc_message(obj, out, strings, sdef)
        return
    entry = codec_mod._dispatch_for(cls)
    if entry is not None:
        tag, to_jsonable = entry
        if tag == _IMAGE_TAG:
            _enc_image(obj, out, strings, sdef)
        elif tag == _VVEC_TAG:
            _enc_vvec(obj, out, strings, sdef)
        elif tag == _PSET_TAG:
            _enc_pset(obj, out, strings, sdef)
        elif tag == _DELTA_TAG:
            _enc_delta(obj, out, strings, sdef)
        else:
            out.append(_T_TAGGED)
            _enc_str(tag, out, strings, sdef)
            _enc_value(to_jsonable(obj), out, strings, sdef)
        return
    if isinstance(obj, dict):
        _enc_dict(obj, out, strings, sdef)
        return
    if isinstance(obj, (list, tuple)):
        _enc_list(obj, out, strings, sdef)
        return
    if isinstance(obj, bool):  # bool subclass cannot exist, but order
        out.append(_T_TRUE if obj else _T_FALSE)  # matches JsonCodec
        return
    if isinstance(obj, int):  # IntEnum and friends: coerce like JSON
        out.append(_T_INT)
        _write_uvarint(out, _zigzag(int(obj)))
        return
    if isinstance(obj, float):
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(float(obj))
        return
    if isinstance(obj, str):
        _enc_str(str(obj), out, strings, sdef)
        return
    raise CodecError(
        f"type {type(obj).__name__} is not wire-encodable; "
        f"register it with register_codec_type()"
    )


def _enc_dict(obj: Any, out: bytearray, strings: Dict[str, int],
              sdef: Dict[str, bytes]) -> None:
    out.append(_T_DICT)
    _write_uvarint(out, len(obj))
    for k, v in obj.items():
        _enc_str(k if k.__class__ is str else str(k), out, strings, sdef)
        _enc_value(v, out, strings, sdef)


def _enc_list(obj: Any, out: bytearray, strings: Dict[str, int],
              sdef: Dict[str, bytes]) -> None:
    out.append(_T_LIST)
    _write_uvarint(out, len(obj))
    for v in obj:
        _enc_value(v, out, strings, sdef)


def _enc_message(m: Message, out: bytearray, strings: Dict[str, int],
                 sdef: Dict[str, bytes]) -> None:
    msg_type = m.msg_type
    if ((msg_type == R_DATA or msg_type == R_ACK)
            and _enc_envelope(m, out, strings, sdef)):
        return
    src, dst = m.src, m.dst
    msg_id, reply_to = m.msg_id, m.reply_to
    if not (isinstance(msg_type, str) and isinstance(src, str)
            and isinstance(dst, str) and isinstance(msg_id, int)
            and (reply_to is None or isinstance(reply_to, int))):
        raise CodecError(f"nested message is malformed: {m!r}")
    out.append(_T_MSG)
    _enc_str(msg_type, out, strings, sdef)
    _enc_str(src, out, strings, sdef)
    _enc_str(dst, out, strings, sdef)
    _write_uvarint(out, _zigzag(msg_id))
    _write_uvarint(out, 0 if reply_to is None else _zigzag(reply_to) + 1)
    _enc_value(m.payload, out, strings, sdef)


def _enc_envelope(m: Message, out: bytearray, strings: Dict[str, int],
                  sdef: Dict[str, bytes]) -> bool:
    """Write ``m`` as a flight (0x11) or R_ACK (0x10) record if it has
    exactly the reliable sublayer's shape; False, with nothing written,
    if it does not (the caller then spells it the generic way)."""
    msg_type = m.msg_type
    if msg_type != R_DATA and msg_type != R_ACK:
        return False
    src, dst, msg_id, p = m.src, m.dst, m.msg_id, m.payload
    if not (src.__class__ is str and dst.__class__ is str
            and msg_id.__class__ is int and m.reply_to is None
            and p.__class__ is dict):
        return False
    if msg_type == R_DATA:
        keys = tuple(p)
        if keys == _FLIGHT_KEYS:
            n = 0
        elif keys == _FLIGHT_KEYS_N:
            n = p["n"]
            if n.__class__ is not int or n < 1:
                return False
        else:
            return False
        seq, ctl, floor, msgs = p["seq"], p["ctl"], p["f"], p["m"]
        if not (seq.__class__ is int and seq >= 0 and ctl.__class__ is str
                and floor.__class__ is int and floor >= 0
                and msgs.__class__ is list):
            return False
        for sub in msgs:
            if sub.__class__ is not Message:
                return False
        out.append(_T_FLIGHT)
        _enc_str(src, out, strings, sdef)
        _enc_str(dst, out, strings, sdef)
        _write_uvarint(out, _zigzag(msg_id))
        _write_uvarint(out, seq)
        _enc_str(ctl, out, strings, sdef)
        _write_uvarint(out, floor)
        _write_uvarint(out, n)
        _write_uvarint(out, len(msgs))
        for sub in msgs:
            _enc_message(sub, out, strings, sdef)
        return True
    if len(p) != 1:
        return False
    acks = p.get("acks")
    if acks.__class__ is not list:
        return False
    for entry in acks:
        if entry.__class__ is not list or len(entry) != 3:
            return False
        a, b, seqs = entry
        if not (a.__class__ is str and b.__class__ is str
                and seqs.__class__ is list):
            return False
        for s in seqs:
            if s.__class__ is int:
                if s < 0:
                    return False
            elif not (s.__class__ is list and len(s) == 2
                      and s[0].__class__ is int and s[0] >= 0
                      and s[1].__class__ is int and s[1] >= 0):
                return False
    out.append(_T_RACK)
    _enc_str(src, out, strings, sdef)
    _enc_str(dst, out, strings, sdef)
    _write_uvarint(out, _zigzag(msg_id))
    _write_uvarint(out, len(acks))
    for a, b, seqs in acks:
        _enc_str(a, out, strings, sdef)
        _enc_str(b, out, strings, sdef)
        _write_uvarint(out, len(seqs))
        for s in seqs:
            if s.__class__ is int:
                _write_uvarint(out, s << 1)
            else:
                _write_uvarint(out, s[0] << 1 | 1)
                _write_uvarint(out, s[1])
    return True


def _enc_image(img: Any, out: bytearray, strings: Dict[str, int],
               sdef: Dict[str, bytes]) -> None:
    """One record per cell: key, version, value — the key crosses the
    wire once instead of appearing in both the cells dict and the
    version vector.  Version entries without a live cell (possible
    after restricts/merges) follow as a separate (key, version) list.
    """
    out.append(_T_IMAGE)
    cells = img.cells
    versions = img.versions
    vget = versions.get
    _write_uvarint(out, len(cells))
    for k, v in cells.items():
        key = k if k.__class__ is str else str(k)
        _enc_str(key, out, strings, sdef)
        _write_uvarint(out, vget(key))
        _enc_value(v, out, strings, sdef)
    extra = [k for k in versions.keys() if k not in cells]
    _write_uvarint(out, len(extra))
    for k in extra:
        _enc_str(k, out, strings, sdef)
        _write_uvarint(out, vget(k))


def _enc_vvec(vv: Any, out: bytearray, strings: Dict[str, int],
              sdef: Dict[str, bytes]) -> None:
    out.append(_T_VVEC)
    keys = list(vv.keys())
    _write_uvarint(out, len(keys))
    vget = vv.get
    for k in keys:
        _enc_str(k, out, strings, sdef)
        _write_uvarint(out, vget(k))


def _enc_pset(ps: Any, out: bytearray, strings: Dict[str, int],
              sdef: Dict[str, bytes]) -> None:
    out.append(_T_PSET)
    _write_uvarint(out, len(ps))
    for p in ps:  # deterministic name-sorted order
        _enc_str(p.name, out, strings, sdef)
        _enc_value(p.domain.to_jsonable(), out, strings, sdef)


def _enc_delta(d: Any, out: bytearray, strings: Dict[str, int],
               sdef: Dict[str, bytes]) -> None:
    out.append(_T_DELTA)
    _enc_image(d.image, out, strings, sdef)
    _write_uvarint(out, _zigzag(d.base_seq))
    _write_uvarint(out, _zigzag(d.as_of))
    out.append(1 if d.complete else 0)
    _write_uvarint(out, _zigzag(d.slice_size))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
# Module-level functions over (buf, pos, strings) returning (value,
# pos): the cursor is a local int.  Reading past the end of ``buf``
# raises IndexError, which the entry points report as a truncated frame.

_TRUNCATED = "truncated binary frame"


def _dec_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
    b = buf[pos]
    pos += 1
    if b < 0x80:
        return b, pos
    result = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7
        if shift > 10_000:  # corrupt frame guard
            raise CodecError("runaway varint in binary frame")


def _dec_str(buf: bytes, pos: int, strings: List[str]) -> Tuple[str, int]:
    tag = buf[pos]
    n = buf[pos + 1]
    if n < 0x80:
        pos += 2
    else:
        n, pos = _dec_uvarint(buf, pos + 1)
    if tag == _T_SREF:
        if n >= len(strings):
            raise CodecError(f"string table reference out of range: {n}")
        return strings[n], pos
    if tag == _T_SDEF:
        end = pos + n
        if end > len(buf):
            raise CodecError(_TRUNCATED)
        s = str(buf[pos:end], "utf-8")
        strings.append(s)
        return s, end
    raise CodecError(f"expected string, found value tag {tag:#x}")


def _dec_value(buf: bytes, pos: int, strings: List[str]) -> Tuple[Any, int]:
    tag = buf[pos]
    if tag == _T_SREF or tag == _T_SDEF:
        return _dec_str(buf, pos, strings)
    pos += 1
    if tag == _T_INT:
        z = buf[pos]
        if z < 0x80:
            pos += 1
        else:
            z, pos = _dec_uvarint(buf, pos)
        return ((z >> 1) if not (z & 1) else -((z + 1) >> 1)), pos  # _unzigzag
    if tag == _T_DICT:
        n, pos = _dec_uvarint(buf, pos)
        d: Dict[str, Any] = {}
        for _ in range(n):
            key, pos = _dec_str(buf, pos, strings)
            d[key], pos = _dec_value(buf, pos, strings)
        return d, pos
    if tag == _T_LIST:
        n, pos = _dec_uvarint(buf, pos)
        items: List[Any] = []
        append = items.append
        for _ in range(n):
            v, pos = _dec_value(buf, pos, strings)
            append(v)
        return items, pos
    if tag == _T_FLIGHT:
        return _dec_flight(buf, pos, strings)
    if tag == _T_RACK:
        return _dec_rack(buf, pos, strings)
    if tag == _T_FLOAT:
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_NULL:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_MSG:
        return _dec_message(buf, pos, strings)
    if tag == _T_IMAGE:
        return _dec_image(buf, pos, strings)
    if tag == _T_VVEC:
        n, pos = _dec_uvarint(buf, pos)
        versions: Dict[str, int] = {}
        for _ in range(n):
            key, pos = _dec_str(buf, pos, strings)
            versions[key], pos = _dec_uvarint(buf, pos)
        return _from_registry(_VVEC_TAG)(versions), pos
    if tag == _T_PSET:
        n, pos = _dec_uvarint(buf, pos)
        props = []
        for _ in range(n):
            name, pos = _dec_str(buf, pos, strings)
            domain, pos = _dec_value(buf, pos, strings)
            props.append({"name": name, "domain": domain})
        return _from_registry(_PSET_TAG)(props), pos
    if tag == _T_DELTA:
        if buf[pos] != _T_IMAGE:
            raise CodecError("malformed delta frame: missing image")
        image, pos = _dec_image(buf, pos + 1, strings)
        base_seq, pos = _dec_uvarint(buf, pos)
        as_of, pos = _dec_uvarint(buf, pos)
        complete = bool(buf[pos])
        slice_size, pos = _dec_uvarint(buf, pos + 1)
        return _from_registry(_DELTA_TAG)({
            "image": image,
            "base_seq": _unzigzag(base_seq),
            "as_of": _unzigzag(as_of),
            "complete": complete,
            "slice_size": _unzigzag(slice_size),
        }), pos
    if tag == _T_TAGGED:
        type_tag, pos = _dec_str(buf, pos, strings)
        data, pos = _dec_value(buf, pos, strings)
        return _from_registry(type_tag)(data), pos
    raise CodecError(f"unknown value tag in binary frame: {tag:#x}")


def _dec_message(buf: bytes, pos: int, strings: List[str]) -> Tuple[Message, int]:
    msg_type, pos = _dec_str(buf, pos, strings)
    src, pos = _dec_str(buf, pos, strings)
    dst, pos = _dec_str(buf, pos, strings)
    msg_id, pos = _dec_uvarint(buf, pos)
    reply_to, pos = _dec_uvarint(buf, pos)
    payload, pos = _dec_value(buf, pos, strings)
    return Message(
        msg_type, src, dst, payload, _unzigzag(msg_id),
        _unzigzag(reply_to - 1) if reply_to else None,
    ), pos


def _dec_flight(buf: bytes, pos: int, strings: List[str]) -> Tuple[Message, int]:
    src, pos = _dec_str(buf, pos, strings)
    dst, pos = _dec_str(buf, pos, strings)
    msg_id, pos = _dec_uvarint(buf, pos)
    seq, pos = _dec_uvarint(buf, pos)
    ctl, pos = _dec_str(buf, pos, strings)
    floor, pos = _dec_uvarint(buf, pos)
    n, pos = _dec_uvarint(buf, pos)
    count, pos = _dec_uvarint(buf, pos)
    msgs: List[Any] = []
    for _ in range(count):
        if buf[pos] == _T_MSG:
            sub, pos = _dec_message(buf, pos + 1, strings)
        else:
            sub, pos = _dec_value(buf, pos, strings)
        msgs.append(sub)
    payload: Dict[str, Any] = {"seq": seq, "ctl": ctl, "f": floor, "m": msgs}
    if n:
        payload["n"] = n
    return Message(R_DATA, src, dst, payload, _unzigzag(msg_id)), pos


def _dec_rack(buf: bytes, pos: int, strings: List[str]) -> Tuple[Message, int]:
    src, pos = _dec_str(buf, pos, strings)
    dst, pos = _dec_str(buf, pos, strings)
    msg_id, pos = _dec_uvarint(buf, pos)
    count, pos = _dec_uvarint(buf, pos)
    acks: List[Any] = []
    for _ in range(count):
        a, pos = _dec_str(buf, pos, strings)
        b, pos = _dec_str(buf, pos, strings)
        k, pos = _dec_uvarint(buf, pos)
        seqs: List[Any] = []
        for _ in range(k):
            v, pos = _dec_uvarint(buf, pos)
            if v & 1:
                attempt, pos = _dec_uvarint(buf, pos)
                seqs.append([v >> 1, attempt])
            else:
                seqs.append(v >> 1)
        acks.append([a, b, seqs])
    return Message(R_ACK, src, dst, {"acks": acks}, _unzigzag(msg_id)), pos


def _dec_frame_body(buf: bytes, pos: int) -> Tuple[Message, int]:
    """A frame body: one envelope record, or the six header values."""
    strings: List[str] = []
    tag = buf[pos]
    if tag == _T_FLIGHT:
        return _dec_flight(buf, pos + 1, strings)
    if tag == _T_RACK:
        return _dec_rack(buf, pos + 1, strings)
    msg_type, pos = _dec_value(buf, pos, strings)
    src, pos = _dec_value(buf, pos, strings)
    dst, pos = _dec_value(buf, pos, strings)
    msg_id, pos = _dec_value(buf, pos, strings)
    reply_to, pos = _dec_value(buf, pos, strings)
    payload, pos = _dec_value(buf, pos, strings)
    if not (msg_type.__class__ is str and src.__class__ is str
            and dst.__class__ is str and msg_id.__class__ is int
            and (reply_to is None or reply_to.__class__ is int)):
        raise CodecError(
            "frame is not a message: bad header "
            f"{(msg_type, src, dst, msg_id, reply_to)!r}")
    return Message(msg_type, src, dst, payload, msg_id, reply_to), pos


def _dec_image(buf: bytes, pos: int, strings: List[str]) -> Tuple[Any, int]:
    cells: Dict[str, Any] = {}
    versions: Dict[str, int] = {}
    n, pos = _dec_uvarint(buf, pos)
    for _ in range(n):
        key, pos = _dec_str(buf, pos, strings)
        versions[key], pos = _dec_uvarint(buf, pos)
        cells[key], pos = _dec_value(buf, pos, strings)
    n, pos = _dec_uvarint(buf, pos)
    for _ in range(n):
        key, pos = _dec_str(buf, pos, strings)
        versions[key], pos = _dec_uvarint(buf, pos)
    return _from_registry(_IMAGE_TAG)({"cells": cells, "versions": versions}), pos


def _from_registry(tag: str) -> Callable[[Any], Any]:
    try:
        return codec_mod._REGISTRY[tag][2]
    except KeyError:
        raise CodecError(f"unknown codec tag {tag!r} in frame")


# What a corrupt body can raise out of the decode functions, by way of
# the registry constructors, struct, str() and range().
_DECODE_ERRORS = (ValueError, TypeError, KeyError, OverflowError, struct.error)


class BinaryCodec:
    """Compact binary codec, wire-compatible payload-wise with JsonCodec.

    ``compress_level``: zlib level 1-9 enables adaptive per-frame
    compression (``None``/0 disables it).  ``compress_min_bytes``:
    frames shorter than this are stored raw without sampling; the
    default is one TCP segment (:data:`SEGMENT_BYTES`).  ``stats``
    (attached by the owning transport) receives the per-frame
    compression decisions.
    """

    stats: Optional[Any] = None

    def __init__(
        self,
        compress_level: Optional[int] = None,
        compress_min_bytes: int = SEGMENT_BYTES,
    ) -> None:
        if compress_level is not None and not 0 <= compress_level <= 9:
            raise CodecError(f"compress_level must be 0-9: {compress_level}")
        self.compress_level = compress_level or None
        self.compress_min_bytes = compress_min_bytes
        # string -> its pre-built SDEF record (see _enc_str); a pure
        # memo, so sharing the codec between threads stays race-free.
        self._sdef: Dict[str, bytes] = {}

    # -- encoding --------------------------------------------------------
    def encode(self, msg: Message) -> bytes:
        try:
            frame = bytearray((MAGIC_RAW,))
            strings: Dict[str, int] = {}
            sdef = self._sdef
            if not _enc_envelope(msg, frame, strings, sdef):
                _enc_value(msg.msg_type, frame, strings, sdef)
                _enc_value(msg.src, frame, strings, sdef)
                _enc_value(msg.dst, frame, strings, sdef)
                _enc_value(msg.msg_id, frame, strings, sdef)
                _enc_value(msg.reply_to, frame, strings, sdef)
                _enc_value(msg.payload, frame, strings, sdef)
        except CodecError:
            raise
        except (TypeError, ValueError, struct.error) as exc:
            raise CodecError(f"cannot encode {msg}: {exc}") from exc
        return self._finish_frame(frame)

    def _finish_frame(self, frame: bytearray) -> bytes:
        """Apply the adaptive compression decision to a raw frame (magic
        byte already in place, body behind it)."""
        level = self.compress_level
        if level:
            stats = self.stats
            size = len(frame) - 1
            if size >= self.compress_min_bytes:
                packed = zlib.compress(memoryview(frame)[1:], level)
                if len(packed) < size:
                    if stats is not None:
                        stats.record_compression(size - len(packed))
                    return bytes((MAGIC_ZLIB,)) + packed
            # Below the threshold, or the sample did not shrink: store.
            if stats is not None:
                stats.record_stored()
        return bytes(frame)

    # -- decoding --------------------------------------------------------
    def decode(self, raw: bytes) -> Message:
        if not raw:
            raise CodecError("cannot decode empty frame")
        magic = raw[0]
        if magic == MAGIC_RAW:
            body, pos = raw, 1
        elif magic == MAGIC_ZLIB:
            try:
                body, pos = zlib.decompress(memoryview(raw)[1:]), 0
            except zlib.error as exc:
                raise CodecError(f"cannot decompress frame: {exc}") from exc
        else:
            raise CodecError(f"unknown binary frame magic: {magic:#x}")
        try:
            msg, pos = _dec_frame_body(body, pos)
        except CodecError:
            raise
        except IndexError:
            raise CodecError(_TRUNCATED) from None
        except _DECODE_ERRORS as exc:
            raise CodecError(f"cannot decode frame: {exc}") from exc
        if pos != len(body):
            raise CodecError(
                f"trailing bytes after message: {len(body) - pos}")
        return msg


# ---------------------------------------------------------------------------
# Standalone value encoding (used by the durability WAL)
# ---------------------------------------------------------------------------
# Every call gets a fresh per-value string table, so encoded values are
# self-contained byte strings (unlike message frames, whose string table
# spans the whole frame); the SDEF cache is shared across calls.

_VALUE_SDEF: Dict[str, bytes] = {}


def encode_value(obj: Any) -> bytes:
    """Encode one value (scalars, containers, registered types) to bytes.

    The byte string is self-contained: it carries its own string table
    and decodes without any frame context.  ``ObjectImage`` payloads get
    the fused (key, version, value) cell records, exactly as on the
    wire — which is why the WAL reuses this instead of inventing its own
    record format.
    """
    body = bytearray()
    try:
        _enc_value(obj, body, {}, _VALUE_SDEF)
    except CodecError:
        raise
    except (TypeError, ValueError, struct.error) as exc:
        raise CodecError(f"cannot encode value {obj!r}: {exc}") from exc
    return bytes(body)


def decode_value(raw: bytes) -> Any:
    """Decode one :func:`encode_value` byte string back to its value.

    Trailing bytes after the value are an error — a WAL record is one
    value, so leftovers mean the framing around it is wrong.
    """
    try:
        value, pos = _dec_value(raw, 0, [])
    except CodecError:
        raise
    except IndexError:
        raise CodecError(_TRUNCATED) from None
    except _DECODE_ERRORS as exc:
        raise CodecError(f"cannot decode value: {exc}") from exc
    if pos != len(raw):
        raise CodecError(f"trailing bytes after value: {len(raw) - pos}")
    return value


# ---------------------------------------------------------------------------
# Codec selection
# ---------------------------------------------------------------------------
# Spec strings are what system-level callers pass (``codec="binary"``);
# instances pass through untouched.

CODEC_JSON = "json"
CODEC_BINARY = "binary"
CODEC_BINARY_ZLIB = "binary+zlib"

_SPECS: Dict[str, Callable[[], Any]] = {
    CODEC_JSON: JsonCodec,
    CODEC_BINARY: BinaryCodec,
    CODEC_BINARY_ZLIB: lambda: BinaryCodec(compress_level=6),
}


def resolve_codec(spec: Any = None) -> Any:
    """Build a codec from a spec: ``None``/"json" | "binary" |
    "binary+zlib" | an instance implementing ``encode``/``decode``."""
    if spec is None:
        return JsonCodec()
    if isinstance(spec, str):
        factory = _SPECS.get(spec)
        if factory is None:
            raise CodecError(
                f"unknown codec spec {spec!r}; choose from "
                f"{sorted(_SPECS)} or pass a codec instance"
            )
        return factory()
    if callable(getattr(spec, "encode", None)) and callable(
        getattr(spec, "decode", None)
    ):
        return spec
    raise CodecError(f"not a codec: {spec!r}")


def codec_name(codec: Any) -> str:
    """The wire name a codec instance answers to.

    Compressed and raw binary share one wire name — the frame magic
    distinguishes them, so any binary decoder handles both.
    """
    if isinstance(codec, BinaryCodec):
        return CODEC_BINARY
    if isinstance(codec, JsonCodec):
        return CODEC_JSON
    return getattr(codec, "name", type(codec).__name__)
