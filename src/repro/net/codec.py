"""Wire codec: JSON with an extensible type registry.

Payloads may contain registered domain objects (property sets, object
images, version vectors...).  Registered types are encoded as
``{"__type__": tag, "data": <jsonable>}`` so the TCP transport can carry
the same payloads that the in-process simulated transport passes by
value.  The registry is the single source of truth for what may cross
the wire — anything else raises :class:`~repro.errors.CodecError`
instead of silently pickling arbitrary objects.

Hot-path note: strict-wire simulation round-trips *every* message
through this codec, so encoding cost is protocol-tick cost.  The
encoder is single-pass — it streams JSON text fragments while walking
the payload once, instead of first lowering to an intermediate jsonable
tree and then having :func:`json.dumps` walk that tree again — and
registry dispatch is memoized per concrete class.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import CodecError
from repro.net.message import Message

# tag -> (cls, to_jsonable, from_jsonable)
_REGISTRY: Dict[str, Tuple[type, Callable[[Any], Any], Callable[[Any], Any]]] = {}
# cls -> tag (reverse index)
_BY_CLASS: Dict[type, str] = {}
# cls -> (tag, to_jsonable) | None — memoized dispatch for the encoder.
# Also caches negative answers for plain classes (dict, list, str, ...)
# so the common case is a single dict hit.
_DISPATCH: Dict[type, Optional[Tuple[str, Callable[[Any], Any]]]] = {}
# Guards registration against concurrent dispatch-memo population: the
# socket transport's loop thread can be decoding (and memoizing negative answers)
# while an application module's import-time register_codec_type runs.
# Without the lock a racing _dispatch_for could re-cache a stale
# negative entry for a freshly registered class after the clear().
_registry_lock = threading.RLock()


def _same_converter(f: Callable[[Any], Any], g: Callable[[Any], Any]) -> bool:
    """Best-effort sameness for converter callables.

    Identity first (covers module-level functions and methods, which are
    the same objects on re-import); for distinct function objects —
    typically lambdas re-created by a re-executed registration — compare
    compiled code so *equivalent* re-registrations stay idempotent while
    *behaviorally different* ones are caught.
    """
    if f is g:
        return True
    fc = getattr(f, "__code__", None)
    gc = getattr(g, "__code__", None)
    if fc is None or gc is None:
        return False
    return (
        fc.co_code == gc.co_code
        and fc.co_consts == gc.co_consts
        and fc.co_names == gc.co_names
        and getattr(f, "__defaults__", None) == getattr(g, "__defaults__", None)
    )


def register_codec_type(
    tag: str,
    cls: Type[Any],
    to_jsonable: Callable[[Any], Any],
    from_jsonable: Callable[[Any], Any],
) -> None:
    """Register a domain type for wire transport.

    Re-registering the same ``(tag, cls)`` pair with the same converters
    is an idempotent no-op so modules can register at import time;
    conflicting registrations — a different class for the tag, or the
    same pair with *different* converter functions — raise instead of
    silently keeping whichever registration ran first.
    """
    with _registry_lock:
        if tag in _REGISTRY:
            existing_cls, existing_to, existing_from = _REGISTRY[tag]
            if existing_cls is not cls:
                raise CodecError(
                    f"codec tag {tag!r} already bound to {existing_cls}"
                )
            if _same_converter(existing_to, to_jsonable) and _same_converter(
                existing_from, from_jsonable
            ):
                return
            raise CodecError(
                f"codec tag {tag!r} re-registered with different "
                f"to_jsonable/from_jsonable converters"
            )
        _REGISTRY[tag] = (cls, to_jsonable, from_jsonable)
        _BY_CLASS[cls] = tag
        _DISPATCH.clear()  # drop any memoized negative answer for cls


def registered_tags() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _dispatch_for(cls: type) -> Optional[Tuple[str, Callable[[Any], Any]]]:
    try:
        return _DISPATCH[cls]
    except KeyError:
        # Populate under the registry lock so a concurrent late
        # registration cannot interleave between our registry lookup and
        # the memo store (which would pin a stale negative answer).
        with _registry_lock:
            tag = _BY_CLASS.get(cls)
            entry = (tag, _REGISTRY[tag][1]) if tag is not None else None
            _DISPATCH[cls] = entry
        return entry


# C-accelerated string escaper — the same one json.dumps uses with the
# default ensure_ascii=True, so the fast path emits identical bytes.
_escape_str = json.encoder.encode_basestring_ascii

# Non-finite floats spelled the way json.dumps (allow_nan=True) spells them.
_FLOAT_INF = float("inf")


def _format_float(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == _FLOAT_INF:
        return "Infinity"
    if value == -_FLOAT_INF:
        return "-Infinity"
    return float.__repr__(value)


class JsonCodec:
    """Encode/decode :class:`Message` to length-prefix-friendly bytes."""

    # Optional MessageStats hook (set by the owning transport).  The
    # JSON codec never compresses, so it only carries the attribute for
    # interface parity with BinaryCodec.
    stats: Optional[Any] = None

    def encode(self, msg: Message) -> bytes:
        try:
            parts: List[str] = []
            self._encode_into(msg.to_dict(), parts)
            return "".join(parts).encode("utf-8")
        except CodecError:
            raise
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot encode {msg}: {exc}") from exc

    def decode(self, raw: bytes) -> Message:
        try:
            d = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"cannot decode frame: {exc}") from exc
        if not isinstance(d, dict) or "msg_type" not in d:
            raise CodecError(f"frame is not a message: {d!r}")
        return Message.from_dict(self._raise_types(d))

    # -- single-pass lowering + serialization ---------------------------
    # A plain user dict may itself contain the reserved "__type__" key;
    # such dicts are escaped as a pair list so they can never be
    # mistaken for a tagged object on decode.
    _DICT_ESCAPE_TAG = "codec.escaped-dict"

    def _encode_into(self, obj: Any, out: List[str]) -> None:
        """Append the JSON text of ``obj`` to ``out`` (one traversal).

        Byte-identical to ``json.dumps(self._lower(obj))`` — the test
        suite diffs the two — but without materializing the lowered
        intermediate tree.  Scalars use the C escaper/formatters the
        stdlib encoder uses.
        """
        cls = obj.__class__
        if cls is str:
            out.append(_escape_str(obj))
            return
        if cls is int:
            out.append(int.__repr__(obj))
            return
        if cls is float:
            out.append(_format_float(obj))
            return
        if cls is bool:
            out.append("true" if obj else "false")
            return
        if obj is None:
            out.append("null")
            return
        entry = _dispatch_for(cls)
        if entry is not None:
            tag, to_jsonable = entry
            out.append('{"__type__": ')
            out.append(_escape_str(tag))
            out.append(', "data": ')
            self._encode_into(to_jsonable(obj), out)
            out.append("}")
            return
        if isinstance(obj, dict):
            self._encode_dict(obj, out)
            return
        if isinstance(obj, (list, tuple)):
            out.append("[")
            first = True
            for v in obj:
                if not first:
                    out.append(", ")
                first = False
                self._encode_into(v, out)
            out.append("]")
            return
        if cls is Message:
            # A message inside a payload (a BATCH envelope's
            # sub-messages) is spelled as its plain dict.
            self._encode_dict(obj.to_dict(), out)
            return
        if isinstance(obj, (bool, int, float, str)):
            # Scalar subclasses (IntEnum, str subclasses, ...) — rare;
            # format through json.dumps like the reference pass does.
            out.append(json.dumps(self._lower(obj)))
            return
        raise CodecError(
            f"type {type(obj).__name__} is not wire-encodable; "
            f"register it with register_codec_type()"
        )

    def _encode_dict(self, obj: dict, out: List[str]) -> None:
        escape = "__type__" in obj
        if not escape:
            for k in obj:
                if type(k) is not str and str(k) == "__type__":
                    escape = True
                    break
        if escape:
            # Rare path: the dict contains the reserved "__type__" key —
            # emit the escaped pair-list form so decode cannot mistake
            # it for a tagged object.
            out.append('{"__type__": ')
            out.append(_escape_str(self._DICT_ESCAPE_TAG))
            out.append(', "data": [')
            first = True
            for k, v in obj.items():
                if not first:
                    out.append(", ")
                first = False
                out.append("[")
                out.append(_escape_str(k if type(k) is str else str(k)))
                out.append(", ")
                self._encode_into(v, out)
                out.append("]")
            out.append("]}")
            return
        out.append("{")
        first = True
        for k, v in obj.items():
            if not first:
                out.append(", ")
            first = False
            out.append(_escape_str(k if type(k) is str else str(k)))
            out.append(": ")
            self._encode_into(v, out)
        out.append("}")

    # -- legacy two-pass lowering (kept as the reference implementation;
    #    the codec equivalence tests diff it against the fast path) ------
    def _lower(self, obj: Any) -> Any:
        """Replace registered objects with tagged JSON-able dicts."""
        entry = _dispatch_for(type(obj))
        if entry is not None:
            tag, to_jsonable = entry
            return {"__type__": tag, "data": self._lower(to_jsonable(obj))}
        if isinstance(obj, dict):
            lowered = {str(k): self._lower(v) for k, v in obj.items()}
            if "__type__" in lowered:
                return {
                    "__type__": self._DICT_ESCAPE_TAG,
                    "data": [[k, v] for k, v in lowered.items()],
                }
            return lowered
        if isinstance(obj, (list, tuple)):
            return [self._lower(v) for v in obj]
        if isinstance(obj, Message):
            return self._lower(obj.to_dict())
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        raise CodecError(
            f"type {type(obj).__name__} is not wire-encodable; "
            f"register it with register_codec_type()"
        )

    def _raise_types(self, obj: Any) -> Any:
        """Reconstruct registered objects from tagged dicts."""
        if isinstance(obj, dict):
            if "__type__" in obj:
                tag = obj["__type__"]
                if tag == self._DICT_ESCAPE_TAG:
                    return {
                        k: self._raise_types(v) for k, v in obj.get("data", [])
                    }
                if not isinstance(tag, str) or tag not in _REGISTRY:
                    raise CodecError(f"unknown codec tag {tag!r} in frame")
                _, _, from_jsonable = _REGISTRY[tag]
                return from_jsonable(self._raise_types(obj.get("data")))
            return {k: self._raise_types(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [self._raise_types(v) for v in obj]
        return obj


def roundtrip(msg: Message, codec: Optional[Any] = None) -> Message:
    """Encode then decode (test helper; also used by the sim transport's
    optional *strict wire* mode to guarantee sim/TCP parity).  Uses a
    fresh :class:`JsonCodec` unless ``codec`` is given."""
    codec = JsonCodec() if codec is None else codec
    return codec.decode(codec.encode(msg))
