"""The message envelope exchanged between protocol endpoints.

Every control message in the system — Flecc protocol traffic, baseline
protocol traffic, PSF deployment commands — travels as a
:class:`Message`.  Keeping a single envelope lets
:class:`~repro.net.stats.MessageStats` count the paper's efficiency
metric uniformly across protocols and transports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import CodecError

_msg_ids = itertools.count(1)


def next_message_id() -> int:
    """Monotonically increasing process-wide message id."""
    return next(_msg_ids)


def reset_message_ids() -> None:
    """Restart the process-wide id counter at 1.

    Each experiment run resets the counter so a run's output is
    independent of what else executed in the same process — the property
    that makes serial and multiprocess experiment results comparable.
    """
    global _msg_ids
    _msg_ids = itertools.count(1)


@dataclass
class Message:
    """A routed control message.

    Attributes:
        msg_type: Protocol-level message kind (e.g. ``"PULL_REQ"``).
        src: Sender address (string, transport-level).
        dst: Receiver address.
        payload: JSON-serializable body (codec-registered objects allowed).
        msg_id: Unique id, assigned at construction.
        reply_to: ``msg_id`` of the request this message answers, if any.
    """

    msg_type: str
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=next_message_id)
    reply_to: Optional[int] = None

    def reply(self, msg_type: str, payload: Optional[Dict[str, Any]] = None) -> "Message":
        """Build the response message (dst/src swapped, correlated id)."""
        return Message(
            msg_type=msg_type,
            src=self.dst,
            dst=self.src,
            payload=payload or {},
            reply_to=self.msg_id,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the wire codec."""
        return {
            "msg_type": self.msg_type,
            "src": self.src,
            "dst": self.dst,
            "payload": self.payload,
            "msg_id": self.msg_id,
            "reply_to": self.reply_to,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Message":
        return cls(
            msg_type=d["msg_type"],
            src=d["src"],
            dst=d["dst"],
            payload=d.get("payload", {}),
            msg_id=d.get("msg_id", 0),
            reply_to=d.get("reply_to"),
        )

    def __getitem__(self, name: str) -> Any:
        """Field access the way the ``to_dict()`` spelling offers it: a
        BATCH envelope's sub-messages are ``Message`` objects in process
        and off a binary frame, dicts off a JSON one, and code that
        peeks into an envelope without ``split_batch`` reads both."""
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)

    def __str__(self) -> str:
        corr = f" re:{self.reply_to}" if self.reply_to is not None else ""
        return f"[{self.msg_id}{corr}] {self.src} -> {self.dst} {self.msg_type}"


# ---------------------------------------------------------------------------
# Coalesced frames
# ---------------------------------------------------------------------------
# A BATCH message is a transport-level envelope: one frame carrying
# several independent sub-messages headed to endpoints on the same node.
# The sender pays one send (one codec pass, one frame, one latency) for
# the whole group; the receiving transport splits the envelope and
# dispatches each sub-message to its own endpoint handler, so protocol
# engines never see BATCH itself.  The envelope carries the sub-messages
# as they are: BinaryCodec writes each as a native record and decodes it
# straight back to a Message; JsonCodec spells each as its ``to_dict()``
# dict, which is also what binary frames written before the native
# record held, so a received envelope may carry either.

BATCH = "BATCH"

# The reliable-delivery sublayer's envelopes (net/reliability.py), named
# here beside BATCH because the binary codec spells both as records of
# their own.  An R_DATA is a flight: it carries its logical messages
# under "m" the way a BATCH carries them under "messages".
R_DATA = "R_DATA"
R_ACK = "R_ACK"


def make_batch(src: str, dst: str, messages: Sequence[Message]) -> Message:
    """Wrap ``messages`` into one BATCH frame addressed to ``dst``.

    ``dst`` must be a bound endpoint on the node the sub-messages target
    (conventionally the first sub-message's destination).  An empty
    batch is meaningless on the wire and is rejected.
    """
    if not messages:
        raise ValueError("cannot build an empty BATCH")
    return Message(
        msg_type=BATCH,
        src=src,
        dst=dst,
        payload={"messages": list(messages)},
    )


def is_batch(msg: Message) -> bool:
    return msg.msg_type == BATCH


def split_batch(msg: Message) -> List[Message]:
    """Unwrap a BATCH frame into its sub-messages (delivery order).

    An envelope that holds no sub-messages, or anything but messages,
    cannot be read and raises :class:`CodecError`, as an undecodable
    frame does.
    """
    if msg.msg_type != BATCH:
        raise ValueError(f"not a BATCH message: {msg.msg_type}")
    try:
        subs = read_messages(msg.payload["messages"])
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed BATCH frame: {exc!r}") from None
    if not subs:
        raise CodecError("empty BATCH frame")
    return subs


def read_messages(entries: Any) -> List[Message]:
    """The messages an envelope carries: ``Message`` objects in process
    and off a binary frame, their ``to_dict()`` dicts off a JSON one.
    Anything else raises ``KeyError``/``TypeError``."""
    return [m if m.__class__ is Message else Message.from_dict(m)
            for m in entries]
