"""Network substrate: messages, codecs, transports, topology, statistics.

The Flecc protocol engines (directory manager, cache managers) are
transport-agnostic: they talk to a :class:`~repro.net.transport.Transport`
which provides message delivery, a clock, timers, and completions.

Two interchangeable transports are provided (see
:func:`~repro.net.transport.resolve_transport`):

- :class:`~repro.net.sim_transport.SimTransport` — deterministic
  discrete-event delivery over a :class:`~repro.net.topology.Topology`
  (per-link latencies), used by all benchmarks.
- :class:`~repro.net.aio_transport.AioTcpTransport` — real TCP sockets on
  localhost with length-prefixed frames, each connection speaking the
  transport's codec from its first frame, matching the paper's
  "prototype with sockets" character, on one asyncio event loop:
  endpoints multiplex one socket pair, writes coalesce into single
  flushes, and bounded send queues push back on senders instead of
  buffering unboundedly.

Two wire codecs share one type registry:
:class:`~repro.net.codec.JsonCodec` (text, always available) and
:class:`~repro.net.binary_codec.BinaryCodec` (compact binary with
optional adaptive zlib compression).  :func:`resolve_codec` maps the
``codec=`` spec strings ("json" | "binary" | "binary+zlib") to
instances.

Message *counts* — the paper's efficiency metric (Fig 4) — are recorded
identically on both by :class:`~repro.net.stats.MessageStats`.
"""

from repro.net.message import Message
from repro.net.codec import JsonCodec, register_codec_type
from repro.net.binary_codec import BinaryCodec, codec_name, resolve_codec
from repro.net.stats import MessageStats
from repro.net.topology import Topology, lan_topology, wan_topology
from repro.net.transport import (
    Completion,
    Endpoint,
    Transport,
    resolve_transport,
)
from repro.net.sim_transport import SimCompletion, SimTransport
from repro.net.aio_transport import AioTcpTransport, ThreadCompletion
from repro.net.reliability import ReliableTransport

__all__ = [
    "Message",
    "JsonCodec",
    "BinaryCodec",
    "codec_name",
    "resolve_codec",
    "register_codec_type",
    "MessageStats",
    "Topology",
    "lan_topology",
    "wan_topology",
    "Completion",
    "Endpoint",
    "Transport",
    "SimTransport",
    "SimCompletion",
    "ThreadCompletion",
    "AioTcpTransport",
    "ReliableTransport",
    "resolve_transport",
]
