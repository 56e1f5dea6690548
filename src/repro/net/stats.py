"""Message accounting — the paper's efficiency metric.

Figure 4 of the paper compares coherence protocols by "the number of
messages sent between the cache managers and the directory manager".
:class:`MessageStats` records every transport send, classified by
message type and (src, dst) pair, and supports snapshot/delta so an
experiment can count messages for one phase of a run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.net.message import BATCH, Message

# Reply types whose payload carries an object image (GRANT doubles as
# the acquire reply in the RW-semantics layer).  Spelled as literals to
# keep net/ independent of core/ message constants.
_IMAGE_REPLIES = frozenset({"INIT_DATA", "PULL_DATA", "GRANT"})


@dataclass
class StatsSnapshot:
    """Immutable view of counters at a point in time."""

    total: int
    by_type: Dict[str, int]
    by_pair: Dict[Tuple[str, str], int]
    bytes_sent: int
    bytes_by_type: Dict[str, int] = field(default_factory=dict)
    images_full: int = 0
    images_delta: int = 0
    cells_sent: int = 0
    cells_skipped: int = 0
    frames_compressed: int = 0
    frames_stored: int = 0
    bytes_saved_compression: int = 0

    def delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated since ``earlier`` (keyed counters keep
        only the keys that moved)."""
        moved: Dict[str, Any] = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(earlier, f.name)
            if isinstance(now, dict):
                moved[f.name] = {
                    k: v - then.get(k, 0) for k, v in now.items()
                    if v - then.get(k, 0)
                }
            else:
                moved[f.name] = now - then
        return StatsSnapshot(**moved)


@dataclass
class MessageStats:
    """Mutable counters attached to a transport.

    Every field is a scalar counter, a keyed ``Counter``, or a peak
    value (``max_message_bytes`` and the ``*_hwm`` fields).
    """

    total: int = 0
    bytes_sent: int = 0
    by_type: Counter = field(default_factory=Counter)
    by_pair: Counter = field(default_factory=Counter)
    dropped: int = 0
    duplicated: int = 0
    # Codec hot-path instrumentation: frames encoded, cumulative wall
    # time spent in the encoder (ns), and the largest frame seen.
    encodes: int = 0
    encode_ns: int = 0
    max_message_bytes: int = 0
    # Round coalescing: BATCH frames sent, and how many sub-messages
    # rode inside them (each coalesced sub-message is one frame the
    # sender did NOT pay for separately).
    batches_sent: int = 0
    messages_coalesced: int = 0
    # Reliable-delivery sublayer (net/reliability.py) over an unreliable
    # inner transport (the sim), per flight (one R_DATA per connection
    # per flush; one message on the sim); all 0 where it forwards: flights
    # retransmitted after an ACK timeout, incoming flights suppressed as
    # duplicates by the receiver's dedup window, sequence numbers
    # acknowledged (one per flight received, duplicates included) and
    # the R_ACK vector frames that carried them.
    # These live on the *reliable* transport's stats, so the logical
    # message counters above stay comparable to a raw-transport run.
    retransmits: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0
    ack_frames_sent: int = 0
    # Wire-bytes accounting (delta synchronization): encoded bytes per
    # message type, image replies split into full snapshots vs deltas,
    # and the cells each image carried vs left off the wire.
    bytes_by_type: Counter = field(default_factory=Counter)
    images_full: int = 0
    images_delta: int = 0
    cells_sent: int = 0
    cells_skipped: int = 0
    # Adaptive per-frame compression (binary codec): frames shipped
    # compressed, frames stored raw while compression was enabled
    # (below the size threshold, or the sample did not shrink), and the
    # cumulative body bytes the compressed frames saved.
    frames_compressed: int = 0
    frames_stored: int = 0
    bytes_saved_compression: int = 0
    # Event-loop transport (net/aio_transport.py): peak depth any
    # bounded per-link send queue ever reached, frames that rode
    # another frame's flush instead of paying for their own drain, and
    # sends refused because the bounded queue was at its high-water
    # mark (the refusal surfaces as a TransportError, which pushes back
    # into ReliableTransport's ordered overflow instead of buffering
    # unboundedly).
    send_queue_hwm: int = 0
    flushes_coalesced: int = 0
    backpressure_stalls: int = 0
    # Durable directory plane (core/durability.py): crash-restart
    # recoveries performed by directory managers on this transport, and
    # the primary-copy cells restored from snapshot + WAL replay.
    recoveries: int = 0
    cells_replayed: int = 0
    # Conflict-aware round scheduler (core/directory.py): peak number
    # of directory rounds ever in flight simultaneously.  Stays 1 on a
    # serial (concurrent_rounds=1) directory and 0 when no round ever
    # started.
    concurrent_rounds_hwm: int = 0

    def record(self, msg: Message, size: Optional[int] = None) -> None:
        """Count one sent message (``size`` in bytes when known)."""
        self.total += 1
        self.by_type[msg.msg_type] += 1
        self.by_pair[(msg.src, msg.dst)] += 1
        if msg.msg_type == BATCH:
            self.batches_sent += 1
            self.messages_coalesced += len(msg.payload.get("messages", ()))
        elif msg.msg_type in _IMAGE_REPLIES:
            self._record_image(msg.payload.get("image"))
        if size is not None:
            self.bytes_sent += size
            self.bytes_by_type[msg.msg_type] += size
            if size > self.max_message_bytes:
                self.max_message_bytes = size

    def _record_image(self, img) -> None:
        """Classify one served image payload (duck-typed: a DeltaImage
        exposes ``complete``/``slice_size``, a plain ObjectImage does
        not and counts as a full snapshot)."""
        if img is None:
            return
        complete = getattr(img, "complete", None)
        carried = len(img)
        self.cells_sent += carried
        if complete is False:
            self.images_delta += 1
            self.cells_skipped += max(
                0, getattr(img, "slice_size", carried) - carried
            )
        else:
            self.images_full += 1

    def record_encode(self, size: int, duration_ns: int) -> None:
        """Account one codec ``encode`` call (size in bytes, time in ns)."""
        self.encodes += 1
        self.encode_ns += duration_ns
        if size > self.max_message_bytes:
            self.max_message_bytes = size

    def record_drop(self, msg: Message) -> None:
        self.dropped += 1

    def record_duplicate(self, msg: Message) -> None:
        self.duplicated += 1

    def record_retransmit(self, msg: Message) -> None:
        self.retransmits += 1

    def record_duplicate_suppressed(self, msg: Message) -> None:
        self.duplicates_suppressed += 1

    def record_ack(self, msg: Message) -> None:
        """Account one sequence number owed an acknowledgement."""
        self.acks_sent += 1

    def record_ack_frames(self, frames: int) -> None:
        """Account the R_ACK vector frames of one flush."""
        self.ack_frames_sent += frames

    def record_compression(self, saved: int) -> None:
        """Account one frame shipped compressed (``saved`` body bytes)."""
        self.frames_compressed += 1
        self.bytes_saved_compression += saved

    def record_stored(self) -> None:
        """Account one frame stored raw while compression was enabled."""
        self.frames_stored += 1

    def record_queue_depth(self, depth: int) -> None:
        """Track the peak depth of a bounded per-link send queue."""
        if depth > self.send_queue_hwm:
            self.send_queue_hwm = depth

    def record_coalesced_flush(self, extra_frames: int) -> None:
        """Account one multi-frame flush (``extra_frames`` = frames that
        shared the first frame's drain instead of paying for their own)."""
        self.flushes_coalesced += extra_frames

    def record_backpressure_stall(self) -> None:
        """Account one send refused on a full bounded send queue."""
        self.backpressure_stalls += 1

    def record_recovery(self, cells: int) -> None:
        """Account one directory crash-restart recovery (``cells`` =
        primary-copy cells restored from snapshot + WAL replay)."""
        self.recoveries += 1
        self.cells_replayed += cells

    def record_concurrent_rounds(self, depth: int) -> None:
        """Track the peak number of simultaneously running rounds."""
        if depth > self.concurrent_rounds_hwm:
            self.concurrent_rounds_hwm = depth

    def count_for_types(self, *msg_types: str) -> int:
        """Total messages across the given message types."""
        return sum(self.by_type[t] for t in msg_types)

    def count_involving(self, address: str) -> int:
        """Messages with ``address`` as either endpoint."""
        return sum(
            n for (src, dst), n in self.by_pair.items() if address in (src, dst)
        )

    def snapshot(self) -> StatsSnapshot:
        """Copy of the counters :class:`StatsSnapshot` declares."""
        taken: Dict[str, Any] = {}
        for f in fields(StatsSnapshot):
            value = getattr(self, f.name)
            taken[f.name] = dict(value) if isinstance(value, Counter) else value
        return StatsSnapshot(**taken)

    def reset(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                value.clear()
            else:
                setattr(self, f.name, 0)

    def summary(self) -> str:
        """Human-readable one-block summary (used by experiment reports)."""
        lines = [f"total messages: {self.total}"]
        for t, n in sorted(self.by_type.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {t:<18} {n}")
        if self.dropped or self.duplicated:
            lines.append(f"  (dropped={self.dropped} duplicated={self.duplicated})")
        if self.batches_sent:
            lines.append(
                f"  (batches={self.batches_sent} "
                f"coalesced={self.messages_coalesced})"
            )
        if self.retransmits or self.duplicates_suppressed or self.acks_sent:
            lines.append(
                f"  (retransmits={self.retransmits} "
                f"dup_suppressed={self.duplicates_suppressed} "
                f"acks={self.acks_sent} in {self.ack_frames_sent} frames)"
            )
        if self.images_full or self.images_delta:
            lines.append(
                f"  (images: full={self.images_full} "
                f"delta={self.images_delta} cells_sent={self.cells_sent} "
                f"cells_skipped={self.cells_skipped})"
            )
        if self.frames_compressed or self.frames_stored:
            lines.append(
                f"  (compression: compressed={self.frames_compressed} "
                f"stored={self.frames_stored} "
                f"saved_bytes={self.bytes_saved_compression})"
            )
        if self.flushes_coalesced or self.backpressure_stalls or self.send_queue_hwm:
            lines.append(
                f"  (send queues: hwm={self.send_queue_hwm} "
                f"coalesced_flushes={self.flushes_coalesced} "
                f"stalls={self.backpressure_stalls})"
            )
        if self.recoveries:
            lines.append(
                f"  (durability: recoveries={self.recoveries} "
                f"cells_replayed={self.cells_replayed})"
            )
        if self.concurrent_rounds_hwm > 1:
            lines.append(
                f"  (scheduler: concurrent_rounds_hwm="
                f"{self.concurrent_rounds_hwm})"
            )
        return "\n".join(lines)
