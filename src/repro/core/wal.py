"""Append-only write-ahead log with CRC-framed records.

The durability plane (:mod:`repro.core.durability`) persists every
directory commit as one WAL record *before* the in-memory primary copy
advances.  This module owns the on-disk format and its two failure
stories:

- a **torn tail** — the process died mid-append, leaving a partial or
  CRC-bad record with nothing valid after it.  That record was never
  acknowledged (the append had not returned), so the reader silently
  truncates it and recovery proceeds;
- **mid-log corruption** — a CRC-bad record *followed by* further valid
  records.  That data was acknowledged as durable and is now gone;
  recovering past the hole would silently resurrect a stale prefix, so
  the reader fail-stops with :class:`WalCorruptionError`.

File layout::

    bytes 0-7   magic  b"FLWAL01\\n"
    record      u32 BE payload length | payload | u32 BE crc32(payload)

Payloads are opaque bytes to this module; the durability layer encodes
its records with :func:`repro.net.binary_codec.encode_value`, so cell
images inside WAL records reuse the wire codec's fused
(key, version, value) cell encoding.

Durability model: a *simulated* process kill cannot lose OS page-cache
contents, so :class:`WalWriter` tracks the byte offset covered by the
last fsync and :meth:`WalWriter.simulate_crash` truncates the file back
to it — exactly the bytes a real kill could lose under the configured
fsync policy, no more, no less.

Thread model: the appender is the transport's loop thread, the one
thread every handler of the plane runs on, so what it may block on is
part of the fsync policy's contract.  ``always`` promises "durable
before the append returns" and fsyncs inline — blocking *is* the
contract.  ``batch`` promises a bounded loss window, not blocking:
every ``batch_interval`` records the appender flushes its buffer and
queues an fsync of the flushed offset on one process-wide daemon **log
thread**, which runs it and then advances ``durable_size``.  The log
thread runs callables from one FIFO queue (:func:`run_on_log_thread`):
writers' fsyncs and the durability layer's snapshot jobs, in issue
order.  A snapshot job writes and renames the snapshot, closes the old
segment and fsyncs the new one's header
(:meth:`WalWriter.sync_header`); the appender already holds the new
segment's writer (:meth:`WalWriter.successor`: header written, not
fsynced) and appends to it meanwhile.  ``sync()``, ``close()`` and
``simulate_crash()`` first wait for the writer's outstanding requests,
so no descriptor is closed under a running fsync, ``sync()`` still
means "durable on return", and a simulated kill counts an issued fsync
as completed (kill-point tests stay deterministic and lose exactly the
bytes an inline fsync lost).  An fsync that fails — on either thread — poisons
the writer: the error is logged once and every later ``append`` /
``sync`` / ``close`` raises :class:`WalError`; a log that can no longer
be made durable must stop taking records, not keep acknowledging them.
"""

from __future__ import annotations

import functools
import io
import logging
import os
import queue
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.errors import ReproError

_log = logging.getLogger(__name__)

WAL_MAGIC = b"FLWAL01\n"
_LEN = struct.Struct(">I")
_CRC = struct.Struct(">I")
_HEADER_SIZE = len(WAL_MAGIC)
# Sanity cap on one record's declared length: a corrupted length field
# must not allocate gigabytes before the CRC gets a chance to object.
MAX_RECORD_BYTES = 64 * 1024 * 1024

# The fsync policy vocabulary (validated by DurabilitySpec too).
SYNC_ALWAYS = "always"
SYNC_BATCH = "batch"
SYNC_OFF = "off"
SYNC_POLICIES = (SYNC_ALWAYS, SYNC_BATCH, SYNC_OFF)


class WalError(ReproError):
    """A write-ahead log could not be read or written."""


class WalCorruptionError(WalError):
    """A CRC-bad record sits *before* valid data — acknowledged records
    are gone, and skipping the hole would silently serve a forked
    history.  Recovery must stop and surface the damage."""


def frame_record(payload: bytes) -> bytes:
    """One on-disk record: length prefix, payload, CRC32 trailer."""
    return _LEN.pack(len(payload)) + payload + _CRC.pack(
        zlib.crc32(payload) & 0xFFFFFFFF
    )


@dataclass
class WalScan:
    """The result of reading one WAL segment."""

    records: List[bytes] = field(default_factory=list)
    valid_end: int = _HEADER_SIZE   # byte offset where intact data ends
    torn: bool = False              # a tail was truncated at valid_end


def scan_wal(path: Union[str, Path]) -> WalScan:
    """Read every intact record of one segment.

    Torn tails (partial length/payload/CRC, or a CRC-bad record with no
    valid record after it) are reported via ``torn`` and excluded; a
    CRC-bad record *followed by* a valid one raises
    :class:`WalCorruptionError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_SIZE:
        if raw and not WAL_MAGIC.startswith(raw):
            raise WalError(f"{path}: not a WAL segment (bad magic)")
        # Killed before the header finished: an empty segment, whose
        # recovery truncates it to nothing so the next writer writes
        # the header afresh.
        return WalScan(records=[], valid_end=0, torn=bool(raw))
    if raw[:_HEADER_SIZE] != WAL_MAGIC:
        raise WalError(f"{path}: not a WAL segment (bad magic)")
    scan = WalScan()
    pos = _HEADER_SIZE
    bad_at: Optional[int] = None          # offset of the first CRC-bad record
    records_after_bad = 0
    end = len(raw)
    while pos < end:
        if pos + _LEN.size > end:
            break  # partial length prefix: torn
        (length,) = _LEN.unpack_from(raw, pos)
        if length > MAX_RECORD_BYTES:
            break  # implausible length: treat as tail garbage
        body_end = pos + _LEN.size + length
        if body_end + _CRC.size > end:
            break  # partial payload or CRC: torn
        payload = raw[pos + _LEN.size : body_end]
        (crc,) = _CRC.unpack_from(raw, body_end)
        pos = body_end + _CRC.size
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            if bad_at is None:
                bad_at = pos - _LEN.size - length - _CRC.size
                continue  # keep scanning: is there valid data after?
            continue
        if bad_at is not None:
            records_after_bad += 1
            continue
        scan.records.append(payload)
        scan.valid_end = pos
    if bad_at is not None and records_after_bad:
        raise WalCorruptionError(
            f"{path}: CRC mismatch at byte {bad_at} with "
            f"{records_after_bad} valid record(s) after it — mid-log "
            f"corruption, not a torn tail; refusing to recover past it"
        )
    scan.torn = scan.valid_end < end
    return scan


# The log thread: one per process, started by the first job, shared by
# every writer and lineage (a sharded plane has one of each per shard).
# Its queue carries callables and runs them in issue order, so a
# writer's batch fsyncs and a lineage's snapshot jobs keep one FIFO.
_jobs: "queue.SimpleQueue[Callable[[], None]]" = queue.SimpleQueue()
_log_thread: Optional[threading.Thread] = None
_log_thread_guard = threading.Lock()


def _run_log_thread() -> None:
    while True:
        job = _jobs.get()
        job()
        # Not bound while blocked on the next job: the last writer of a
        # closed log would stay reachable from this thread.
        del job


def run_on_log_thread(job: Callable[[], None]) -> None:
    """Queue ``job`` behind every job queued before it.  A job must not
    raise: it records its own failure where its waiters look."""
    global _log_thread
    # is_alive(): a forked child inherits the module state but not the
    # thread.
    if _log_thread is None or not _log_thread.is_alive():
        with _log_thread_guard:
            if _log_thread is None or not _log_thread.is_alive():
                _log_thread = threading.Thread(
                    target=_run_log_thread, name="flecc-wal-fsync", daemon=True
                )
                _log_thread.start()
    _jobs.put(job)


class WalWriter:
    """Appender for one WAL segment with a pluggable fsync policy.

    - ``always`` — every append flushes and fsyncs before returning (no
      acknowledged record can be lost);
    - ``batch`` — one fsync per ``batch_interval`` appends, run on the
      log thread: the appender only flushes (bounded loss window — at
      most the records after the last *issued* fsync — and no disk wait
      on the caller);
    - ``off`` — no fsyncs while running; only :meth:`close` makes the
      segment durable (clean shutdowns lose nothing, kills lose the
      whole unsynced tail).
    """

    def __init__(
        self,
        path: Union[str, Path],
        sync: str = SYNC_ALWAYS,
        batch_interval: int = 16,
        _sync_header: bool = True,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise WalError(f"unknown fsync policy {sync!r}; one of {SYNC_POLICIES}")
        if batch_interval < 1:
            raise WalError(f"batch_interval must be >= 1, got {batch_interval}")
        self.path = Path(path)
        self.sync_policy = sync
        self.batch_interval = batch_interval
        self.records_appended = 0
        self.syncs = 0                # fsyncs issued, inline or to the log thread
        self._issued_records = 0      # records_appended at the last issued fsync
        self._durable_records = 0     # ... at the last completed one
        self._closed = False
        # Guards the hand-off with the log thread: requests in flight
        # and the first fsync failure.
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._error: Optional[OSError] = None
        existing = self.path.exists() and self.path.stat().st_size >= _HEADER_SIZE
        self._f = open(self.path, "r+b" if existing else "wb")
        self._fd = self._f.fileno()
        if existing:
            self._f.seek(0, io.SEEK_END)
        else:
            self._f.write(WAL_MAGIC)
            self._f.flush()
        self._size = self._f.tell()   # bytes written, flushed or not
        # Everything on disk at open time survived whatever came before;
        # a fresh header counts once sync_header() has run.  A writer
        # opened on its own fsyncs that header here, so ``durable_size``
        # starts at the header for every caller that reads it; only
        # successor() leaves the fsync to the log thread's job.
        self._durable_size = self._size if existing else 0
        if _sync_header:
            self.sync_header()
            self._raise_if_failed()

    @property
    def durable_size(self) -> int:
        """Byte offset a kill right now could not take back."""
        return self._durable_size

    @property
    def unsynced_records(self) -> int:
        """Appended records no completed fsync covers yet."""
        return self.records_appended - self._durable_records

    def successor(self, path: Union[str, Path]) -> "WalWriter":
        """The writer of the next segment, under this one's policy.

        Touches no disk beyond the page cache: this segment's buffer is
        flushed to the file (a killed process then loses none of it)
        and the successor's header is written, neither fsynced.  The
        caller hands the rest of the rotation to the log thread:
        :meth:`close` this writer there, then :meth:`sync_header` the
        successor, which meanwhile takes appends.
        """
        self._f.flush()
        return WalWriter(path, self.sync_policy, self.batch_interval,
                         _sync_header=False)

    def sync_header(self) -> None:
        """Make a fresh segment's header durable; a no-op once any fsync
        has covered it.  Counts in no ``syncs``.  Safe on the log thread
        while the appender runs: the fsync covers at least the header,
        and ``durable_size`` only moves forward."""
        if self._durable_size >= _HEADER_SIZE:
            return
        error = self._fsync()
        with self._cond:
            if error is None:
                self._durable_size = max(self._durable_size, _HEADER_SIZE)
            elif self._error is None:
                self._error = error

    def append(self, payload: bytes) -> bool:
        """Append one record; returns True when a completed fsync
        already covers it — under ``always``, never under ``batch``
        (its fsync has at best been issued) or ``off``."""
        if self._closed:
            raise WalError(f"{self.path}: writer is closed")
        self._raise_if_failed()
        frame = frame_record(payload)
        self._f.write(frame)
        self._size += len(frame)
        self.records_appended += 1
        if self.sync_policy == SYNC_ALWAYS:
            self.sync()
            return True
        if (
            self.sync_policy == SYNC_BATCH
            and self.records_appended - self._issued_records
            >= self.batch_interval
        ):
            self._issue_fsync(on_log_thread=True)
        return False

    def sync(self) -> None:
        """Flush and fsync on the caller: everything appended so far is
        durable on return."""
        if self._closed:
            return
        self._drain()
        self._raise_if_failed()
        self._issue_fsync(on_log_thread=False)
        self._raise_if_failed()

    def close(self) -> None:
        """Clean shutdown: sync the tail, then close the file."""
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._closed = True
            self._f.close()

    def simulate_crash(self, torn_tail: bytes = b"") -> None:
        """Die like a killed process under the configured fsync policy.

        Truncates the segment back to the last synced offset — the bytes
        an OS crash could lose; an fsync already handed to the log
        thread counts as completed — and optionally leaves
        ``torn_tail`` garbage behind it (a record the kill interrupted
        mid-write).
        """
        if self._closed:
            raise WalError(f"{self.path}: writer is closed")
        self._f.flush()  # model the page cache: bytes reached the file
        self._drain()
        self._closed = True
        self._f.close()
        with open(self.path, "r+b") as f:
            f.truncate(self._durable_size)
            if torn_tail:
                f.seek(0, io.SEEK_END)
                f.write(torn_tail)

    # -- the fsync hand-off ----------------------------------------------
    def _issue_fsync(self, on_log_thread: bool) -> None:
        """Flush, then fsync what was flushed — here or on the log thread."""
        self._f.flush()
        self.syncs += 1
        self._issued_records = self.records_appended
        with self._cond:
            self._inflight += 1
        if on_log_thread:
            run_on_log_thread(functools.partial(
                self._run_fsync, self._size, self.records_appended
            ))
        else:
            self._run_fsync(self._size, self.records_appended)

    def _run_fsync(self, offset: int, records: int) -> None:
        """One issued fsync: make the first ``offset`` bytes (``records``
        records) durable and publish that, or record why not."""
        error = self._error
        if error is None:
            error = self._fsync()
        with self._cond:
            self._inflight -= 1
            if error is None:
                self._durable_size = offset
                self._durable_records = records
            else:
                self._error = error
            self._cond.notify_all()

    def _fsync(self) -> Optional[OSError]:
        """fsync the segment; the error (logged here, once) if it fails."""
        try:
            os.fsync(self._fd)
        except OSError as exc:
            _log.error(
                "%s: fsync failed, the log can no longer be made "
                "durable: %s", self.path, exc,
            )
            return exc
        return None

    def _drain(self) -> None:
        """Wait until the log thread holds no request of this writer."""
        with self._cond:
            while self._inflight:
                self._cond.wait()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise WalError(
                f"{self.path}: fsync failed ({self._error}); the segment "
                f"is fail-stopped"
            ) from self._error
