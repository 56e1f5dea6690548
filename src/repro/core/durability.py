"""Durable directory plane: WAL lineage, snapshots, crash recovery.

:class:`DurabilitySpec` is the user-facing configuration threaded
through :class:`~repro.core.system.FleccSystem`,
:class:`~repro.core.sharding.ShardedFleccSystem` (one lineage per
shard, named by shard id + partitioner fingerprint, plus a placement
manifest when the plane cut its own key ranges — the manifest then
names the lineages) and
``build_airline_system``.  :class:`DurabilityManager` owns one
lineage's on-disk state:

- WAL segments ``wal-<first_lsn>.log`` (format: :mod:`repro.core.wal`),
  rotated at every snapshot;
- snapshots ``snap-<lsn>.bin`` — one CRC-framed
  :func:`~repro.net.binary_codec.encode_value` record holding the full
  primary-copy image plus directory bookkeeping — written atomically
  (tmp file, fsync, ``os.replace``), the newest ``keep_snapshots`` of
  them retained as fallbacks.  The appender only captures and encodes
  the image and swaps in the next segment; the WAL's log thread writes
  the snapshot, closes the old segment, fsyncs the new one's header and
  prunes, in one job queued behind the old segment's fsyncs.  Pruning
  follows the durable rename, so a kill at any step recovers from the
  new generation or the one before it.  Boot and placement-cut
  snapshots run the same job on the caller, after the queued ones, and
  are durable on return; ``sync``, ``close`` and ``simulate_crash``
  wait for every queued job, and a failed job fail-stops the lineage;
- recovery on open: load the newest snapshot that validates, replay
  the WAL records after its cut, truncate a torn segment, fail-stop on
  mid-log corruption.  The records must run without a gap in ``lsn``;
  under ``batch`` and ``off`` the log ends at a gap a power cut left
  after a rotation (:meth:`DurabilityManager._check_log_end`).

Record payloads are dicts (with codec-registered values like
``ObjectImage`` inside); this layer assigns each one a monotone ``lsn``
under the key ``"n"`` and leaves the rest to the directory manager.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.wal import (
    SYNC_ALWAYS,
    SYNC_POLICIES,
    WalCorruptionError,
    WalError,
    WalScan,
    WalWriter,
    run_on_log_thread,
    scan_wal,
)
from repro.net.binary_codec import decode_value, encode_value

SNAP_MAGIC = b"FLSNP01\n"
_LEN = struct.Struct(">I")
_CRC = struct.Struct(">I")

log = logging.getLogger(__name__)

_SEGMENT_RE = re.compile(r"^wal-(\d+)\.log$")
_SNAPSHOT_RE = re.compile(r"^snap-(\d+)\.bin$")


@dataclass(frozen=True)
class DurabilitySpec:
    """Configuration for one directory's durable lineage.

    ``root`` is the directory that holds (or will hold) the lineage
    directory ``<root>/<name>/``.  ``fsync`` picks the WAL policy
    (``always`` | ``batch`` | ``off``); ``snapshot_every`` is the
    number of committed cells between compacted snapshots (0 disables
    snapshotting); ``keep_snapshots`` retains that many snapshot
    generations (and the WAL segments they need) as corruption
    fallbacks.
    """

    root: Union[str, Path]
    fsync: str = "batch"
    batch_interval: int = 16
    snapshot_every: int = 256
    keep_snapshots: int = 2
    name: str = "dm"

    def __post_init__(self) -> None:
        if self.fsync not in SYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {self.fsync!r}; one of {SYNC_POLICIES}"
            )
        if self.keep_snapshots < 1:
            raise WalError(f"keep_snapshots must be >= 1, got {self.keep_snapshots}")

    def for_shard(self, shard_id: int, fingerprint: str) -> "DurabilitySpec":
        """The per-shard lineage of a sharded plane.

        Named by shard id *and* partitioner fingerprint: restarting the
        plane with a different partitioner must not recover a shard
        from a lineage whose key partition was different — that would
        silently re-home cells the new partitioner routes elsewhere.
        """
        return replace(self, name=f"{self.name}-shard{shard_id}-{fingerprint}")

    @property
    def directory(self) -> Path:
        return Path(self.root) / self.name

    @property
    def placement_path(self) -> Path:
        """Where a sharded plane that placed keys itself keeps its split
        points: they decide which lineage a key's history lives in, so
        they are part of the plane's durable state."""
        return Path(self.root) / f"{self.name}-placement.json"


@dataclass
class RecoveredState:
    """What one lineage held on disk at open time."""

    snapshot: Optional[Dict[str, Any]] = None   # newest snapshot that validates
    snapshot_lsn: int = 0                       # its WAL cut (0: none)
    records: List[Dict[str, Any]] = field(default_factory=list)  # lsn > cut
    snapshots_skipped: int = 0                  # newer snapshots that failed to load
    torn_tail_truncated: bool = False

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.records


def _frame_snapshot(payload: bytes) -> bytes:
    return SNAP_MAGIC + _LEN.pack(len(payload)) + payload + _CRC.pack(
        zlib.crc32(payload) & 0xFFFFFFFF
    )


def _load_snapshot(path: Path) -> Dict[str, Any]:
    """Decode one snapshot file; raises WalError on any damage."""
    raw = path.read_bytes()
    header = len(SNAP_MAGIC)
    if len(raw) < header + _LEN.size or raw[:header] != SNAP_MAGIC:
        raise WalError(f"{path}: not a snapshot (bad or truncated magic)")
    (length,) = _LEN.unpack_from(raw, header)
    body_end = header + _LEN.size + length
    if body_end + _CRC.size > len(raw):
        raise WalError(f"{path}: truncated snapshot body")
    payload = raw[header + _LEN.size : body_end]
    (crc,) = _CRC.unpack_from(raw, body_end)
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise WalError(f"{path}: snapshot CRC mismatch")
    value = decode_value(payload)
    if not isinstance(value, dict):
        raise WalError(f"{path}: snapshot payload is not a record")
    return value


def load_placement(spec: DurabilitySpec) -> Optional[Dict[str, Any]]:
    """The placement manifest under ``spec``'s root; None before the
    first build.  A manifest that does not parse raises: coming up on
    freshly cut split points would orphan every lineage on disk.

    Fields: ``splits`` and their ``fingerprint``; ``placed`` — False
    while the split points are the provisional equal-count cut a plane
    re-cuts at its first data request, absent (meaning True) in
    manifests written before that cut existed; ``lineages`` — the
    per-shard lineage names, absent in older manifests, whose lineages
    are named ``for_shard(i, fingerprint)``.
    """
    try:
        raw = spec.placement_path.read_text()
    except FileNotFoundError:
        return None
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = None
    if (
        not isinstance(doc, dict)
        or not {"splits", "fingerprint"} <= doc.keys()
        or not isinstance(doc.get("placed", True), bool)
        or not isinstance(doc.get("lineages", []), list)
        or not all(isinstance(n, str) for n in doc.get("lineages", []))
    ):
        raise WalError(f"{spec.placement_path}: unreadable placement manifest")
    return doc


def store_placement(spec: DurabilitySpec, doc: Dict[str, Any]) -> None:
    """Write the placement manifest atomically (tmp, fsync, replace)."""
    path = spec.placement_path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class DurabilityManager:
    """One directory's WAL + snapshot lineage.

    Construction performs recovery: ``recovered`` holds the newest
    valid snapshot and the decoded WAL tail beyond it, a torn tail is
    truncated on disk, and the writer resumes appending at the next
    ``lsn``.  Mid-log corruption raises — the caller must not come up
    on a forked history.
    """

    def __init__(self, spec: DurabilitySpec) -> None:
        self.spec = spec
        self.dir = spec.directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.counters: Dict[str, int] = {
            "wal_appends": 0, "wal_syncs": 0, "snapshots_written": 0,
            "snapshots_skipped": 0, "records_replayed": 0,
            "segments_pruned": 0,
        }
        self.recovered = self._recover()
        self.counters["records_replayed"] = len(self.recovered.records)
        self.counters["snapshots_skipped"] = self.recovered.snapshots_skipped
        self.next_lsn = 1 + max(
            self.recovered.snapshot_lsn,
            max((r["n"] for r in self.recovered.records), default=0),
        )
        self._snapshot_lsn = self.recovered.snapshot_lsn
        # Commit-order guard: commit records must append in strictly
        # increasing "cseq" order.  With the directory's concurrent
        # round scheduler several rounds commit interleaved, but every
        # commit runs under the directory lock and advances commit_seq
        # before the next can log — this assertion turns any future
        # violation of that linearization into a loud WalError instead
        # of a silently forked replay order.  Seeded from the recovered
        # tail so the invariant spans restarts of one lineage.
        self._last_commit_cseq = max(
            (int(r.get("cseq", 0)) for r in self.recovered.records
             if r.get("k") == "commit"),
            default=0,
        )
        if self.recovered.snapshot is not None:
            self._last_commit_cseq = max(
                self._last_commit_cseq,
                int(self.recovered.snapshot.get("cseq", 0)),
            )
        self._cells_since_snapshot = 0
        self._syncs_base = 0  # syncs of writers already rotated out
        # Snapshot jobs queued on the log thread and not yet finished,
        # and the first job failure, which fail-stops the lineage.
        self._jobs = threading.Condition(threading.Lock())
        self._jobs_pending = 0
        self._error: Optional[BaseException] = None
        self._writer = self._open_tail_writer()

    # -- recovery --------------------------------------------------------
    def _segments(self) -> List[Tuple[int, Path]]:
        out = []
        for p in self.dir.iterdir():
            m = _SEGMENT_RE.match(p.name)
            if m:
                out.append((int(m.group(1)), p))
        return sorted(out)

    def _snapshots(self) -> List[Tuple[int, Path]]:
        out = []
        for p in self.dir.iterdir():
            m = _SNAPSHOT_RE.match(p.name)
            if m:
                out.append((int(m.group(1)), p))
        return sorted(out)

    def _recover(self) -> RecoveredState:
        state = RecoveredState()
        for lsn, path in reversed(self._snapshots()):
            try:
                state.snapshot = _load_snapshot(path)
                state.snapshot_lsn = lsn
                break
            except WalError as exc:
                # A damaged snapshot (e.g. the process died while one
                # was being written): fall back to the previous
                # generation and pay a longer WAL replay instead.
                state.snapshots_skipped += 1
                log.warning("%s: skipping a damaged snapshot, falling back "
                            "to the generation before it: %s", path, exc)
        # The log runs without a gap from the snapshot's cut.  Segment
        # wal-<n>.log opens at lsn n, so one named past the next lsn due
        # follows a hole: the segment before it lost records.
        segments = self._segments()
        scans: List[Tuple[Path, WalScan]] = []
        expected = state.snapshot_lsn + 1
        for first_lsn, path in segments:
            if first_lsn > expected:
                self._check_log_end(path, expected, first=not scans)
                break
            scan = scan_wal(path)
            for payload in scan.records:
                record = decode_value(payload)
                lsn = record.get("n", 0)
                if lsn <= state.snapshot_lsn:
                    continue
                if lsn != expected:
                    raise WalCorruptionError(
                        f"{path}: lsn {lsn} where {expected} was due"
                    )
                state.records.append(record)
                expected += 1
            scans.append((path, scan))
        for path, scan in scans:
            if scan.torn:
                dropped = path.stat().st_size - scan.valid_end
                with open(path, "r+b") as f:
                    f.truncate(scan.valid_end)
                state.torn_tail_truncated = True
                log.warning("%s: truncated a torn WAL tail, %d byte(s) "
                            "after byte %d", path, dropped, scan.valid_end)
        for _, path in segments[len(scans):]:
            path.unlink()
        log.info("%s: recovered snapshot lsn %d, %d WAL record(s) to "
                 "replay, %d damaged snapshot(s) skipped", self.dir,
                 state.snapshot_lsn, len(state.records),
                 state.snapshots_skipped)
        return state

    def _check_log_end(self, path: Path, expected: int, first: bool) -> None:
        """Accept that the log ends before segment ``path``, which opens
        past lsn ``expected``, or raise.  A rotation makes the old
        segment durable only in the snapshot job, after the next segment
        already takes appends, so under ``batch`` and ``off`` a power
        cut can leave the old segment short of records that never
        counted as durable; the segments after it hold records past the
        hole and are discarded.
        Under ``always`` every record was durable before its append
        returned, and a hole with no segment before it means the
        snapshot that covered it is gone: both are lost data."""
        if first or self.spec.fsync == SYNC_ALWAYS:
            raise WalCorruptionError(
                f"{path}: the WAL has a hole before it, lsn {expected} is "
                f"missing; refusing to recover past it"
            )
        log.warning("%s: the WAL ends at lsn %d, a power cut lost the "
                    "records after it; discarding this and every later "
                    "segment", path, expected - 1)

    def _open_tail_writer(self) -> WalWriter:
        segments = self._segments()
        if segments:
            path = segments[-1][1]
        else:
            path = self.dir / f"wal-{self.next_lsn}.log"
        return WalWriter(
            path, sync=self.spec.fsync, batch_interval=self.spec.batch_interval
        )

    # -- appending -------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> bool:
        """Persist one record; returns True when a completed fsync
        already covers it.

        Assigns the next ``lsn`` (key ``"n"``) — callers pass the
        payload only.  Under ``fsync=always`` the append has been
        fsynced when this returns, so replying to the client after
        ``append`` is exactly the no-ack-before-durable rule.  Under
        ``batch`` it never waits for the disk (the fsync runs on the
        WAL's log thread) and therefore never returns True.
        """
        self._raise_if_failed()
        record = dict(record)
        if record.get("k") == "commit" and "cseq" in record:
            cseq = int(record["cseq"])
            if cseq <= self._last_commit_cseq:
                raise WalError(
                    f"commit records out of order: cseq {cseq} after "
                    f"{self._last_commit_cseq} (concurrent rounds must "
                    f"commit in commit_seq order)"
                )
            self._last_commit_cseq = cseq
        record["n"] = self.next_lsn
        self.next_lsn += 1
        self.counters["wal_appends"] += 1
        durable = self._writer.append(encode_value(record))
        self.counters["wal_syncs"] = self._syncs_base + self._writer.syncs
        return durable

    def sync(self) -> None:
        """Everything appended so far, and every snapshot taken so far,
        is durable on return."""
        self._wait_for_jobs()
        self._raise_if_failed()
        self._writer.sync()
        self.counters["wal_syncs"] = self._syncs_base + self._writer.syncs

    def ensure_ack_durable(self) -> None:
        """Make every appended record durable before an ACK leaves.

        Under ``fsync=always`` this is a no-op (``append`` already
        synced); it exists as the explicit guard that closes any
        ack-before-durable window on the reply path.
        """
        if self.spec.fsync == SYNC_ALWAYS and self._writer.unsynced_records:
            self.sync()

    # -- snapshots -------------------------------------------------------
    def note_commit(self, cells: int, state: Callable[[], Dict[str, Any]]) -> None:
        """Account committed cells; snapshot when the interval elapses.

        ``state`` is a thunk so the full primary-copy image is only
        materialized when a snapshot is actually due.  The snapshot does
        not wait for the disk: its job runs on the log thread.
        """
        if self.spec.snapshot_every <= 0:
            return
        self._cells_since_snapshot += cells
        if self._cells_since_snapshot >= self.spec.snapshot_every:
            run_on_log_thread(self._start_snapshot(state()))

    def snapshot(self, state: Dict[str, Any]) -> int:
        """Write a compacted snapshot at the current WAL position;
        durable on return (boot and placement-cut snapshots).

        The image covers everything through ``lsn = next_lsn - 1``; the
        WAL rotates to a fresh segment and generations beyond
        ``keep_snapshots`` (with the segments only they needed) are
        pruned.  Returns the snapshot's cut lsn.

        The caller waits for the disk anyway, so it runs the job itself
        once the queued ones have finished: the same steps in the same
        order, without the hand-offs to and from the log thread and the
        wait behind every other lineage's queued fsyncs there.
        """
        self._wait_for_jobs()
        self._start_snapshot(state)()
        self._raise_if_failed()
        return self._snapshot_lsn

    def _start_snapshot(self, state: Dict[str, Any]) -> Callable[[], None]:
        """The caller's part of a snapshot: encode the image and rotate
        the WAL to a fresh segment, touching no disk beyond the page
        cache.  Returns the job that does every fsync, rename and
        unlink; a steady-state snapshot queues it on the log thread,
        behind the old segment's earlier fsync requests."""
        self._raise_if_failed()
        cut = self.next_lsn - 1
        payload = encode_value(dict(state, snapshot_lsn=cut))
        old = self._writer
        self._writer = old.successor(self.dir / f"wal-{self.next_lsn}.log")
        # The job's close of the old segment issues its last fsync.
        self._syncs_base += old.syncs + 1
        self._snapshot_lsn = cut
        self._cells_since_snapshot = 0
        with self._jobs:
            self._jobs_pending += 1
        return functools.partial(
            self._snapshot_job, cut, payload, old, self._writer
        )

    def _snapshot_job(
        self, cut: int, payload: bytes, old: WalWriter, new: WalWriter
    ) -> None:
        """The log thread's part of a snapshot.  The new generation is
        durable before anything of the one it replaces is pruned, so a
        kill at any step recovers from one or the other."""
        final = self.dir / f"snap-{cut}.bin"
        tmp = self.dir / f"snap-{cut}.bin.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(_frame_snapshot(payload))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, final)
            self.counters["snapshots_written"] += 1
            old.close()         # after the fsyncs queued before the job
            new.sync_header()
            self._prune(cut)
        except OSError as exc:
            log.error("%s: snapshot at lsn %d failed, the lineage is "
                      "fail-stopped: %s", self.dir, cut, exc)
            self._error = exc
        except WalError as exc:  # the old segment's fsync, logged by it
            self._error = exc
        finally:
            try:
                old.close()     # a no-op unless a step before it failed
            except WalError:
                pass
            with self._jobs:
                self._jobs_pending -= 1
                self._jobs.notify_all()

    def _wait_for_jobs(self) -> None:
        with self._jobs:
            while self._jobs_pending:
                self._jobs.wait()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise WalError(
                f"{self.dir}: a snapshot failed ({self._error}); the "
                f"lineage is fail-stopped"
            ) from self._error

    def _prune(self, newest_snapshot_lsn: int) -> None:
        snaps = self._snapshots()
        keep = snaps[-self.spec.keep_snapshots:]
        for lsn, path in snaps[: len(snaps) - len(keep)]:
            path.unlink(missing_ok=True)
        oldest_kept = keep[0][0] if keep else newest_snapshot_lsn
        segments = self._segments()
        # Segment i covers lsns [first_i, first_{i+1}); drop it only when
        # the *next* segment already starts at or before the oldest kept
        # snapshot's cut + 1 (i.e. every record in it predates the cut).
        for (first, path), (nxt, _) in zip(segments, segments[1:]):
            if nxt <= oldest_kept + 1:
                path.unlink(missing_ok=True)
                self.counters["segments_pruned"] += 1

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Clean shutdown: the WAL tail is synced regardless of policy,
        after every queued snapshot job has finished."""
        self._wait_for_jobs()
        self._writer.close()
        self.counters["wal_syncs"] = self._syncs_base + self._writer.syncs
        self._raise_if_failed()

    def simulate_crash(self, torn_tail: bytes = b"") -> None:
        """Kill this lineage's process: unsynced WAL bytes are lost and
        ``torn_tail`` garbage may be left behind (a record the kill
        interrupted).  A fresh :class:`DurabilityManager` over the same
        spec performs recovery.  A snapshot job already queued on the
        log thread counts as completed, as an issued fsync does."""
        self._wait_for_jobs()
        self._writer.simulate_crash(torn_tail=torn_tail)
