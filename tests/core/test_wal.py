"""The write-ahead log's framing and failure semantics.

Two failure stories matter (see :mod:`repro.core.wal`): a *torn tail*
(the kill interrupted an unacknowledged append — truncate silently)
versus *mid-log corruption* (acknowledged data vanished — fail stop).
"""

import errno
import logging
import os
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wal import (
    WAL_MAGIC,
    WalCorruptionError,
    WalError,
    WalWriter,
    frame_record,
    scan_wal,
)
from repro.net.binary_codec import decode_value, encode_value

from tests.core.durable_rig import wait_for_log_thread


def _write(path, payloads, sync="always", **kw):
    w = WalWriter(path, sync=sync, **kw)
    for p in payloads:
        w.append(p)
    w.close()


# -- framing ----------------------------------------------------------------

def test_frame_round_trip(wal_root):
    path = wal_root / "wal-1.log"
    payloads = [b"", b"a", b"hello" * 100, bytes(range(256))]
    _write(path, payloads)
    scan = scan_wal(path)
    assert scan.records == payloads
    assert not scan.torn
    assert scan.valid_end == path.stat().st_size


def test_empty_segment_is_just_the_magic(wal_root):
    path = wal_root / "wal-1.log"
    WalWriter(path).close()
    assert path.read_bytes() == WAL_MAGIC
    scan = scan_wal(path)
    assert scan.records == [] and not scan.torn


def test_bad_magic_rejected(wal_root):
    path = wal_root / "wal-1.log"
    path.write_bytes(b"NOTAWAL!\x00\x00")
    with pytest.raises(WalError):
        scan_wal(path)


# -- torn tails -------------------------------------------------------------

def test_torn_tail_partial_record_is_truncated(wal_root):
    path = wal_root / "wal-1.log"
    _write(path, [b"one", b"two"])
    intact = path.stat().st_size
    with open(path, "ab") as f:  # a record the kill interrupted mid-write
        f.write(struct.pack(">I", 64) + b"only-a-fragment")
    scan = scan_wal(path)
    assert scan.records == [b"one", b"two"]
    assert scan.torn
    assert scan.valid_end == intact


def test_torn_tail_crc_bad_last_record_is_torn_not_corrupt(wal_root):
    path = wal_root / "wal-1.log"
    _write(path, [b"one"])
    intact = path.stat().st_size
    with open(path, "ab") as f:  # complete frame, wrong CRC: still a tail
        f.write(struct.pack(">I", 3) + b"two" + struct.pack(">I", 0xDEADBEEF))
    scan = scan_wal(path)
    assert scan.records == [b"one"]
    assert scan.torn and scan.valid_end == intact


def test_implausible_length_is_treated_as_tail_garbage(wal_root):
    path = wal_root / "wal-1.log"
    _write(path, [b"one"])
    with open(path, "ab") as f:
        f.write(struct.pack(">I", 0xFFFFFFF0))  # ~4 GiB declared length
    scan = scan_wal(path)
    assert scan.records == [b"one"] and scan.torn


# -- mid-log corruption -----------------------------------------------------

def test_mid_log_corruption_fail_stops(wal_root):
    path = wal_root / "wal-1.log"
    _write(path, [b"alpha", b"bravo", b"charlie"])
    # Flip a payload byte of the FIRST record: valid records follow, so
    # acknowledged data is gone — recovery must refuse, not skip.
    offset = len(WAL_MAGIC) + struct.calcsize(">I")
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(WalCorruptionError):
        scan_wal(path)


# -- writer policies --------------------------------------------------------

def test_sync_always_every_append_is_durable(wal_root):
    w = WalWriter(wal_root / "w.log", sync="always")
    for i in range(3):
        assert w.append(b"x%d" % i) is True
        assert w.unsynced_records == 0
        assert w.durable_size == (wal_root / "w.log").stat().st_size
    assert w.syncs >= 3
    w.close()


def test_sync_batch_syncs_once_per_interval(wal_root):
    w = WalWriter(wal_root / "w.log", sync="batch", batch_interval=4)
    durable = [w.append(b"x") for _ in range(8)]
    # The fsync is issued at the batch boundary but runs on the log
    # thread: no append can report a *completed* fsync at return.
    assert durable == [False] * 8
    assert w.syncs == 2            # fsyncs issued
    w.sync()                       # waits for both, then syncs the tail
    assert w.unsynced_records == 0
    assert w.durable_size == (wal_root / "w.log").stat().st_size
    w.close()


def test_batch_fsync_runs_off_the_appending_thread(wal_root, monkeypatch):
    """Under ``batch`` the appender flushes and moves on; the fsync
    happens on the log thread, and ``unsynced_records`` /
    ``durable_size`` move only once it has completed."""
    real_fsync, gate, tids = os.fsync, threading.Event(), []

    def slow_fsync(fd):
        tids.append(threading.get_ident())
        gate.wait(5.0)
        real_fsync(fd)

    w = WalWriter(wal_root / "w.log", sync="batch", batch_interval=4)
    monkeypatch.setattr(os, "fsync", slow_fsync)
    for _ in range(6):
        w.append(b"x")             # returns while the fsync is stuck
    assert w.syncs == 1 and w.unsynced_records == 6
    assert w.durable_size == len(WAL_MAGIC)
    gate.set()
    wait_for_log_thread(w)
    assert tids and threading.get_ident() not in tids
    assert w.unsynced_records == 2     # the four the issued fsync covered
    assert w.durable_size == len(WAL_MAGIC) + 4 * len(frame_record(b"x"))
    w.close()
    assert tids[-1] == threading.get_ident()   # the closing sync is inline


@pytest.mark.parametrize("stop", ["sync", "close", "simulate_crash"])
def test_stopping_a_writer_waits_for_its_outstanding_fsync(
    wal_root, monkeypatch, stop
):
    """No descriptor is closed under a running fsync, and an issued
    fsync counts as completed for what a simulated kill loses."""
    real_fsync, release, entered = os.fsync, threading.Event(), threading.Event()
    closed_under_fsync = []

    def slow_fsync(fd):
        entered.set()
        release.wait(5.0)
        try:
            real_fsync(fd)
        except OSError as exc:     # EBADF: the file was closed under us
            closed_under_fsync.append(exc)

    path = wal_root / "w.log"
    w = WalWriter(path, sync="batch", batch_interval=2)
    monkeypatch.setattr(os, "fsync", slow_fsync)
    for i in range(3):
        w.append(b"r%d" % i)
    assert entered.wait(5.0)
    threading.Timer(0.05, release.set).start()
    getattr(w, stop)()
    assert release.is_set() and not closed_under_fsync
    assert w._inflight == 0
    monkeypatch.undo()
    if stop == "sync":
        w.close()
    kept = 2 if stop == "simulate_crash" else 3
    assert scan_wal(path).records == [b"r%d" % i for i in range(kept)]


def test_writers_on_many_threads_share_the_log_thread(wal_root):
    """More appending threads than cores, each with its own writer, one
    log thread, a 10 us switch interval: a lost update on the hand-off
    state would leave a request outstanding forever (the final sync
    would hang) or publish the wrong durable offset."""
    n_writers, n_records = 6, 300
    writers = [
        WalWriter(wal_root / f"w{i}.log", sync="batch", batch_interval=2)
        for i in range(n_writers)
    ]

    def work(w):
        for j in range(n_records):
            w.append(b"r%d" % j)
        w.sync()

    threads = [threading.Thread(target=work, args=(w,)) for w in writers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w in writers:
        assert w._inflight == 0 and w.unsynced_records == 0
        assert w.syncs == n_records // 2 + 1
        assert w.durable_size == w.path.stat().st_size
        w.simulate_crash()              # nothing left for a kill to take
        assert scan_wal(w.path).records == [
            b"r%d" % j for j in range(n_records)
        ]


def test_fsync_failure_on_the_log_thread_fail_stops_the_writer(
    wal_root, monkeypatch, caplog
):
    """An EIO from the log thread's fsync is kept on the writer, logged
    once, and raised by its next append / sync / close — never
    swallowed while the writer keeps taking records."""
    def eio(fd):
        raise OSError(errno.EIO, "Input/output error")

    w = WalWriter(wal_root / "w.log", sync="batch", batch_interval=2)
    monkeypatch.setattr(os, "fsync", eio)
    with caplog.at_level(logging.ERROR, logger="repro.core.wal"):
        for _ in range(4):             # two fsyncs issued, both doomed
            try:
                w.append(b"x")
            except WalError:
                break
        wait_for_log_thread(w)
    assert [r.name for r in caplog.records] == ["repro.core.wal"]
    assert "fsync failed" in caplog.records[0].getMessage()
    assert w.durable_size == len(WAL_MAGIC)    # nothing became durable
    monkeypatch.undo()                          # the disk "recovers" ...
    for call in (lambda: w.append(b"y"), w.sync, w.close):
        with pytest.raises(WalError, match="fsync failed"):
            call()                              # ... the writer does not
    w.close()                                   # idempotent once closed


def test_sync_off_only_close_makes_durable(wal_root):
    path = wal_root / "w.log"
    w = WalWriter(path, sync="off")
    assert not any(w.append(b"x") for _ in range(5))
    assert w.unsynced_records == 5
    assert w.durable_size == len(WAL_MAGIC)
    w.close()  # clean shutdown syncs the tail
    assert scan_wal(path).records == [b"x"] * 5


def test_simulate_crash_loses_exactly_the_unsynced_tail(wal_root):
    path = wal_root / "w.log"
    w = WalWriter(path, sync="batch", batch_interval=4)
    for i in range(6):  # records 0-3 synced at the batch boundary, 4-5 not
        w.append(b"r%d" % i)
    w.simulate_crash()
    scan = scan_wal(path)
    assert scan.records == [b"r0", b"r1", b"r2", b"r3"]
    assert not scan.torn


def test_simulate_crash_with_torn_tail_garbage(wal_root):
    path = wal_root / "w.log"
    w = WalWriter(path, sync="always")
    w.append(b"kept")
    w.simulate_crash(torn_tail=struct.pack(">I", 64) + b"interrupted")
    scan = scan_wal(path)
    assert scan.records == [b"kept"] and scan.torn


def test_writer_resumes_existing_segment(wal_root):
    path = wal_root / "w.log"
    _write(path, [b"first"])
    w = WalWriter(path, sync="always")
    w.append(b"second")
    w.close()
    assert scan_wal(path).records == [b"first", b"second"]


def test_writer_rejects_unknown_policy_and_bad_interval(wal_root):
    with pytest.raises(WalError):
        WalWriter(wal_root / "w.log", sync="sometimes")
    with pytest.raises(WalError):
        WalWriter(wal_root / "w2.log", sync="batch", batch_interval=0)


def test_closed_writer_refuses_appends(wal_root):
    w = WalWriter(wal_root / "w.log")
    w.close()
    with pytest.raises(WalError):
        w.append(b"late")


# -- hypothesis: framed codec round trip ------------------------------------

_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.text(max_size=12),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_values, min_size=1, max_size=8))
def test_wal_round_trips_codec_records(tmp_path_factory, records):
    """Any codec-encodable record survives the WAL frame and back."""
    path = tmp_path_factory.mktemp("hypo-wal") / "wal-1.log"
    payloads = [encode_value(r) for r in records]
    _write(path, payloads)
    assert [decode_value(p) for p in scan_wal(path).records] == records
