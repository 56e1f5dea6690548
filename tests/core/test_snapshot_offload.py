"""A steady-state snapshot never stalls the appender.

The appender (the transport's loop thread) captures and encodes the
durable state and swaps in the next WAL segment; the WAL's log thread
writes the snapshot file, fsyncs and renames it, closes the old
segment, fsyncs the new segment's header and prunes.  These tests hold
that job at each step, break it, queue two at once, and check that
recovery, the lineage's fail-stop and its counters are what the inline
snapshot gave.
"""

import errno
import logging
import os
import shutil
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import durability as durability_module
from repro.core.durability import DurabilityManager, DurabilitySpec
from repro.core.image import ObjectImage
from repro.core.property_set import PropertySet
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import run_all_scripts
from repro.core.wal import (
    WAL_MAGIC,
    WalCorruptionError,
    WalError,
    WalWriter,
    frame_record,
)
from repro.net.binary_codec import encode_value
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)

from tests.core.durable_rig import CELLS, DurableRig

HOLD_TIMEOUT = 10.0


def _commit(cseq, key="a"):
    return {"k": "commit", "cseq": cseq, "img": ObjectImage({key: cseq})}


def _state():
    return {"cseq": 0, "image": ObjectImage({"a": 0})}


def _recovered(spec):
    """What a fresh open of ``spec``'s lineage recovers."""
    durability = DurabilityManager(spec)
    durability.close()
    return durability.recovered


class Hold:
    """Stops the log thread the first time it passes once armed, until
    the test releases it (or the timeout ends a test that failed to)."""

    def __init__(self):
        self.armed = False
        self.reached = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        if not self.armed:
            return
        self.armed = False
        self.reached.set()
        self.release.wait(HOLD_TIMEOUT)


def _hold_at(step, hold, monkeypatch):
    """Install ``hold`` at one step of the snapshot job."""
    if step == "before-tmp-write":
        frame = durability_module._frame_snapshot

        def held_frame(payload):
            hold()
            return frame(payload)

        monkeypatch.setattr(durability_module, "_frame_snapshot", held_frame)
    elif step == "after-replace":
        replace = os.replace

        def held_replace(src, dst):
            replace(src, dst)
            hold()

        monkeypatch.setattr(os, "replace", held_replace)
    elif step == "after-old-close":
        sync_header = WalWriter.sync_header

        def held_sync_header(self):
            hold()
            sync_header(self)

        monkeypatch.setattr(WalWriter, "sync_header", held_sync_header)
    else:
        assert step == "before-prune"
        prune = DurabilityManager._prune

        def held_prune(self, cut):
            hold()
            prune(self, cut)

        monkeypatch.setattr(DurabilityManager, "_prune", held_prune)


def _power_cut_copy(lineage: Path, writers, dest: Path) -> None:
    """The lineage as a power cut would leave it now: every file as the
    page cache holds it, each segment cut back to what its writer has
    made durable."""
    durable = {w.path.name: w.durable_size for w in writers}
    shutil.copytree(lineage, dest)
    for name, size in durable.items():
        if (dest / name).exists():
            os.truncate(dest / name, size)


def test_steady_state_snapshots_touch_no_disk_on_the_calling_thread(
    wal_root, monkeypatch
):
    rig = DurableRig(wal_root, fsync="batch", batch_interval=4,
                     snapshot_every=2, keep_snapshots=1)
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fsync", "replace", "unlink"):
        monkeypatch.setattr(os, name, recording(name, getattr(os, name)))
    cm = rig.cm("v")
    rig.register("v", CELLS[:4])
    rig.settle()
    for i in range(40):
        cm.push({CELLS[i % 4]: i + 1})
        rig.settle()
    durability = rig.dm.durability
    durability._wait_for_jobs()
    assert durability.counters["snapshots_written"] == 1 + 40 // 2
    assert {"fsync", "replace", "unlink"} <= {name for name, _ in calls}
    caller = threading.get_ident()
    assert [c for c in calls if c[1] == caller] == []
    live = rig.state()
    durability.sync()
    assert rig.crash_restart() == live
    rig.close()


@pytest.mark.parametrize("appends_while_held", [0, 2])
@pytest.mark.parametrize(
    "step",
    ["before-tmp-write", "after-replace", "after-old-close", "before-prune"],
)
def test_a_kill_at_any_step_of_the_job_recovers_the_model(
    wal_root, tmp_path, monkeypatch, step, appends_while_held
):
    hold = Hold()
    _hold_at(step, hold, monkeypatch)
    retiring = []
    successor = WalWriter.successor

    def recording_successor(self, path):
        retiring.append(self)
        return successor(self, path)

    monkeypatch.setattr(WalWriter, "successor", recording_successor)
    spec = dict(fsync="always", snapshot_every=4, keep_snapshots=1)
    rig = DurableRig(wal_root, **spec)
    model = dict(rig.store.cells)
    cm = rig.cm("v")
    rig.register("v", CELLS)
    rig.settle()

    def push(value):
        key = CELLS[value % len(CELLS)]
        cm.push({key: value})
        rig.settle()
        model[key] = value

    for value in range(1, 7):       # one steady-state snapshot lands
        push(value)
    rig.dm.durability._wait_for_jobs()
    hold.armed = True
    push(7)
    push(8)                         # the second one is held
    assert hold.reached.wait(HOLD_TIMEOUT)
    for value in range(9, 9 + appends_while_held):
        push(value)                 # fsynced inline, job still held
    writers = [retiring[-1], rig.dm.durability._writer]
    _power_cut_copy(rig.spec.directory, writers, tmp_path / "cut" / "dm")
    hold.release.set()
    assert rig.crash_restart()["cells"] == dict(sorted(model.items()))
    cut = DurableRig(tmp_path / "cut", cells={}, **spec)
    assert cut.state()["cells"] == dict(sorted(model.items()))
    cut.close()
    rig.close()


def test_a_failed_snapshot_job_fail_stops_the_lineage(
    wal_root, monkeypatch, caplog
):
    durability = DurabilityManager(
        DurabilitySpec(wal_root, fsync="batch", snapshot_every=2)
    )
    durability.snapshot(_state())

    def broken_replace(src, dst):
        raise OSError(errno.EIO, "injected rename failure")

    monkeypatch.setattr(os, "replace", broken_replace)
    durability.append(_commit(1))
    with caplog.at_level(logging.ERROR):
        durability.note_commit(2, _state)   # queues the job
        durability._wait_for_jobs()
        with pytest.raises(WalError, match="fail-stopped"):
            durability.append(_commit(2))
        with pytest.raises(WalError, match="fail-stopped"):
            durability.sync()
        with pytest.raises(WalError, match="fail-stopped"):
            durability.close()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert "injected rename failure" in errors[0].getMessage()
    monkeypatch.undo()
    # The boot generation and the segment after it were kept.
    recovered = _recovered(durability.spec)
    assert recovered.snapshot_lsn == 0
    assert [r["n"] for r in recovered.records] == [1]


def test_two_snapshots_queued_back_to_back_both_land(wal_root, monkeypatch):
    hold = Hold()
    _hold_at("before-tmp-write", hold, monkeypatch)
    spec = DurabilitySpec(wal_root, fsync="batch", batch_interval=2,
                          snapshot_every=1, keep_snapshots=2)
    durability = DurabilityManager(spec)
    durability.snapshot(_state())
    hold.armed = True
    durability.append(_commit(1))
    durability.note_commit(1, _state)
    assert hold.reached.wait(HOLD_TIMEOUT)
    durability.append(_commit(2))
    durability.note_commit(1, _state)   # queued behind the held job
    durability.append(_commit(3))
    hold.release.set()
    durability.sync()
    assert durability.counters["snapshots_written"] == 3
    assert sorted(p.name for p in spec.directory.iterdir()
                  if p.name.startswith("snap-")) == ["snap-1.bin", "snap-2.bin"]
    durability.close()
    recovered = _recovered(spec)
    assert recovered.snapshot_lsn == 2
    assert [r["n"] for r in recovered.records] == [3]


@pytest.mark.parametrize("header", [b"", WAL_MAGIC[:3]])
def test_a_segment_killed_inside_its_header_recovers_twice(wal_root, header):
    """The appender writes a new segment's header without an fsync, so a
    power cut can leave it empty or short: recovery truncates it to
    nothing and the next writer starts it afresh."""
    spec = DurabilitySpec(wal_root, fsync="always", snapshot_every=0)
    durability = DurabilityManager(spec)
    durability.append(_commit(1))
    assert durability.snapshot(_state()) == 1
    durability.close()
    (spec.directory / "wal-2.log").write_bytes(header)
    durability = DurabilityManager(spec)
    durability.append(_commit(2))
    durability.close()
    recovered = _recovered(spec)
    assert recovered.snapshot_lsn == 1
    assert [r["n"] for r in recovered.records] == [2]


def _record_size(lsn, cseq):
    return len(frame_record(encode_value(dict(_commit(cseq), n=lsn))))


@pytest.mark.parametrize("mid_record", [False, True])
@pytest.mark.parametrize("step", ["before-tmp-write", "after-replace"])
def test_a_power_cut_under_batch_before_the_old_segment_is_durable(
    wal_root, tmp_path, monkeypatch, step, mid_record
):
    """Under ``batch`` the old segment is fsynced by the snapshot job,
    while the next segment already takes appends that writeback may
    persist.  A power cut with the job held leaves the old segment cut
    short — mid-record or on a record boundary — beside a successor
    that holds records: recovery ends the log at the cut when the new
    snapshot is not durable (no gap in lsn is replayed), and replays
    the successor when it is."""
    hold = Hold()
    _hold_at(step, hold, monkeypatch)
    spec = DurabilitySpec(wal_root, fsync="batch", batch_interval=100,
                          snapshot_every=4, keep_snapshots=1)
    durability = DurabilityManager(spec)
    durability.snapshot(_state())               # cut 0, segment wal-1
    hold.armed = True
    for cseq in range(1, 5):
        durability.append(_commit(cseq))
        durability.note_commit(1, _state)       # the fourth queues cut 4
    assert hold.reached.wait(HOLD_TIMEOUT)
    for cseq in (5, 6):
        durability.append(_commit(cseq))
    durability._writer._f.flush()               # the page cache holds both
    cut_dir = tmp_path / "cut" / spec.name
    shutil.copytree(spec.directory, cut_dir)
    hold.release.set()
    durability.close()
    # Two whole records of wal-1 reached the disk, and part of a third.
    size = len(WAL_MAGIC) + _record_size(1, 1) + _record_size(2, 2)
    os.truncate(cut_dir / "wal-1.log", size + (5 if mid_record else 0))
    assert sorted(p.name for p in cut_dir.iterdir()) == (
        ["snap-0.bin", "snap-4.bin.tmp", "wal-1.log", "wal-5.log"]
        if step == "before-tmp-write"
        else ["snap-0.bin", "snap-4.bin", "wal-1.log", "wal-5.log"]
    )
    cut_spec = replace(spec, root=tmp_path / "cut")
    reopened = DurabilityManager(cut_spec)
    if step == "before-tmp-write":
        assert reopened.recovered.snapshot_lsn == 0
        assert [r["n"] for r in reopened.recovered.records] == [1, 2]
        assert not (cut_dir / "wal-5.log").exists()
    else:
        assert reopened.recovered.snapshot_lsn == 4
        assert [r["n"] for r in reopened.recovered.records] == [5, 6]
    last = reopened.next_lsn - 1
    reopened.append(_commit(100))
    reopened.close()
    recovered = _recovered(cut_spec)
    assert [r["n"] for r in recovered.records][-1] == last + 1


def _lineage_with_a_hole(spec):
    """Boot snapshot, commits 1-3 in wal-1, snapshot at 3, commits 4-5
    in wal-4; then the snapshot at 3 is lost and wal-1 keeps only
    commit 1, so lsn 2 and 3 are missing before wal-4."""
    durability = DurabilityManager(spec)
    durability.snapshot(_state())
    for cseq in (1, 2, 3):
        durability.append(_commit(cseq))
    durability.snapshot(_state())
    for cseq in (4, 5):
        durability.append(_commit(cseq))
    durability.close()
    (spec.directory / "snap-3.bin").unlink()
    os.truncate(spec.directory / "wal-1.log",
                len(WAL_MAGIC) + _record_size(1, 1))


def test_a_hole_in_the_lsn_sequence_is_refused_under_always(wal_root):
    spec = DurabilitySpec(wal_root, fsync="always", snapshot_every=0)
    _lineage_with_a_hole(spec)
    with pytest.raises(WalCorruptionError, match="lsn 2 is missing"):
        DurabilityManager(spec)
    assert (spec.directory / "wal-4.log").exists()  # nothing was discarded


def test_a_hole_in_the_lsn_sequence_ends_the_log_under_batch(wal_root):
    spec = DurabilitySpec(wal_root, fsync="batch", snapshot_every=0)
    _lineage_with_a_hole(spec)
    durability = DurabilityManager(spec)
    assert [r["n"] for r in durability.recovered.records] == [1]
    assert sorted(p.name for p in spec.directory.iterdir()) == [
        "snap-0.bin", "wal-1.log",
    ]
    durability.append(_commit(6))
    durability.close()
    assert [r["n"] for r in _recovered(spec).records] == [1, 2]


def test_a_hole_before_the_first_segment_is_refused(wal_root):
    """With every snapshot that covered the first segment's past gone,
    the log cannot start: no policy may recover past that."""
    spec = DurabilitySpec(wal_root, fsync="batch", snapshot_every=0)
    _lineage_with_a_hole(spec)
    (spec.directory / "snap-0.bin").unlink()
    (spec.directory / "wal-1.log").unlink()
    with pytest.raises(WalCorruptionError, match="lsn 1 is missing"):
        DurabilityManager(spec)


def test_lineages_on_many_threads_snapshot_through_one_log_thread(wal_root):
    """Eight appenders, each with its own lineage, snapshot every
    commit while the interpreter switches threads as often as it can:
    every lineage recovers every commit."""
    commits, threads, errors = 60, 8, []
    specs = [
        DurabilitySpec(wal_root, name=f"t{i}", fsync="batch",
                       batch_interval=3, snapshot_every=1, keep_snapshots=1)
        for i in range(threads)
    ]

    def appender(spec):
        try:
            durability = DurabilityManager(spec)
            durability.snapshot(_state())
            for cseq in range(1, commits + 1):
                durability.append(_commit(cseq))
                durability.note_commit(1, lambda c=cseq: {"cseq": c})
            durability.close()
        except Exception as exc:    # reported on the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=appender, args=(spec,))
                   for spec in specs]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(HOLD_TIMEOUT * 3)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    for spec in specs:
        recovered = _recovered(spec)
        assert recovered.snapshot["cseq"] == commits
        assert recovered.snapshot_lsn == commits
        assert recovered.records == []


# Counters after sync() of the fixed script below, as the inline
# snapshot path left them: snapshots_written, wal_syncs, segments_pruned.
INLINE_COUNTERS = {
    "always": (23, 124, 21),
    "batch": (23, 46, 21),
    "off": (23, 24, 21),
}


@pytest.mark.parametrize("fsync", sorted(INLINE_COUNTERS))
def test_counters_after_sync_equal_the_inline_snapshot_path(wal_root, fsync):
    durability = DurabilityManager(DurabilitySpec(
        wal_root, fsync=fsync, batch_interval=4, snapshot_every=8,
        keep_snapshots=2,
    ))
    durability.snapshot(_state())
    for cseq in range(1, 101):
        durability.append(_commit(cseq))
        durability.note_commit(1 + cseq % 3, _state)
    durability.sync()
    counters = durability.counters
    assert (
        counters["snapshots_written"], counters["wal_syncs"],
        counters["segments_pruned"],
    ) == INLINE_COUNTERS[fsync]
    durability.close()


def test_each_shard_snapshots_exactly_the_cells_it_owns(wal_root):
    """A shard's snapshot image is the whole-component extract filtered
    by ownership — across the placement cut and a commit that brings a
    new key — and a steady-state snapshot extracts only owned keys."""
    keys = [f"k{i:02d}" for i in range(16)]
    store = Store({k: 0 for k in keys})
    system = ShardedFleccSystem(
        SimTransport(SimKernel(), default_latency=1.0), store,
        extract_from_object, merge_into_object, n_shards=4,
        extract_cells=extract_cells,
        durability=DurabilitySpec(wal_root, fsync="off", snapshot_every=2),
    )
    plane = system.plane

    def images_match():
        for dm in plane.shards:
            whole = dm.extract_from_object(dm.component, PropertySet())
            assert dm._durable_state()["image"].cells == whole.cells

    images_match()
    # The first view straddles the k04 split, and its slice has a key
    # the store does not hold yet.
    slices = [keys[2:6] + ["k05a"], keys[8:12]]
    agents = [Agent() for _ in slices]
    cms = [
        system.add_view(f"v{i}", agent, props_for(cells),
                        extract_from_view, merge_into_view)
        for i, (agent, cells) in enumerate(zip(agents, slices))
    ]

    def pushes(cm, agent, cells, first):
        for value in range(first, first + 8):
            yield cm.start_use_image()
            agent.local[cells[value % len(cells)]] = value
            cm.end_use_image()
            yield cm.push_image()

    def script(cm, agent, cells):
        yield cm.start()
        yield cm.init_image()
        yield from pushes(cm, agent, cells, 1)

    run_all_scripts(system.transport, [
        script(cm, agent, cells)
        for cm, agent, cells in zip(cms, agents, slices)
    ])
    assert store.cells["k05a"] > 0
    images_match()
    def snapshots():
        for dm in plane.shards:
            dm.durability.sync()    # the jobs count them as they land
        return sum(dm.durability.counters["snapshots_written"]
                   for dm in plane.shards)

    before = snapshots()
    full_extracts = []
    for dm in plane.shards:
        whole = dm.extract_from_object

        def counting(component, props, _whole=whole):
            if props.is_empty():
                full_extracts.append(props)
            return _whole(component, props)

        dm.extract_from_object = counting
    run_all_scripts(system.transport, [
        pushes(cm, agent, cells, 9)
        for cm, agent, cells in zip(cms, agents, slices)
    ])
    assert snapshots() > before
    assert full_extracts == []
    system.close()
