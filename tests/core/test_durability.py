"""The durable directory plane: snapshots, recovery, reclaim, counters.

Covers the :class:`~repro.core.durability.DurabilityManager` lineage
mechanics (rotation, pruning, damaged-snapshot fallback) and the
:class:`~repro.core.directory.DirectoryManager` integration: a crashed
directory must come back with its primary copy, commit cursor and
per-view delta cursors intact, reclaim authoritative state from
recovered-exclusive views, and never acknowledge before durability
under ``fsync=always``.
"""

import errno
import logging
import os
import threading

import pytest

from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilityManager, DurabilitySpec
from repro.core.wal import WalError
from repro.core.image import ObjectImage
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem, run_all_scripts
from repro.net import resolve_transport
from repro.net.message import Message
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

from tests.core.durable_rig import wait_for_log_thread, wal_records


def _spec(wal_root, **kw):
    kw.setdefault("fsync", "always")
    kw.setdefault("snapshot_every", 0)
    return DurabilitySpec(root=wal_root, **kw)


def _dm(transport, store, spec):
    return DirectoryManager(
        transport, "dir", store, extract_from_object, merge_into_object,
        durability=spec,
    )


def _push_commits(kernel, transport, n, view_id="v", cells=8):
    """Register a weak view and drive ``n`` PUSH commits at the directory."""
    replies = []
    ep = transport.bind("cm", replies.append)
    ep.send(Message(M.REGISTER, "cm", "dir",
                    {"view_id": view_id,
                     "properties": props_for(f"c{i}" for i in range(cells)),
                     "mode": "weak"}))
    kernel.run()
    for i in range(n):
        ep.send(Message(M.PUSH, "cm", "dir",
                        {"view_id": view_id,
                         "image": ObjectImage({f"c{i % cells}": i}),
                         "state_seq": i + 1}))
        kernel.run()
    ep.close()


# -- lineage mechanics ------------------------------------------------------

def test_snapshot_rotation_and_pruning(wal_root):
    spec = _spec(wal_root, name="rot", keep_snapshots=2)
    d = DurabilityManager(spec)
    for i in range(3):
        d.append({"k": "commit", "i": i})
    d.snapshot({"s": 1})
    for i in range(2):
        d.append({"k": "commit", "i": i})
    d.snapshot({"s": 2})
    d.append({"k": "commit", "i": 99})
    d.snapshot({"s": 3})
    d.close()
    snaps = sorted(p.name for p in spec.directory.glob("snap-*.bin"))
    assert len(snaps) == 2  # keep_snapshots generations survive
    assert d.counters["segments_pruned"] >= 1
    d2 = DurabilityManager(spec)
    assert d2.recovered.snapshot["s"] == 3  # newest generation wins
    assert d2.recovered.records == []       # everything compacted
    d2.close()


def test_damaged_snapshot_falls_back_a_generation(wal_root):
    spec = _spec(wal_root, name="fall", keep_snapshots=2)
    d = DurabilityManager(spec)
    d.append({"k": "commit", "i": 0})
    d.snapshot({"s": 1})
    d.append({"k": "commit", "i": 1})
    d.snapshot({"s": 2})
    d.append({"k": "commit", "i": 2})   # tail beyond the newest cut
    d.close()
    newest = max(spec.directory.glob("snap-*.bin"),
                 key=lambda p: int(p.stem.split("-")[1]))
    with open(newest, "r+b") as f:      # half-written snapshot
        f.truncate(newest.stat().st_size // 2)
    d2 = DurabilityManager(spec)
    assert d2.recovered.snapshots_skipped == 1
    assert d2.recovered.snapshot["s"] == 1        # previous generation
    # The fallback pays a longer replay: the record after cut 1 AND the
    # tail record both come back from the surviving segments.
    assert [r["i"] for r in d2.recovered.records] == [1, 2]
    d2.close()


def _recovery_log(caplog):
    return [(r.levelname, r.getMessage()) for r in caplog.records
            if r.name == "repro.core.durability"]


def test_recovery_says_it_fell_back_past_a_damaged_snapshot(wal_root, caplog):
    spec = _spec(wal_root, name="fall-log", keep_snapshots=2)
    d = DurabilityManager(spec)
    d.append({"k": "commit", "i": 0})
    cut = d.snapshot({"s": 1})
    d.append({"k": "commit", "i": 1})
    d.snapshot({"s": 2})
    d.close()
    newest = max(spec.directory.glob("snap-*.bin"),
                 key=lambda p: int(p.stem.split("-")[1]))
    newest.write_bytes(newest.read_bytes()[:10])
    with caplog.at_level(logging.INFO, logger="repro.core.durability"):
        DurabilityManager(spec).close()
    [(level, warning), (info_level, summary)] = _recovery_log(caplog)
    assert level == "WARNING"
    assert newest.name in warning and "damaged snapshot" in warning
    assert info_level == "INFO"
    assert f"snapshot lsn {cut}, 1 WAL record(s)" in summary
    assert "1 damaged snapshot(s) skipped" in summary


def test_recovery_says_it_truncated_a_torn_tail(wal_root, caplog):
    spec = _spec(wal_root, name="torn-log")
    d = DurabilityManager(spec)
    for i in range(3):
        d.append({"k": "commit", "i": i})
    d.simulate_crash(torn_tail=b"\x00\x00\x00\x40interrupted")
    with caplog.at_level(logging.INFO, logger="repro.core.durability"):
        d2 = DurabilityManager(spec)
    assert d2.recovered.torn_tail_truncated
    d2.close()
    [(level, warning), (info_level, summary)] = _recovery_log(caplog)
    assert level == "WARNING"
    assert "torn WAL tail" in warning and "15 byte(s)" in warning
    assert info_level == "INFO"
    assert "snapshot lsn 0, 3 WAL record(s)" in summary
    assert "0 damaged snapshot(s) skipped" in summary


def test_lsns_keep_ascending_across_restart(wal_root):
    spec = _spec(wal_root, name="lsn")
    d = DurabilityManager(spec)
    for i in range(4):
        d.append({"i": i})
    d.simulate_crash()
    d2 = DurabilityManager(spec)
    assert d2.next_lsn == 5
    assert [r["n"] for r in d2.recovered.records] == [1, 2, 3, 4]
    d2.close()


# -- directory recovery -----------------------------------------------------

def test_directory_recovers_cells_commit_seq_and_views(wal_root):
    spec = _spec(wal_root, name="dm")
    kernel = SimKernel()
    transport = SimTransport(kernel)
    store = Store()
    dm = _dm(transport, store, spec)
    _push_commits(kernel, transport, 12)
    cells = dict(store.cells)
    commit_seq = dm.commit_seq
    rec = dm.views["v"]
    cursors = (rec.seen.to_jsonable(), rec.last_state_seq)
    dm.crash()

    store2 = Store()
    dm2 = _dm(SimTransport(SimKernel()), store2, spec)
    assert dict(store2.cells) == cells
    assert dm2.commit_seq == commit_seq
    # Per-view delta-serve cursors survive: a recovering CM is served
    # deltas, not a full re-sync.
    rec2 = dm2.views["v"]
    assert (rec2.seen.to_jsonable(), rec2.last_state_seq) == cursors
    assert dm2.counters["wal_recoveries"] == 1
    assert dm2.counters["cells_replayed"] > 0
    dm2.close()


def test_boot_snapshot_preserves_pre_commit_state(wal_root):
    """State that predates the first commit is in no WAL record; the
    first boot of an empty lineage must snapshot it or lose it."""
    spec = _spec(wal_root, name="boot")
    store = Store({"a": 1, "b": 2})
    dm = _dm(SimTransport(SimKernel()), store, spec)
    assert list(spec.directory.glob("snap-*.bin"))
    dm.crash()
    store2 = Store()  # the process kill took the volatile copy
    dm2 = _dm(SimTransport(SimKernel()), store2, spec)
    assert dict(store2.cells) == {"a": 1, "b": 2}
    dm2.close()


def test_commits_durable_vs_volatile_split(wal_root):
    """fsync=always: every acknowledged commit was durable first (no
    ack-before-durable), so the volatile counter stays zero — and
    vice versa under fsync=off.  Under batch the fsync is only *issued*
    when the append returns, so no commit counts as durable at ack time
    (not even the one that happened to land on a batch boundary)."""
    for policy, durable_cells, volatile_cells in (
        ("always", 8, 0), ("off", 0, 8), ("batch", 0, 8),
    ):
        kernel = SimKernel()
        transport = SimTransport(kernel)
        dm = _dm(transport, Store(),
                 _spec(wal_root, name=f"split-{policy}", fsync=policy,
                       batch_interval=2))   # batch: fsyncs *are* issued
        _push_commits(kernel, transport, 8)
        # 9 appends (REGISTER + 8 commits); +1: the boot snapshot's
        # rotation closed, and so synced, the first segment.
        assert dm.durability.counters["wal_syncs"] == 1 + {
            "always": 9, "off": 0, "batch": 4}[policy]
        assert dm.counters["commits_durable"] == durable_cells
        assert dm.counters["commits_volatile"] == volatile_cells
        dm.crash()


def test_volatile_directory_counts_nothing_durable():
    kernel = SimKernel()
    transport = SimTransport(kernel)
    dm = DirectoryManager(
        transport, "dir", Store(), extract_from_object, merge_into_object,
    )
    _push_commits(kernel, transport, 4)
    assert dm.counters["commits_durable"] == 0
    assert dm.counters["commits_volatile"] == 4
    dm.close()


def test_batch_tail_is_lost_but_synced_prefix_survives(wal_root):
    """fsync=batch loses at most the unsynced window on a kill — the
    bounded-loss contract, not a bug."""
    spec = _spec(wal_root, name="batch", fsync="batch", batch_interval=4)
    kernel = SimKernel()
    transport = SimTransport(kernel)
    store = Store()
    dm = _dm(transport, store, spec)
    _push_commits(kernel, transport, 10, cells=1)  # syncs at 4 and 8
    dm.crash()
    store2 = Store()
    dm2 = _dm(SimTransport(SimKernel()), store2, spec)
    replayed = dm2.counters["cells_replayed"]
    # The kill loses at most one unsynced batch window (commit records
    # interleave with cursor records, so the boundary is not exact).
    assert 10 - 4 <= replayed < 10
    assert store2.cells["c0"] == replayed - 1  # commits replay in order
    dm2.close()


def test_recovery_reclaims_exclusive_views(wal_root):
    """A recovered-exclusive view may hold dirty state newer than the
    WAL (strong-mode transfers ride invalidation rounds, which die with
    the directory).  On restart the directory must fetch the
    authoritative image back before serving anyone."""
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
    store = Store({"a": 0})
    system = ShardedFleccSystem(
        transport, store, extract_from_object, merge_into_object,
        n_shards=1, extract_cells=extract_cells,
        durability=_spec(wal_root, name="reclaim", snapshot_every=4),
    )
    agent = Agent()
    cm = system.add_view(
        "w", agent, props_for(["a"]), extract_from_view, merge_into_view,
        mode="strong", request_timeout=25.0, max_retries=8,
    )

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] = agent.local.get("a", 0) + 7
        yield ("sleep", 20.0)  # directory dies and restarts in here
        cm.end_use_image()
        yield cm.kill_image()

    kernel.call_at(8.0, lambda: system.plane.crash_shard(0))
    kernel.call_at(10.0, lambda: system.plane.restart_shard(0))
    run_all_scripts(system.transport, [script()])
    kernel.run()
    dm = system.plane.shards[0]
    assert dm.counters["recovery_reclaims"] == 1
    assert dm.counters["reclaim_timeouts"] == 0
    assert store.cells["a"] == 7  # the in-use dirty write came back
    assert system.transport.stats.recoveries == 1
    system.close()


def test_reclaim_timeout_quarantines_dead_owner(wal_root):
    """If a recovered-exclusive view never answers the reclaim fetch,
    the directory must not wedge: the owner is quarantined and the
    queue resumes."""
    kernel = SimKernel()
    transport = SimTransport(kernel)
    store = Store({"a": 0})
    spec = _spec(wal_root, name="timeout")
    dm = _dm(transport, store, spec)
    replies = []
    ep = transport.bind("cm", replies.append)
    ep.send(Message(M.REGISTER, "cm", "dir",
                    {"view_id": "w", "properties": props_for(["a"]),
                     "mode": "strong"}))
    kernel.run()
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w"}))
    kernel.run()
    assert dm.views["w"].exclusive
    dm.crash()
    ep.close()  # the owner is gone for good
    kernel2 = SimKernel()
    dm2 = _dm(SimTransport(kernel2), Store(), spec)
    assert dm2.counters["recovery_reclaims"] == 1
    kernel2.run()  # the reclaim window expires undelivered
    assert dm2.counters["reclaim_timeouts"] == 1
    assert not dm2.views["w"].exclusive
    assert not dm2.views["w"].active
    dm2.close()


@pytest.mark.parametrize("stop", ["close", "crash"])
def test_reclaim_watchdog_dies_with_the_directory(wal_root, stop):
    """Regression: a restarted directory that is closed (or crashes
    again) inside its reclaim window must take the watchdog with it —
    fired afterwards, it logged cursors to the closed WAL and raised."""
    kernel = SimKernel()
    transport = SimTransport(kernel)
    spec = _spec(wal_root, name="watchdog")
    dm = _dm(transport, Store({"a": 0}), spec)
    ep = transport.bind("cm", lambda m: None)
    ep.send(Message(M.REGISTER, "cm", "dir",
                    {"view_id": "w", "properties": props_for(["a"]),
                     "mode": "strong"}))
    kernel.run()
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w"}))
    kernel.run()
    dm.crash()
    kernel2 = SimKernel()
    dm2 = _dm(SimTransport(kernel2), Store(), spec)
    assert dm2.counters["recovery_reclaims"] == 1
    getattr(dm2, stop)()
    kernel2.run()  # past the reclaim window
    assert dm2.counters["reclaim_timeouts"] == 0


@pytest.mark.parametrize("stop", ["close", "crash"])
def test_round_watchdog_dies_with_the_directory(wal_root, stop):
    """Regression: a round stuck on a silent view, on a durable
    directory with a round watchdog, when the directory is closed (or
    crashes) before the timeout — fired afterwards, the watchdog logged
    cursors to the closed WAL and raised."""
    kernel = SimKernel()
    transport = SimTransport(kernel)
    dm = DirectoryManager(
        transport, "dir", Store({"a": 0}), extract_from_object,
        merge_into_object, durability=_spec(wal_root, name="round-dog"),
        round_timeout=30.0,
    )
    ep = transport.bind("cm", lambda m: None)  # never answers INVALIDATE
    for vid in ("w", "r"):
        ep.send(Message(M.REGISTER, "cm", "dir",
                        {"view_id": vid, "properties": props_for(["a"]),
                         "mode": "strong"}))
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w"}))
    kernel.run()
    assert dm.views["w"].exclusive
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "r"}))
    kernel.run(until=kernel.now + 5.0)  # the revocation of w is in flight
    assert dm._running
    getattr(dm, stop)()
    kernel.run()  # past the round timeout
    assert dm.counters["round_timeouts"] == 0


def _recovered_owner(wal_root, name, **options):
    """A durable directory whose strong view ``w`` (cell ``a``) holds
    exclusivity when it crashes; returns the lineage spec."""
    kernel = SimKernel()
    transport = SimTransport(kernel)
    spec = _spec(wal_root, name=name)
    dm = DirectoryManager(
        transport, "dir", Store({"a": 0, "b": 0}), extract_from_object,
        merge_into_object, durability=spec, **options,
    )
    ep = transport.bind("cm", lambda m: None)
    ep.send(Message(M.REGISTER, "cm", "dir",
                    {"view_id": "w", "properties": props_for(["a"]),
                     "mode": "strong"}))
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w"}))
    kernel.run()
    assert dm.views["w"].exclusive
    dm.crash()
    ep.close()
    return spec


def test_reclaim_reply_whose_merge_raises_is_fenced(wal_root):
    """The reclaim is a round, so its replies pass the round-fault
    fence: a merge hook that raises on the owner's handed-back slice
    quarantines the owner and finishes the round instead of raising
    out of the event loop."""
    spec = _recovered_owner(wal_root, "reclaim-fault")

    def poisoned_merge(store, image, props):
        if "poison" in image.keys():
            raise RuntimeError("merge hook exploded")
        merge_into_object(store, image, props)

    kernel = SimKernel()
    transport = SimTransport(kernel)
    replies = []

    def owner(msg):
        if msg.msg_type == M.FETCH_REQ:
            assert msg.payload == {"view_id": "w", "full": True}
            ep.send(msg.reply(M.FETCH_REPLY, {
                "view_id": "w", "image": ObjectImage({"poison": 1}),
            }))
        else:
            replies.append(msg)

    ep = transport.bind("cm", owner)
    dm = DirectoryManager(
        transport, "dir", Store(), extract_from_object, poisoned_merge,
        durability=spec,
    )
    kernel.run()
    assert dm.counters["recovery_reclaims"] == 1
    assert dm.counters["round_faults"] == 1
    assert dm.quarantined["w"].reason == "round-fault"
    assert not dm.views["w"].exclusive and not dm.views["w"].active
    assert not dm._running  # the round finished
    ep.send(Message(M.PULL_REQ, "cm", "dir", {"view_id": "w"}))
    kernel.run()
    assert [m.msg_type for m in replies] == [M.PULL_DATA]
    dm.close()


def _revoke_with_handover(transport, image):
    """Two strong views on {a, b, c}: ``w1`` takes the token, then
    ``w2``'s ACQUIRE is sent to revoke it, and ``w1`` will hand
    ``image`` over on its INVALIDATE_ACK.  Returns the hub endpoint and
    the list every other reply lands in."""
    replies = []

    def hub(msg):
        if msg.msg_type == M.INVALIDATE:
            ep.send(msg.reply(M.INVALIDATE_ACK, {
                "view_id": msg.payload["view_id"], "image": image,
                "state_seq": 1,
            }))
        else:
            replies.append(msg)

    ep = transport.bind("cm", hub)
    for vid in ("w1", "w2"):
        ep.send(Message(M.REGISTER, "cm", "dir",
                        {"view_id": vid, "properties": props_for(["a", "b", "c"]),
                         "mode": "strong"}))
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w1"}))
    transport.kernel.run()
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w2"}))
    return ep, replies


def _merge_refusing_666(store, image, props):
    if 666 in image.cells.values():
        raise RuntimeError("merge hook exploded")
    merge_into_object(store, image, props)


@pytest.mark.parametrize("fsync", ["always", "batch"])
def test_round_merge_fault_logs_no_commit(wal_root, fsync):
    """A commit is all or nothing: a merge hook that raises on a round
    reply's hand-over leaves no WAL commit record, so the next commit's
    cursor follows on and a restart has nothing it cannot replay."""
    spec = _spec(wal_root, name=f"merge-fault-{fsync}", fsync=fsync)
    kernel = SimKernel()
    transport = SimTransport(kernel)
    store = Store({"a": 0, "b": 0, "c": 0})
    dm = DirectoryManager(
        transport, "dir", store, extract_from_object, _merge_refusing_666,
        durability=spec,
    )
    ep, replies = _revoke_with_handover(
        transport, ObjectImage({"a": 666, "b": 3})
    )
    kernel.run()
    assert dm.counters["round_faults"] == 1
    assert dm.commit_seq == 0 and store.cells == {"a": 0, "b": 0, "c": 0}
    dm.durability.sync()
    assert [r for r in wal_records(spec.directory) if r["k"] == "commit"] == []
    push = Message(M.PUSH, "cm", "dir", {
        "view_id": "w2", "image": ObjectImage({"c": 7}), "state_seq": 1,
    })
    ep.send(push)
    kernel.run()
    [ack] = [m for m in replies if m.reply_to == push.msg_id]
    assert (ack.msg_type, ack.payload["committed"]) == (M.PUSH_ACK, 1)
    dm.close()
    restarted_store = Store()
    restarted = DirectoryManager(
        SimTransport(SimKernel()), "dir", restarted_store, extract_from_object,
        _merge_refusing_666, durability=spec,
    )
    assert restarted.commit_seq == 1
    assert restarted_store.cells == {"a": 0, "b": 0, "c": 7}
    restarted.close()


def test_wal_failure_in_a_round_is_not_a_round_fault(wal_root, monkeypatch):
    """A log that cannot sync the hand-over's commit record fail-stops
    the directory: the WalError leaves the handler, and the view that
    handed over is not blamed — no round fault, no quarantine."""
    kernel = SimKernel()
    transport = SimTransport(kernel)
    dm = _dm(transport, Store({"a": 0, "b": 0, "c": 0}),
             _spec(wal_root, name="round-eio"))
    _revoke_with_handover(transport, ObjectImage({"a": 5}))

    def eio(fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "fsync", eio)
    with pytest.raises(WalError, match="fsync failed"):
        kernel.run()
    monkeypatch.undo()
    assert dm.counters["round_faults"] == 0
    assert dm.quarantined == {}
    dm.crash()


def test_reclaim_blocks_only_the_owners_conflict_groups(wal_root):
    """With unbounded rounds the reclaim round holds its owners'
    conflict groups and nothing else: a pull on an unrelated cell is
    served inside the reclaim window, a pull on the owner's cell waits
    until the silent owner's reclaim times out."""
    spec = _recovered_owner(wal_root, "reclaim-scope", concurrent_rounds=0)
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    answered = {}

    def hub(msg):  # the owner is silent; everyone else records replies
        if msg.msg_type == M.PULL_DATA:
            answered[msg.reply_to] = transport.now()

    ep = transport.bind("cm", hub)
    dm = DirectoryManager(
        transport, "dir", Store(), extract_from_object, merge_into_object,
        durability=spec, concurrent_rounds=0,
    )
    pulls = {}
    for vid, cell in (("x", "b"), ("y", "a")):
        ep.send(Message(M.REGISTER, "cm", "dir",
                        {"view_id": vid, "properties": props_for([cell]),
                         "mode": "weak"}))
        pulls[vid] = Message(M.PULL_REQ, "cm", "dir", {"view_id": vid})
        ep.send(pulls[vid])
    kernel.run()
    assert dm.counters["reclaim_timeouts"] == 1  # the 60 s window
    assert answered[pulls["x"].msg_id] < 5.0     # outside: not held
    assert answered[pulls["y"].msg_id] >= 60.0   # inside: waited
    dm.close()


# -- the loop thread never waits for the disk --------------------------------

@pytest.mark.parametrize("stop", ["close", "crash"])
def test_batch_fsyncs_stay_off_the_transport_loop_thread(
    wal_root, monkeypatch, stop
):
    """200 commits over real sockets under fsync=batch: every handler
    runs on the aio loop thread, and not one fsync may — the appender
    flushes, the log thread syncs.  Stopping the directory leaves no
    fsync request behind."""
    transport = resolve_transport("aio")
    store = Store({"a": 0})
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        durability=_spec(wal_root, name=f"offloop-{stop}", fsync="batch"),
    )
    agent = Agent()
    cm = system.add_view(
        "v", agent, props_for(["a"]), extract_from_view, merge_into_view,
    )
    real_fsync, fsync_tids = os.fsync, []

    def recording_fsync(fd):
        fsync_tids.append(threading.get_ident())
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)  # boot is behind us

    def script():
        yield cm.start()
        yield cm.init_image()
        for i in range(200):
            yield cm.start_use_image()
            agent.local["a"] = i + 1
            cm.end_use_image()
            yield cm.push_image()

    run_all_scripts(transport, [script()])
    dm = system.directory
    writer = dm.durability._writer
    assert dm.counters["commits"] == 200
    assert dm.counters["commits_durable"] == 0       # acked before the fsync
    assert dm.durability.counters["wal_syncs"] >= 200 // 16
    wait_for_log_thread(writer)
    assert len(fsync_tids) == writer.syncs
    assert transport._loop_tid is not None
    assert transport._loop_tid not in fsync_tids
    getattr(dm, stop)()
    assert writer._inflight == 0
    transport.close()
    store2 = Store()
    dm2 = _dm(SimTransport(SimKernel()), store2,
              _spec(wal_root, name=f"offloop-{stop}", fsync="batch"))
    if stop == "close":
        assert store2.cells["a"] == 200
    else:   # a kill loses at most the records after the last issued fsync
        assert 200 - 16 <= store2.cells["a"] <= 200
    dm2.close()
