"""Replay equivalence: what recovery rebuilds is what the directory held.

Cursor records are deltas — a serve or a revocation logs only the
fields it can change, and a serve adds the ``seen`` entries of the
cells it shipped — so nothing but the replay rules stands between the
log and an exact copy of every ``ViewRecord``.  ``seen`` feeds
write-write conflict detection, so it may not drift in either
direction: a cursor behind the truth resolves a write that was not
stale, one ahead of it lets a stale write through.

(a) seeded random scripts over a durable directory — token holders
that go silent until a round gives up on them, fresh re-registrations
after an eviction, unregistrations of quarantined views — sync, crash
and restart at random points and compare every recovered view and
quarantine field with the live directory's at the sync point; (b) a lineage frozen from the last
commit that wrote full-state ``cursors`` records must still recover to
the state that commit recovered from it.
"""

import random
from pathlib import Path

import pytest

from repro.core import messages as M

from tests.core.durable_rig import (
    DurableRig,
    random_step,
    unpack_fixture,
    wal_records,
)

LEGACY = Path(__file__).parents[1] / "net" / "legacy_wal_lineage.json"


def _record_kinds(rig):
    return {record["k"] for record in wal_records(rig.spec.directory)}


# -- (a) live state == recovered state --------------------------------------

@pytest.mark.parametrize("seed", range(24))
def test_recovered_views_equal_live_views_at_the_sync_point(wal_root, seed):
    rng = random.Random(seed)
    rig = DurableRig(
        wal_root, name=f"eq{seed}",
        lease_duration=rng.choice([None, 40.0, 120.0]),
        round_timeout=rng.choice([15.0, 30.0]),
        fsync=rng.choice(["always", "batch", "off"]),
        batch_interval=rng.choice([2, 16]),
        snapshot_every=rng.choice([0, 3, 9]),
    )
    log, restarts = [], 0
    for _ in range(160):
        log.append(random_step(rig, rng))
        if rng.random() < 0.8:
            rig.settle()        # else: leave it in flight with the next
        if rng.random() < 0.08:
            rig.dm.durability.sync()
            live = rig.state()
            assert rig.crash_restart() == live, (seed, log[-12:])
            log.append("-- restart --")
            restarts += 1
    rig.settle()
    rig.dm.check_invariants()
    rig.close()
    assert restarts >= 3
    assert "cursors" not in _record_kinds(rig)   # one writer, the compact one


def test_full_serve_and_resolver_rewrite_recover_exactly(wal_root):
    """The two cases a delta of ``seen`` could get wrong: a complete
    (non-delta) serve restamps the whole slice, and a resolver-rewritten
    cell (``noadv``) must leave the pusher's cursor *behind* master."""
    rig = DurableRig(wal_root, name="exact", fsync="always", snapshot_every=0)
    w, r = rig.cm("w"), rig.cm("r")
    rig.register("w", ["c0", "c1", "c2"])
    rig.register("r", ["c0", "c1", "c2", "c3"])
    rig.settle()
    for cm in (w, r):
        cm.serve_request(M.INIT_REQ)
    rig.settle()
    w.push({"c0": 7, "c1": 7})
    rig.settle()
    r.push({"c1": 3, "c3": 3})           # c1 stale at r: resolver keeps 7
    rig.settle()
    rec = rig.dm.views["r"]
    assert rec.seen.get("c1") < rig.dm.master_versions.get("c1")
    assert rig.crash_restart() == rig.state()
    assert rig.dm.views["r"].seen.get("c1") < rig.dm.master_versions.get("c1")
    r.serve_request(M.PULL_REQ)          # delta: the resolved c1 comes back
    w.serve_request(M.PULL_REQ, full=True)   # complete image, every key
    rig.settle()
    live = rig.state()
    assert live["views"]["w"]["seen"] == {"c0": 1, "c1": 2, "c2": 0}
    assert live["views"]["r"]["seen"]["c1"] == 2
    assert rig.crash_restart() == live
    rig.close()


def test_serve_records_carry_only_the_served_keys(wal_root):
    """A delta serve of one changed cell logs one ``seen`` entry, an
    empty serve logs none, and neither re-logs the registration."""
    rig = DurableRig(wal_root, name="small", fsync="always", snapshot_every=0)
    w, r = rig.cm("w"), rig.cm("r")
    rig.register("w", ["c0", "c1", "c2", "c3"])
    rig.register("r", ["c0", "c1", "c2", "c3"])
    rig.settle()
    r.serve_request(M.INIT_REQ)
    rig.settle()
    w.push({"c2": 9})
    rig.settle()
    r.serve_request(M.PULL_REQ)          # delta: c2 only
    rig.settle()
    r.serve_request(M.PULL_REQ)          # nothing changed
    rig.settle()
    rig.close()
    serves = [rec for rec in wal_records(rig.spec.directory)
              if rec["k"] == "cur" and rec["v"] == "r"]
    assert [sorted(rec.get("seen", {})) for rec in serves] == [
        ["c0", "c1", "c2", "c3"], ["c2"], [],
    ]
    assert all(not {"addr", "props", "trig"} & rec.keys() for rec in serves)


# -- (b) a lineage the parent commit wrote ----------------------------------

def _unpack_legacy(wal_root):
    return unpack_fixture(LEGACY, wal_root)


def test_legacy_lineage_recovers_to_its_frozen_state(wal_root):
    doc, lineage = _unpack_legacy(wal_root)
    assert "cursors" in doc["record_kinds_in_tail"]
    rig = DurableRig(wal_root, cells={}, lease_duration=200.0, **doc["spec"])
    assert rig.state() == doc["expected"]
    assert rig.dm.counters["wal_recoveries"] == 1
    # ...and the lineage stays usable: new-format records append behind
    # the legacy ones and the mix recovers exactly too.
    for view_id in doc["expected"]["views"]:
        rig.cm(view_id)                    # the views' CMs are still up
    rig.settle()                           # reclaim fetch to owner "b"
    rig.cm("r").serve_request(M.PULL_REQ, full=True)
    rig.cm("a").push({"c0": 4})
    rig.settle()
    live = rig.state()
    assert rig.crash_restart() == live
    assert {"cursors", "cur"} <= _record_kinds(rig)
    rig.close()


def test_legacy_lineage_recovers_through_the_snapshot_fallback(wal_root):
    """Damage the newest snapshot: recovery falls back a generation and
    replays both segments — every legacy ``cursors`` record in the
    fixture, not just those behind the newest cut."""
    doc, lineage = _unpack_legacy(wal_root)
    newest = max(lineage.glob("snap-*.bin"),
                 key=lambda p: int(p.stem.split("-")[1]))
    newest.write_bytes(newest.read_bytes()[:40])
    rig = DurableRig(wal_root, cells={}, lease_duration=200.0, **doc["spec"])
    assert rig.dm.durability.recovered.snapshots_skipped == 1
    assert rig.state() == doc["expected"]
    rig.close()
