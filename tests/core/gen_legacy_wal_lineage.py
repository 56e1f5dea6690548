"""Freeze one commit's on-disk durability format as a test fixture.

Run against a checkout of the commit whose format is to be pinned::

    PYTHONPATH=<that checkout>/src:<this repo> \\
        python tests/core/gen_legacy_wal_lineage.py <commit> OUT.json [snapshot]

It drives a fixed script through :class:`tests.core.durable_rig.DurableRig`
(registrations, delta and full serves, revocation rounds, a
resolver-rewritten commit, SET_MODE, PROP_UPDATE, UNREGISTER, a lease
eviction, two snapshots and a WAL tail beyond the newest), kills the
directory, and writes every file of the lineage base64-in-JSON beside
the state *that commit's own recovery* rebuilt from it.

``tests/net/legacy_wal_lineage.json`` (beside the codec's golden
frames: both pin bytes an older commit wrote) was produced this way at
commit 0c3d384, the last one whose ``_log_cursors`` wrote full-state
``cursors`` records: it is what licenses keeping that record kind's
replay branch after its write side was deleted.

With ``snapshot`` it drives :func:`snapshot_script` instead, which ends
in a snapshot with no WAL record behind it, so recovery decodes nothing
but that commit's snapshot: every view flag, and quarantine entries
from both a lease eviction and a round timeout.
``tests/net/legacy_snapshot.json`` was produced this way at commit
b6474d9, the last one whose snapshot spelled a quarantine entry with
six view fields of its own.
"""

import base64
import json
import sys
import tempfile
from pathlib import Path

from repro.core import messages as M
from repro.testing import props_for

from tests.core.durable_rig import DurableRig, wal_records


def script(rig: DurableRig) -> None:
    a, b, r, gone, idle = (rig.cm(v) for v in ("a", "b", "r", "gone", "idle"))
    rig.register("a", ["c0", "c1", "c2"], mode="strong")
    rig.register("b", ["c1", "c2", "c3"], mode="strong")
    rig.register("r", ["c0", "c1", "c2", "c3", "c4"], mode="weak",
                 triggers={"pull": "t % 10 == 0", "push": None})
    rig.register("gone", ["c6"], mode="weak")
    rig.register("idle", ["c7"], mode="weak")
    rig.settle()
    for cm in (r, gone, idle):
        cm.serve_request(M.INIT_REQ)            # full serves
    rig.settle()
    a.serve_request(M.ACQUIRE)
    rig.settle()
    a.dirty = {"c1": 11, "c2": 12}
    b.serve_request(M.ACQUIRE)                  # revokes a, commits its dirt
    rig.settle()
    r.serve_request(M.PULL_REQ)                 # delta serve: c1, c2
    rig.settle()
    b.dirty = {"c2": 22}
    a.serve_request(M.ACQUIRE)                  # revokes b
    rig.settle()
    a.serve_request(M.ACQUIRE, full=True)       # regrant, full image
    rig.settle()
    r.push({"c2": 5, "c4": 44})                 # c2 stale at r: resolver keeps 22
    rig.settle()
    r.serve_request(M.PULL_REQ)                 # ships the resolved c2 back
    gone.push({"c6": 66})
    rig.settle()
    a.send(M.SET_MODE, mode="weak")
    b.send(M.PROP_UPDATE, properties=props_for(["c3", "c4", "c5"]))
    gone.send(M.UNREGISTER)
    rig.settle()
    b.serve_request(M.PULL_REQ)                 # full serve after PROP_UPDATE
    rig.settle()
    # Everyone but "idle" keeps renewing; idle's lease runs out.
    for _ in range(5):
        for cm in (a, b, r):
            cm.send(M.HEARTBEAT)
        rig.settle(50.0)
    b.push({"c5": 55})
    r.serve_request(M.PULL_REQ, need_fresh=True)
    rig.settle()
    a.push({"c2": 1})                           # stale again: stays noadv
    b.serve_request(M.ACQUIRE)                  # b ends exclusive
    rig.settle()


def snapshot_script(rig: DurableRig) -> None:
    a, b, r, idle = (rig.cm(v) for v in ("a", "b", "r", "idle"))
    rig.register("a", ["c0", "c1", "c2"], mode="strong",
                 triggers={"push": "t % 10 == 0"})
    rig.register("b", ["c1", "c2", "c3"], mode="strong")
    rig.register("r", ["c0", "c1", "c2", "c3", "c4"], mode="weak",
                 triggers={"pull": "t % 10 == 0", "push": None})
    rig.register("idle", ["c7"], mode="weak")
    rig.settle()
    for cm in (r, idle):
        cm.serve_request(M.INIT_REQ)
    a.serve_request(M.ACQUIRE)
    rig.settle()
    a.dirty = {"c1": 11}
    r.push({"c4": 44})
    r.serve_request(M.PULL_REQ)                 # revokes a: a delta serve
    rig.settle()
    b.serve_request(M.ACQUIRE)
    rig.settle()
    b.silent = True
    a.serve_request(M.ACQUIRE)                  # b never answers: quarantined
    for _ in range(6):
        for cm in (a, b, r):
            cm.send(M.HEARTBEAT)
        rig.settle(50.0)                        # idle's lease runs out
    rig.dm.durability.snapshot(rig.dm._durable_state())


def main(commit: str, out: str, kind: str = "wal") -> None:
    snapshot = kind == "snapshot"
    spec = ({"name": "legacy", "fsync": "always", "snapshot_every": 0}
            if snapshot else
            {"name": "legacy", "fsync": "always",
             "snapshot_every": 5, "keep_snapshots": 2})
    with tempfile.TemporaryDirectory() as root:
        rig = DurableRig(root, lease_duration=200.0,
                         round_timeout=30.0 if snapshot else None, **spec)
        (snapshot_script if snapshot else script)(rig)
        live = rig.state()
        counters = rig.dm.counters
        if snapshot:
            assert counters["round_timeouts"] and counters["leases_expired"]
            assert {"b", "idle"} <= set(live["quarantined"])
        else:
            assert counters["delta_serves"] and counters["full_serves"]
            assert counters["regrants"] and counters["leases_expired"]
            assert "idle" in live["quarantined"] and "gone" not in live["views"]
        recovered = rig.crash_restart()
        assert recovered == live, "the writer's own recovery is not exact"
        assert not snapshot or not rig.dm.durability.recovered.records
        rig.dm.crash()
        lineage = Path(root) / "legacy"
        kinds = sorted({record["k"] for record in wal_records(lineage)})
        doc = {
            "commit": commit,
            "spec": spec,
            "record_kinds_in_tail": kinds,
            "files": {
                p.name: base64.b64encode(p.read_bytes()).decode("ascii")
                for p in sorted(lineage.iterdir())
            },
            "expected": live,
        }
    Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{out}: {len(doc['files'])} files, tail kinds {kinds}")


if __name__ == "__main__":
    main(*sys.argv[1:4])
