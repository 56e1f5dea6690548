"""A durable DirectoryManager on SimTransport, driven by raw messages.

Scripted stand-ins for cache managers send the protocol's requests
straight at the directory and answer its INVALIDATE / FETCH_REQ rounds,
so a test decides exactly which serve, commit and revocation happens
when — and can crash and restart the directory between any two of
them.  :func:`directory_state` flattens everything recovery promises to
rebuild into plain JSON values.

Shared by ``test_wal_replay.py`` (replay equivalence),
``test_view_record.py`` (the record's one spelling) and
``gen_legacy_wal_lineage.py`` (which runs it against an *older*
checkout's ``src`` to freeze that commit's on-disk format), so it uses
nothing but the public protocol surface.
"""

from __future__ import annotations

import base64
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.image import DeltaImage, ObjectImage
from repro.core.wal import scan_wal
from repro.net.binary_codec import decode_value
from repro.net.message import Message
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
from repro.testing import (
    Store,
    extract_cells,
    extract_from_object,
    merge_into_object,
    props_for,
)

CELLS = [f"c{i}" for i in range(8)]


def resolve_max(key: str, current: Any, incoming: Any) -> Any:
    """Write-write resolver: keeps the larger value, so some resolved
    cells differ from what was pushed (the WAL's ``noadv`` keys)."""
    return max(current, incoming)


def wal_records(lineage: Path) -> List[Dict[str, Any]]:
    """Every intact record of every segment of one lineage, in order."""
    return [
        decode_value(payload)
        for segment in sorted(lineage.glob("wal-*.log"),
                              key=lambda p: int(p.stem.split("-")[1]))
        for payload in scan_wal(segment).records
    ]


def unpack_fixture(fixture: Path, wal_root: Path):
    """Write a frozen lineage (``gen_legacy_wal_lineage.py``'s JSON)
    under ``wal_root``; returns the document and the lineage dir."""
    doc = json.loads(fixture.read_text())
    # Fixtures frozen while a quarantine stash still kept a copy of its
    # slice list that copy in the expected state; a stash keeps none
    # now (recovery ignores the snapshot's "img" entry).
    for q in doc["expected"]["quarantined"].values():
        q.pop("image", None)
    lineage = wal_root / doc["spec"]["name"]
    lineage.mkdir()
    for name, blob in doc["files"].items():
        (lineage / name).write_bytes(base64.b64decode(blob))
    return doc, lineage


def wait_for_log_thread(writer, timeout: float = 5.0) -> None:
    """Bounded wait until the WAL's log thread owes ``writer`` nothing."""
    deadline = time.monotonic() + timeout
    while writer._inflight and time.monotonic() < deadline:
        time.sleep(0.001)
    assert writer._inflight == 0


def directory_state(dm: DirectoryManager, store: Store) -> Dict[str, Any]:
    """Everything a restart must rebuild, as JSON-comparable values."""
    return {
        "commit_seq": dm.commit_seq,
        "master_versions": dm.master_versions.to_jsonable(),
        "cells": dict(sorted(store.cells.items())),
        "views": {
            vid: {
                "address": rec.address,
                "properties": rec.properties.to_jsonable(),
                "mode": rec.mode.value,
                "triggers": dict(rec.triggers),
                "seen": rec.seen.to_jsonable(),
                "last_state_seq": rec.last_state_seq,
                "last_served_seq": rec.last_served_seq,
                "synced": rec.synced,
                "active": rec.active,
                "exclusive": rec.exclusive,
            }
            for vid, rec in sorted(dm.views.items())
        },
        # Every QuarantinedView field but ``time`` (replay stamps 0.0).
        "quarantined": {
            vid: {
                "address": q.address,
                "properties": q.properties.to_jsonable(),
                "mode": q.mode.value,
                "seen": q.seen.to_jsonable(),
                "last_state_seq": q.last_state_seq,
                "reason": q.reason,
                "op_context": q.op_context,
            }
            for vid, q in sorted(dm.quarantined.items())
        },
    }


class FakeCm:
    """One view's cache manager, reduced to its wire behaviour."""

    def __init__(self, rig: "DurableRig", view_id: str) -> None:
        self.view_id = view_id
        self.address = f"cm:{view_id}"
        self.since = -1                   # delta cursor, as a fresh CM's
        self.state_seq = 0
        self.dirty: Dict[str, int] = {}   # written under a grant, not pushed
        self.silent = False               # ignores INVALIDATE / FETCH_REQ
        self.endpoint = rig.transport.bind(self.address, self._on_message)

    def _on_message(self, msg: Message) -> None:
        if msg.msg_type in (M.INVALIDATE, M.FETCH_REQ):
            if self.silent:
                return
            payload: Dict[str, Any] = {"view_id": self.view_id}
            if self.dirty:
                self.state_seq += 1
                payload.update(image=ObjectImage(self.dirty),
                               state_seq=self.state_seq)
                self.dirty = {}
            kind = (M.INVALIDATE_ACK if msg.msg_type == M.INVALIDATE
                    else M.FETCH_REPLY)
            self.endpoint.send(msg.reply(kind, payload))
            return
        image = msg.payload.get("image")
        if isinstance(image, DeltaImage):
            self.since = image.as_of
        elif msg.msg_type == M.REGISTER_ACK:
            self.state_seq = max(self.state_seq,
                                 msg.payload.get("last_state_seq", 0))

    def send(self, msg_type: str, **payload: Any) -> None:
        payload["view_id"] = self.view_id
        self.endpoint.send(Message(msg_type, self.address, "dir", payload))

    def serve_request(self, msg_type: str, **payload: Any) -> None:
        """INIT_REQ / PULL_REQ / ACQUIRE with the delta cursor attached."""
        self.send(msg_type, since=self.since, **payload)

    def push(self, cells: Dict[str, int]) -> None:
        self.state_seq += 1
        self.send(M.PUSH, image=ObjectImage(cells), state_seq=self.state_seq)


class DurableRig:
    """Kernel + transport + one durable directory + its fake CMs."""

    def __init__(self, wal_root, cells: Optional[Dict[str, int]] = None,
                 lease_duration: Optional[float] = None,
                 round_timeout: Optional[float] = None,
                 **spec_kw: Any) -> None:
        self.spec = DurabilitySpec(root=wal_root, **spec_kw)
        self.lease_duration = lease_duration
        self.round_timeout = round_timeout
        self.kernel = SimKernel()
        self.transport = SimTransport(self.kernel, default_latency=1.0)
        self.cms: Dict[str, FakeCm] = {}
        self.store = Store(cells if cells is not None
                           else {c: 0 for c in CELLS})
        self.dm = self._boot()

    def _boot(self) -> DirectoryManager:
        return DirectoryManager(
            self.transport, "dir", self.store,
            extract_from_object, merge_into_object,
            conflict_resolver=resolve_max, extract_cells=extract_cells,
            lease_duration=self.lease_duration,
            round_timeout=self.round_timeout, durability=self.spec,
        )

    def cm(self, view_id: str) -> FakeCm:
        if view_id not in self.cms:
            self.cms[view_id] = FakeCm(self, view_id)
        return self.cms[view_id]

    def settle(self, for_: float = 5.0) -> None:
        """Let every message in flight land (bounded: with leases on,
        the expiry sweep keeps the event queue alive forever)."""
        self.kernel.run(until=self.kernel.now + for_)

    def state(self) -> Dict[str, Any]:
        return directory_state(self.dm, self.store)

    def crash_restart(self, torn_tail: bytes = b"") -> Dict[str, Any]:
        """Kill the directory, wipe the primary copy, restart over the
        same lineage; returns the state recovery rebuilt (before any
        post-restart message is handled)."""
        self.dm.crash(torn_tail=torn_tail)
        self.store = Store()
        self.dm = self._boot()
        return self.state()

    def close(self) -> None:
        self.dm.close()

    # -- one protocol step ---------------------------------------------------
    def register(self, view_id: str, cells: Iterable[str], mode: str = "weak",
                 triggers: Optional[Dict[str, Optional[str]]] = None,
                 recover: bool = False) -> None:
        """REGISTER from the view's CM, restarted: it answers rounds."""
        self.cm(view_id).silent = False
        self.cm(view_id).send(
            M.REGISTER, properties=props_for(cells), mode=mode,
            triggers=triggers or {}, recover=recover,
        )


def random_step(rig: DurableRig, rng: random.Random) -> str:
    """Apply one random protocol step; returns a label for the log."""
    registered = sorted(rig.dm.views)
    roll = rng.random()
    if not registered or roll < 0.10:
        vid = f"v{rng.randrange(5)}"
        lo = rng.randrange(len(CELLS) - 2)
        cells = CELLS[lo:lo + rng.randrange(2, 5)]
        rig.register(
            vid, cells, mode=rng.choice(["weak", "strong"]),
            triggers={"push": "t % 10 == 0"} if rng.random() < 0.5 else None,
            # Half of the re-registrations after a quarantine are fresh.
            recover=vid in rig.dm.views
            or (vid in rig.dm.quarantined and rng.random() < 0.5),
        )
        return f"register {vid} {cells}"
    vid = rng.choice(registered)
    cm = rig.cm(vid)
    rec = rig.dm.views[vid]
    slice_ = sorted(rec.properties.get("cells").domain.values)
    if roll < 0.20:
        cm.serve_request(M.INIT_REQ)
        return f"init {vid}"
    if roll < 0.38:
        cm.serve_request(M.PULL_REQ, need_fresh=rng.random() < 0.3,
                         full=rng.random() < 0.15)
        return f"pull {vid}"
    if roll < 0.56:
        cm.serve_request(M.ACQUIRE, full=rng.random() < 0.1)
        if rng.random() < 0.7:
            # Written under the grant; handed over by the next
            # INVALIDATE_ACK / FETCH_REPLY, or pushed.
            cm.dirty[rng.choice(slice_)] = rng.randrange(100)
        return f"acquire {vid}"
    if roll < 0.74:
        cells = cm.dirty or {rng.choice(slice_): rng.randrange(100)}
        cm.dirty = {}
        cm.push(cells)
        return f"push {vid} {cells}"
    if roll < 0.80:
        mode = rng.choice(["weak", "strong"])
        cm.send(M.SET_MODE, mode=mode)
        return f"set_mode {vid} {mode}"
    if roll < 0.86:
        lo = rng.randrange(len(CELLS) - 2)
        cells = CELLS[lo:lo + rng.randrange(2, 5)]
        cm.send(M.PROP_UPDATE, properties=props_for(cells))
        return f"prop_update {vid} {cells}"
    if roll < 0.90:
        # Half the time a view a round gave up on: still registered,
        # and quarantined.
        stashed = [v for v in registered if v in rig.dm.quarantined]
        if stashed and rng.random() < 0.5:
            vid = rng.choice(stashed)
        rig.cm(vid).send(M.UNREGISTER)
        return f"unregister {vid}"
    if roll < 0.94:
        cm.send(M.HEARTBEAT)
        return f"heartbeat {vid}"
    holders = [v for v in registered if rig.dm.views[v].exclusive]
    if roll < 0.97 and holders:
        # The token holder's CM goes quiet: the next round that revokes
        # it times out and quarantines it (with a round timeout set).
        vid = rng.choice(holders)
        rig.cm(vid).silent = True
        return f"silence {vid}"
    rig.settle(45.0)    # long enough for a short lease to run out
    return "idle"
