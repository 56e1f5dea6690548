"""A durable directory that commits until it is killed.

    python -m tests.core.wal_kill_child ROOT SEED

The child of ``test_wal_kill.py``.  It boots a
:class:`~repro.core.directory.DirectoryManager` on ``SimTransport``
over the lineage under ``ROOT`` (recovering it when it exists) with
``fsync="always"`` and ``snapshot_every=4``, so a snapshot job is on
the WAL's log thread every fourth commit.  It prints ``ready
<commit_seq>`` once recovery is done, then PUSHes one cell at a time,
forever, each value larger than any it recovered; after each PUSH_ACK
it prints ``<key> <value>`` and flushes.
"""

from __future__ import annotations

import random
import sys

from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.image import ObjectImage
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


def spec(root: str) -> DurabilitySpec:
    return DurabilitySpec(root=root, fsync="always", snapshot_every=4,
                          keep_snapshots=1)


def boot(root: str, transport: SimTransport) -> DirectoryManager:
    """The directory over ``root``'s lineage; a first boot starts from
    every cell at 0."""
    fresh = not spec(root).directory.exists()
    return DirectoryManager(
        transport, "dir", Store({c: 0 for c in CELLS} if fresh else {}),
        extract_from_object, merge_into_object, extract_cells=extract_cells,
        durability=spec(root),
    )


def main(root: str, seed: int) -> None:
    rng = random.Random(seed)
    kernel = SimKernel()
    transport = SimTransport(kernel)
    dm = boot(root, transport)
    replies = []
    endpoint = transport.bind("cm", replies.append)
    endpoint.send(Message(M.REGISTER, "cm", "dir", {
        "view_id": "v", "properties": props_for(CELLS), "mode": "weak",
    }))
    kernel.run()
    print("ready", dm.commit_seq, flush=True)
    value = max(dm.component.cells.values()) + 1
    while True:
        key = rng.choice(CELLS)
        endpoint.send(Message(M.PUSH, "cm", "dir", {
            "view_id": "v", "image": ObjectImage({key: value}),
            "state_seq": value,
        }))
        kernel.run()
        reply = replies.pop()
        if reply.msg_type != M.PUSH_ACK:
            raise SystemExit(f"push refused: {reply}")
        print(key, value, flush=True)
        value += 1


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
