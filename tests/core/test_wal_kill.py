"""A directory killed by SIGKILL keeps every commit it acknowledged.

The child (``wal_kill_child.py``) commits one cell at a time under
``fsync="always"`` with a snapshot job queued every fourth commit, and
reports each PUSH_ACK over its stdout pipe; the parent SIGKILLs it at
seeded random points — mid-commit, mid-fsync, mid-snapshot-job — and
restarts it.  After each kill, recovery must not raise and every
reported commit must be present (a later, unreported commit to the
same cell may have overtaken it: values only grow).
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel

from tests.core.wal_kill_child import boot

ROOT = Path(__file__).resolve().parents[2]
SEED = 51
KILLS = 8


def _spawn(wal_root: Path, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "tests.core.wal_kill_child", str(wal_root),
         str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])),
    )


def test_sigkill_at_random_points_loses_no_acknowledged_commit(wal_root):
    rng = random.Random(SEED)
    reported = {}       # cell -> the last value the child reported acked
    acks = 0
    for kill in range(KILLS):
        child = _spawn(wal_root, SEED + kill)
        try:
            line = child.stdout.readline()
            assert line.startswith("ready"), child.stderr.read()
            for _ in range(rng.randrange(1, 40)):
                key, value = child.stdout.readline().split()
                reported[key] = int(value)
                acks += 1
            time.sleep(rng.random() * 0.01)
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()
        assert child.returncode == -signal.SIGKILL
        dm = boot(str(wal_root), SimTransport(SimKernel()))
        cells = dm.component.cells
        assert {k: v for k, v in cells.items() if k in reported} == {
            k: max(v, cells[k]) for k, v in reported.items()
        }
        assert dm.commit_seq >= acks
        dm.close()
