"""Host-speed yardstick: a fixed piece of stdlib-only work, timed.

The boxes this benchmark runs on are small shared VMs whose effective
CPU speed drifts by up to 2x over seconds to minutes: the same
pure-Python loop measured 0.21-0.42 s back to back on the seed box, and
the same commit's ``disjoint_push.stock`` read 3.3k-6.2k ops/s within
one hour.  A 10 s run samples one state of that drift, so raw timings
spread 20-30 % run to run and medians move 40 % between hours — wider
than any bound worth gating on.  The drift is slow, so slices within a
run cannot average it out; a yardstick timed *during* the run, on the
thread that does the work, can divide most of it out (it tracks
per-second throughput with r = 0.8 and halves the run-to-run spread).

:class:`Yardstick` is that ruler.  It uses nothing from
``src/`` — otherwise a PR that sped the repo's codec up would slow the
ruler — and mixes what the plane spends its time on: interpreter
dispatch, dict traffic over a cache-cold heap, small-object allocation,
JSON, zlib.  A timing is reported *at reference speed*: divided by
``measured / NOMINAL_MS``, so on a host running at the seed box's calm
speed the scale is 1 and the units are real.  Raw values are kept
beside every scaled one.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from typing import List, Tuple

#: Median duration of :meth:`Yardstick.work` on the seed box (2 vCPU
#: Firecracker VM, py3.11) while calm and on a busy thread.  Frozen: it
#: only fixes the scale, every comparison divides it out.
NOMINAL_MS = 0.5

_CELL = {"number": "FL0007", "origin": "NYC", "destination": "SFO",
         "capacity": 10_000_000, "seats_available": 9_991_337, "price": 312.5}
_BLOB = json.dumps([_CELL] * 8).encode()


class Yardstick:
    """The reference work plus the timings taken of it."""

    def __init__(self) -> None:
        # A few MB of small objects, walked with a stride that moves on
        # every call: the work always runs cache-cold, whether the
        # thread was idle or busy before it, so one nominal value serves
        # both.
        self._heap = [dict(_CELL, seats_available=i) for i in range(16384)]
        self._calls = 0
        self.samples: List[Tuple[float, float]] = []   # perf_counter s, ms

    def work(self) -> int:
        """~0.3 ms of fixed work; returns a checksum so nothing is elided."""
        self._calls += 1
        acc = 0
        table = {}
        heap = self._heap
        for i in range(self._calls % 32, len(heap), 32):
            cell = heap[i]
            acc += cell["seats_available"] % 7
            table[i & 63] = (acc, cell["number"])
        acc += len([(i, str(i), {"seq": i}) for i in range(100)])
        cells = [dict(_CELL, seats_available=_CELL["seats_available"] - i)
                 for i in range(24)]
        text = json.dumps({"cells": cells, "seq": acc})
        acc += len(json.loads(text)["cells"])
        acc += len(zlib.decompress(zlib.compress(_BLOB, 6)))
        return acc + len(table)

    def sample(self) -> float:
        """Time one piece of work; the sample is kept and returned (ms)."""
        start = time.perf_counter()
        self.work()
        end = time.perf_counter()
        self.samples.append((end, (end - start) * 1e3))
        return (end - start) * 1e3

    def factor(self, since: float = 0.0, until: float = float("inf")) -> float:
        """How much slower than nominal the host ran between two
        instants (1.0 = nominal, 2.0 = half speed; 1.0 if unsampled)."""
        ms = [v for t, v in self.samples if since <= t < until]
        return statistics.median(ms) / NOMINAL_MS if ms else 1.0
