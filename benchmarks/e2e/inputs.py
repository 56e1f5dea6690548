"""Seeded workload generation: everything the program under test is fed.

All randomness comes from ``repro.sim.rng.stream_for(seed, ...)`` and
is materialised before the timed window.  The system never learns a
workload's name: it sees a flight database, view slices, and calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.airline.flights import FlightDatabase
from repro.apps.airline.workload import generate_flight_database
from repro.sim.rng import stream_for

from .spec import CAPACITY, Shape

#: Ops pre-generated per closed-loop view; the driver cycles through them.
SCHEDULE_LEN = 4096
#: Open loop: how many Zipf ranks apart the views sharing a slice are.
PARTNER_GAP = 32


@dataclass
class Inputs:
    shape: Shape
    seed: int
    slices: List[List[str]]        # per view: the flights it serves
    picks: List[bytes]             # per view: index into its slice, per op
    buys: List[bytes]              # per view: 1 = the op reserves + pushes
    arrival_s: Optional[List[float]] = None   # open loop: due time from t=0
    arrival_view: Optional[List[int]] = None  # open loop: which view

    def database(self) -> FlightDatabase:
        """A fresh primary copy (one per set-up: runs mutate it)."""
        return generate_flight_database(
            self.shape.flights, seed=self.seed,
            capacity_range=(CAPACITY, CAPACITY),
        )


def make_inputs(shape_name: str, shape: Shape, seed: int,
                horizon_s: float) -> Inputs:
    """Generate one workload's inputs; ``horizon_s`` bounds open-loop
    arrivals (warm-up + timed window)."""
    slices = [
        [f"FL{(v // shape.group) * shape.slice_len + j:04d}"
         for j in range(shape.slice_len)]
        for v in range(shape.views)
    ]
    picks, buys = [], []
    for v in range(shape.views):
        rng = stream_for(seed, "e2e", shape_name, "ops", v)
        # bytes, not lists: the schedule must not weigh on the garbage
        # collector of the process that hosts the system under test.
        picks.append(bytes(
            rng.integers(0, shape.slice_len, SCHEDULE_LEN, dtype=np.uint8)))
        buys.append(bytes(
            (rng.random(SCHEDULE_LEN) < shape.buy_ratio).astype(np.uint8)))
    inputs = Inputs(shape, seed, slices, picks, buys)
    if shape.open_rate > 0:
        rng = stream_for(seed, "e2e", shape_name, "arrivals")
        # A Poisson process conditioned on its count per second: every
        # second gets exactly `open_rate` arrivals at independent uniform
        # instants.  Gaps are exponential-like, while the offered load per
        # slice is the same for every seed, so goodput is comparable.
        per_second = int(shape.open_rate)
        due = np.sort(np.concatenate([
            k + rng.random(per_second) for k in range(int(horizon_s) + 1)
        ]))
        due = due[due < horizon_s]
        ranks = np.arange(1, shape.views + 1, dtype=float)
        weights = ranks ** -shape.zipf
        weights /= weights.sum()
        # Which ranks share a slice is the same for every seed: rank r
        # shares with rank r + PARTNER_GAP.  An op is slow (an INVALIDATE
        # round, ~6 ms against ~1 ms) when the sharer used the slice last,
        # so the sharing pattern sets the slow share of ops.  A seeded
        # shuffle moved it between 17 and 23 % and p90 with it (run-to-run
        # spread 0.17); hottest-with-next-hottest makes it 50 % and p50
        # flips between the two modes (0.28); a gap of 16 makes it ~30 %
        # and p50 the fast mode's upper tail (0.15).  At 32 it is ~25 %:
        # every seed's p50 is a fast op and its p90 a slow one (0.09, 0.10).
        block, i = np.divmod(np.arange(shape.views), shape.group * PARTNER_GAP)
        view_of_rank = (shape.group * (block * PARTNER_GAP + i % PARTNER_GAP)
                        + i // PARTNER_GAP)
        inputs.arrival_s = due.tolist()
        inputs.arrival_view = view_of_rank[
            rng.choice(shape.views, size=len(due), p=weights)
        ].tolist()
    return inputs
