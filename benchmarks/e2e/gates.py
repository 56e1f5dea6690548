"""Correctness gates: each returns the list of violations it found."""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from .driver import Load
from .spec import CAPACITY
from .stack import Stack

BARRIER_TIMEOUT_S = 30.0


def _sold_by_flight(load: Load) -> Tuple[Dict[str, int], Dict[str, int]]:
    sold: Dict[str, int] = {}
    unsure: Dict[str, int] = {}
    for view in load.views:
        for flight, n, u in zip(view.flights, view.sold, view.unsure):
            sold[flight] = sold.get(flight, 0) + n
            unsure[flight] = unsure.get(flight, 0) + u
    return sold, unsure


def check_plane(stack: Stack) -> List[str]:
    """Protocol health, any mode: invariants, handler errors, quarantine."""
    problems = []
    try:
        stack.system.directory.check_invariants()
    except Exception as exc:  # noqa: BLE001 - the gate reports it
        problems.append(f"check_invariants: {exc}")
    errors = stack.handler_errors()
    if errors:
        problems.append(f"{len(errors)} handler errors, first: {errors[0]!r}")
    if stack.quarantined():
        problems.append(f"quarantined views: {stack.quarantined()[:5]}")
    return problems


def check_strong(stack: Stack, load: Load) -> List[str]:
    """Seats sold by acked ops == seats gone from the primary copy.

    An op whose push was not acked may or may not have committed, so
    each such op widens that flight's accepted range by one."""
    problems = check_plane(stack)
    sold, unsure = _sold_by_flight(load)
    for number, flight in stack.db.flights.items():
        gone = CAPACITY - flight.seats_available
        low = sold.get(number, 0)
        if not low <= gone <= low + unsure.get(number, 0):
            problems.append(
                f"{number}: primary copy lost {gone} seats, acked ops sold "
                f"{low} (+{unsure.get(number, 0)} unacked)"
            )
    return problems


def check_weak(stack: Stack, load: Load) -> List[str]:
    """Seats never increase, and after a final push + pull barrier every
    view holds exactly the primary copy's cells for its slice."""
    problems = check_plane(stack)
    if load.seat_increases:
        problems.append(f"{load.seat_increases} ops saw a flight gain seats")
    problems += stack.each_view(lambda cm: cm.push_image(), BARRIER_TIMEOUT_S)
    problems += stack.each_view(lambda cm: cm.pull_image(), BARRIER_TIMEOUT_S)
    sold, unsure = _sold_by_flight(load)
    for number, flight in stack.db.flights.items():
        gone = CAPACITY - flight.seats_available
        # Equal concurrent decrements collapse under the min-resolver,
        # so acked sales bound the primary copy's loss from above only.
        top = sold.get(number, 0) + unsure.get(number, 0)
        if not (0 <= gone <= top and (gone > 0 or sold.get(number, 0) == 0)):
            problems.append(f"{number}: lost {gone} seats, {top} were sold")
    for view in load.views:
        for number in view.flights:
            if view.agent.local[number].to_cell() != \
                    stack.db.flights[number].to_cell():
                problems.append(
                    f"{view.agent.agent_id} diverged on {number} after barrier"
                )
    return problems


def check_recovery(stack: Stack) -> Tuple[List[str], Dict[str, float]]:
    """Crash and restart every shard of a quiesced durable plane; the
    recovered primary copy must equal the pre-crash copy.  The copy is
    wiped in between, so every cell has to come back from disk."""
    plane = stack.system.plane
    for dm in plane.shards:
        dm.durability.sync()
    before = {n: f.to_cell() for n, f in stack.db.flights.items()}
    for shard in range(plane.n_shards):
        plane.crash_shard(shard)
    stack.db.flights.clear()
    t0 = time.perf_counter()
    for shard in range(plane.n_shards):
        plane.restart_shard(shard)
    recover_ms = (time.perf_counter() - t0) * 1e3
    after = {n: f.to_cell() for n, f in stack.db.flights.items()}
    problems = []
    if after != before:
        wrong = [n for n in before if after.get(n) != before[n]]
        problems.append(
            f"recovered primary copy differs on {len(wrong)} of "
            f"{len(before)} flights, e.g. {wrong[:3]}"
        )
    return problems, {
        "recover_ms": recover_ms,
        "cells_replayed": float(sum(
            dm.counters["cells_replayed"] for dm in plane.shards
        )),
    }
