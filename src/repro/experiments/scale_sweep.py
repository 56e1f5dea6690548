"""Connection-scale sweep: concurrent cache managers vs transport plane.

The paper's dynamic-reconfiguration story only matters at scale if the
wire layer can hold thousands of concurrent cache-manager connections.
This sweep ramps the CM count (100 → 1k → 10k) over the socket backend,
:class:`~repro.net.aio_transport.AioTcpTransport`, and measures, in
wall-clock time on one box:

- **max sustainable CMs** — the largest ramp point the backend
  completes with zero protocol errors and the exact serializable end
  state inside the point's time budget.
- **p99 acquire latency** — wall seconds from ``start_use_image`` to
  grant for each CM's initial strong-mode acquire (all N contend at
  once; the tail is dominated by directory queueing).
- **frames/sec and the coalesced-flush ratio** — how many wire frames
  the backend paid for the logical message load (the aio writer flushes
  adjacent messages in one drain and wraps them in one BATCH envelope).
- **peak send-queue depth / backpressure stalls** — the bounded-queue
  counters from :class:`~repro.net.stats.MessageStats`.

The workload is transport-focused by construction: every CM owns a
disjoint one-cell slice, so no conflict rounds serialize the run — the
directory does O(1) work per op and the observed limits belong to the
transport plane, not the coherence protocol (PR 6's shard sweep covers
contention).  Each CM runs a view script, stepped on the loop thread
— no per-CM driver threads, so the harness itself stays off the
resource ceilings it is measuring.

One *directory-bound* point rides the sweep as well (PR 10): the
``aio+paired`` variant makes each adjacent pair of strong CMs share a
cell, so real revocation rounds contend across the fleet, and runs the
directory with ``concurrent_rounds=0`` — the conflict-aware scheduler
overlapping independent pairs' rounds on real sockets.  It closes the
loop between the transport-plane numbers here and the bare-DM numbers
in ``BENCH_dmprofile.json``/``BENCH_dmsched.json``: the gate is
correctness (sustained, zero errors, exact end state under contention),
and the point is excluded from the max-sustainable figure.

The ``--check`` gate also replays one deterministic Fig-4-style
workload (:func:`repro.testing.two_view_run`) on sim and on sockets and
requires both to reproduce the frozen :data:`GOLDEN_PARITY` census and
end state — the last run that also carried the since-deleted
thread-per-connection backend.

``python -m repro.experiments.scale_sweep`` writes ``BENCH_scale.json``;
``--full`` adds the 10k point (manual/nightly — several minutes on one
core).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.system import FleccSystem, run_view_script
from repro.experiments.report import Table, percentile
from repro.experiments.runner import (
    Experiment,
    Param,
    ShardSpec,
    capped_ramp,
    cli,
    point_doc,
)
from repro.net.aio_transport import AioTcpTransport
from repro.net.message import reset_message_ids
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
    two_view_run,
)

#: CM-count ramp; the 10k point rides only behind ``--full``.
DEFAULT_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000)
FULL_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000, 10000)

#: The directory-bound contention variant makes CM pairs share a cell
#: and runs the directory's concurrent round scheduler unbounded.  One
#: such point rides the sweep at the ramp's smallest size.
PAIRED_SPEC = "aio+paired"

#: Message census and end state of the parity workload as sim, the
#: thread-per-connection TCP backend and asyncio TCP all produced them
#: (``BENCH_scale.json`` at PR 12, the last three-way run).  Frozen
#: here so the deleted backend's evidence still gates the survivors.
GOLDEN_PARITY: Dict[str, Dict[str, int]] = {
    "state": {"a": 99, "b": 21},
    "by_type": {
        "REGISTER": 2, "REGISTER_ACK": 2, "INIT_REQ": 2, "INIT_DATA": 2,
        "PUSH": 1, "PUSH_ACK": 1, "UNREGISTER": 2, "UNREGISTER_ACK": 2,
        "ACQUIRE": 1, "GRANT": 1,
    },
}


def _cell(i: int) -> str:
    return f"cell{i:05d}"


def point_budget(n_cms: int, cycles: int) -> float:
    """Wall-clock budget for one point (seconds).

    Per-op cost grows with the fleet (the directory's conflict
    bookkeeping is O(#views) per op), so the budget is quadratic in N —
    calibrated on a 1-core box at 13 s for 1k CMs and 190 s for 3k CMs
    (x 2 cycles) on aio.  Floor 60 s absorbs cold-start noise at the
    small points; cap 600 s bounds a wedged backend."""
    return min(600.0, max(60.0, 6e-6 * n_cms * n_cms * (cycles + 2)))


@dataclass
class ScalePoint:
    """One (transport, CM count) measurement."""

    transport: str
    n_cms: int
    cycles: int
    completed: bool                # all CMs finished inside the budget
    sustainable: bool              # completed and zero errors
    reason: str                    # why not sustainable ("" when it is)
    budget_s: float
    elapsed_s: float
    errors: int
    acquire_p50_s: float           # wall seconds, initial strong acquire
    acquire_p99_s: float
    messages: int                  # logical sends (Fig-4 counting)
    frames: int                    # codec encodes = wire frames paid for
    messages_per_sec: float
    frames_per_sec: float
    coalesced_ratio: float         # messages riding a shared flush / all
    send_queue_hwm: int
    backpressure_stalls: int


def _cm_script(cm, agent: Agent, cell: str, cycles: int, latencies: List[float]):
    """start → init → [cycles x (acquire → mutate → release → push)] → kill."""
    yield cm.start()
    yield cm.init_image()
    for cycle in range(cycles):
        t0 = time.monotonic()
        yield cm.start_use_image()
        if cycle == 0:
            # Only the initial start_use pays a wire acquire (the owner
            # token is retained on a conflict-free slice); that is the
            # latency the ramp is measuring.
            latencies.append(time.monotonic() - t0)
        agent.local[cell] = agent.local.get(cell, 0) + 1
        cm.end_use_image()
        yield cm.push_image()
    yield cm.kill_image()


def _run_point(spec: str, n_cms: int, cycles: int) -> ScalePoint:
    paired = spec == PAIRED_SPEC
    if paired:
        n_cms -= n_cms % 2  # pairs need an even fleet
    reset_message_ids()
    budget = point_budget(n_cms, cycles)
    # Queue bound sized to the fleet: the benchmark's interest is
    # steady-state flow, not refusing the initial registration burst.
    # wrap_batches: the sweep reports the coalesced-frame economics,
    # and Fig-4 counts are unaffected by construction.
    transport = AioTcpTransport(max_queue=2 * n_cms + 1024, wrap_batches=True)
    n_cells = n_cms // 2 if paired else n_cms
    store = Store({_cell(i): 0 for i in range(n_cells)})
    # The paired point is the directory-bound leg: unbounded concurrent
    # rounds, so independent pairs' revocation rounds overlap.  The
    # other points keep the directory's own (serial) default.
    scheduler = {"concurrent_rounds": 0} if paired else {}
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells, **scheduler,
    )
    latencies: List[float] = []
    scripts = []
    for i in range(n_cms):
        # Paired variant: CMs 2k and 2k+1 share cell k, so strong-mode
        # acquires contend within each pair (real revocation rounds)
        # while pairs stay mutually independent.
        cell = _cell(i // 2) if paired else _cell(i)
        agent = Agent()
        cm = system.add_view(
            f"cm{i:05d}", agent, props_for([cell]),
            extract_from_view, merge_into_view, mode="strong",
        )
        scripts.append(_cm_script(cm, agent, cell, cycles, latencies))
    t0 = time.monotonic()
    deadline = t0 + budget
    handles = [run_view_script(transport, script) for script in scripts]
    failed = unfinished = 0
    for handle in handles:
        try:
            handle.result(max(0.0, deadline - time.monotonic()))
        except Exception:  # counted, not raised
            if handle.done:
                failed += 1
            else:
                unfinished += 1
    elapsed = time.monotonic() - t0
    completed = unfinished == 0
    stats = transport.stats
    n_errors = failed + len(transport.handler_errors)
    wrong_cells = 0
    if completed and not n_errors:
        # Paired cells absorb both partners' increments; strong-mode
        # serializability makes the sum exact either way.
        expected = cycles * (2 if paired else 1)
        wrong_cells = sum(
            1 for i in range(n_cells) if store.cells[_cell(i)] != expected
        )
    system.close()
    transport.close()
    sustainable = completed and n_errors == 0 and wrong_cells == 0
    if sustainable:
        reason = ""
    elif not completed:
        reason = (
            f"{unfinished} of {n_cms} CMs unfinished after "
            f"{budget:.0f}s budget"
        )
    elif n_errors:
        reason = f"{n_errors} protocol/handler errors"
    else:
        reason = f"{wrong_cells} cells diverged from expected end state"
    return ScalePoint(
        transport=spec, n_cms=n_cms, cycles=cycles,
        completed=completed, sustainable=sustainable, reason=reason,
        budget_s=budget, elapsed_s=elapsed, errors=n_errors,
        acquire_p50_s=percentile(latencies, 0.50),
        acquire_p99_s=percentile(latencies, 0.99),
        messages=stats.total, frames=stats.encodes,
        messages_per_sec=stats.total / elapsed if elapsed else 0.0,
        frames_per_sec=stats.encodes / elapsed if elapsed else 0.0,
        coalesced_ratio=(
            stats.flushes_coalesced / stats.total if stats.total else 0.0
        ),
        send_queue_hwm=stats.send_queue_hwm,
        backpressure_stalls=stats.backpressure_stalls,
    )


# ---------------------------------------------------------------------------
# Transport parity
# ---------------------------------------------------------------------------

def transport_parity() -> Tuple[bool, bool, Dict[str, int]]:
    """sim and aio on the parity workload, each against the golden.

    Returns (state_identical, counts_identical, sim's by_type)."""
    runs = [two_view_run(spec, weak_leaves_first=True) for spec in ("sim", "aio")]
    return (
        all(state == GOLDEN_PARITY["state"] for state, _ in runs),
        all(by_type == GOLDEN_PARITY["by_type"] for _, by_type in runs),
        runs[0][1],
    )


@dataclass
class ScaleSweepResult:
    points: List[ScalePoint] = field(default_factory=list)
    parity_state_identical: bool = True
    parity_counts_identical: bool = True
    parity_by_type: Dict[str, int] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table(
            [
                "transport", "CMs", "ok", "elapsed", "acq p50", "acq p99",
                "msg/s", "frames/s", "coalesced", "hwm", "reason",
            ],
            title="SCALE — concurrent CMs vs transport plane (wall clock)",
        )
        for p in self.points:
            t.add_row(
                p.transport, p.n_cms,
                "yes" if p.sustainable else "NO",
                f"{p.elapsed_s:.1f}", f"{p.acquire_p50_s:.3f}",
                f"{p.acquire_p99_s:.3f}", f"{p.messages_per_sec:.0f}",
                f"{p.frames_per_sec:.0f}", f"{p.coalesced_ratio:.2f}",
                p.send_queue_hwm, p.reason[:40],
            )
        return t


def sweep_points(
    ramp: Optional[Sequence[int]] = None,
    *,
    cycles: int,
    full: bool,
    max_cms: Optional[int],
    **_: Any,
) -> List[Tuple[str, int, int]]:
    """Picklable point descriptors: ``(transport, n_cms, cycles)`` over
    ``ramp``, or the default (``full``: the full) ramp capped at
    ``max_cms``.

    Includes the directory-bound ``aio+paired`` contention point at
    the ramp's smallest size (rounded down to an even fleet)."""
    if ramp is None:
        ramp = capped_ramp(FULL_RAMP if full else DEFAULT_RAMP, max_cms)
    points = [("aio", n, cycles) for n in ramp]
    if ramp:
        paired_n = min(ramp) - (min(ramp) % 2)
        if paired_n >= 2:
            points.append((PAIRED_SPEC, paired_n, cycles))
    return points


def run_sweep_point(point: Tuple[str, int, int], **_: Any) -> ScalePoint:
    return _run_point(*point)


def merge_scale_sweep(
    points: List[Tuple[str, int, int]], partials: List[ScalePoint], **_: Any
) -> ScaleSweepResult:
    result = ScaleSweepResult(points=list(partials))
    (
        result.parity_state_identical,
        result.parity_counts_identical,
        result.parity_by_type,
    ) = transport_parity()
    return result


def bench_payload(result: ScaleSweepResult) -> Dict[str, object]:
    """The ``BENCH_scale.json`` document for one sweep."""
    points = [
        point_doc(
            p, budget_s=1, elapsed_s=2, acquire_p50_s=4, acquire_p99_s=4,
            messages_per_sec=1, frames_per_sec=1, coalesced_ratio=4,
        )
        for p in result.points
    ]
    return {
        "description": (
            "Connection-scale sweep: concurrent cache managers vs "
            "transport plane (asyncio event loop), wall clock on one box"
        ),
        "command": "python -m repro.experiments.scale_sweep --full",
        "ramp_top": max((p["n_cms"] for p in points), default=0),
        "aio_max_sustainable_cms": max(
            (p["n_cms"] for p in points
             if p["transport"] == "aio" and p["sustainable"]),
            default=0,
        ),
        "parity_state_identical": result.parity_state_identical,
        "parity_counts_identical": result.parity_counts_identical,
        "parity_by_type": dict(result.parity_by_type),
        "points": points,
    }


def gates(payload: Dict[str, Any]) -> List[str]:
    """The sweep's acceptance gates; returns a list of violations.

    Every point up to the default ramp's top must be sustainable —
    completed inside its budget with zero errors and the exact
    serializable end state — the directory-bound paired point included
    (real revocation rounds under the concurrent scheduler).  The
    ``--full`` 10k point is deliberately not a gate: it records how far
    this box gets, and on a small box the directory plane (not the
    transport) is what gives out first."""
    problems = []
    if not payload["parity_state_identical"]:
        problems.append(
            "sim/aio end states differ from the golden on the parity workload"
        )
    if not payload["parity_counts_identical"]:
        problems.append(
            "sim/aio Fig-4 message counts differ from the golden on the "
            "parity workload"
        )
    for p in payload["points"]:
        if p["n_cms"] <= DEFAULT_RAMP[-1] and not p["sustainable"]:
            problems.append(
                f"{p['transport']} point ({p['n_cms']} CMs) not "
                f"sustainable: {p['reason']}"
            )
    return problems


EXPERIMENT = Experiment(
    "scale_sweep", ShardSpec(sweep_points, run_sweep_point, merge_scale_sweep),
    params=(
        Param("--full", False,
              "include the 10k-CM point (manual/nightly; minutes on one core)"),
        Param("--max-cms", None,
              "cap the ramp at N CMs (CI smoke uses ~500); N itself is the "
              "top point"),
        Param("--cycles", 2),
    ),
    summarize=bench_payload, gates=gates, out="BENCH_scale.json",
)
run_scale_sweep = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
