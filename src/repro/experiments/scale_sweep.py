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
contention).  Each CM runs an event-driven script chained through
``Completion.then`` — no per-CM driver threads, so the harness itself
stays off the resource ceilings it is measuring.

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
workload on sim and on sockets and requires both to reproduce the
frozen :data:`GOLDEN_PARITY` census and end state — the last run that
also carried the since-deleted thread-per-connection backend.

``python -m repro.experiments.scale_sweep`` writes ``BENCH_scale.json``;
``--full`` adds the 10k point (manual/nightly — several minutes on one
core).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.system import FleccSystem, run_all_scripts
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
from repro.net.transport import resolve_transport
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


class _CmDriver:
    """One CM's event-driven lifecycle, chained through ``then``.

    start → init → [cycles x (acquire → mutate → release → push)] →
    kill.  Every callback is exception-fenced into ``on_done`` so a
    protocol failure is counted, never silently swallowed by the
    resolving thread.
    """

    def __init__(
        self,
        system: FleccSystem,
        index: int,
        cycles: int,
        lock: threading.Lock,
        acquire_latencies: List[float],
        on_done,
        paired: bool = False,
    ) -> None:
        self.agent = Agent()
        # Paired variant: CMs 2k and 2k+1 share cell k, so strong-mode
        # acquires contend within each pair (real revocation rounds)
        # while pairs stay mutually independent.
        self.cell = _cell(index // 2) if paired else _cell(index)
        self.cm = system.add_view(
            f"cm{index:05d}", self.agent, props_for([self.cell]),
            extract_from_view, merge_into_view, mode="strong",
        )
        self.cycles = cycles
        self.cycle = 0
        self._lock = lock
        self._latencies = acquire_latencies
        self._on_done = on_done
        self._t0 = 0.0

    def begin(self) -> None:
        try:
            self.cm.start().then(self._started)
        except BaseException as exc:  # noqa: BLE001 - funnel to counter
            self._on_done(exc)

    def _step(self, comp, next_step) -> None:
        try:
            comp.value
            next_step()
        except BaseException as exc:  # noqa: BLE001
            self._on_done(exc)

    def _started(self, comp) -> None:
        self._step(comp, lambda: self.cm.init_image().then(self._inited))

    def _inited(self, comp) -> None:
        self._step(comp, self._acquire)

    def _acquire(self) -> None:
        self._t0 = time.monotonic()
        self.cm.start_use_image().then(self._granted)

    def _granted(self, comp) -> None:
        def use() -> None:
            if self.cycle == 0:
                # Only the initial start_use pays a wire acquire (the
                # owner token is retained on a conflict-free slice);
                # that is the latency the ramp is measuring.
                dt = time.monotonic() - self._t0
                with self._lock:
                    self._latencies.append(dt)
            self.agent.local[self.cell] = self.agent.local.get(self.cell, 0) + 1
            self.cm.end_use_image()
            self.cm.push_image().then(self._pushed)

        self._step(comp, use)

    def _pushed(self, comp) -> None:
        def advance() -> None:
            self.cycle += 1
            if self.cycle < self.cycles:
                self._acquire()
            else:
                self.cm.kill_image().then(self._killed)

        self._step(comp, advance)

    def _killed(self, comp) -> None:
        self._step(comp, lambda: self._on_done(None))


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
    lock = threading.Lock()
    done = threading.Event()
    remaining = [n_cms]
    errors: List[BaseException] = []
    latencies: List[float] = []

    def on_done(err: Optional[BaseException]) -> None:
        with lock:
            if err is not None:
                errors.append(err)
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

    drivers = [
        _CmDriver(system, i, cycles, lock, latencies, on_done, paired=paired)
        for i in range(n_cms)
    ]
    t0 = time.monotonic()
    for d in drivers:
        d.begin()
    completed = done.wait(budget)
    elapsed = time.monotonic() - t0
    stats = transport.stats
    n_errors = len(errors) + len(transport.handler_errors)
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
            f"{remaining[0]} of {n_cms} CMs unfinished after "
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

def _parity_run(spec: str) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One deterministic workload on one backend: (end state, by_type).

    Two single-actor phases run back to back (a weak lifecycle, then a
    strong one), so message counts cannot depend on wall-clock races —
    the property that makes count parity assertable on real sockets.
    """
    reset_message_ids()
    transport = resolve_transport(spec)
    store = Store({"a": 10, "b": 20})
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells,
    )
    weak_agent, strong_agent = Agent(), Agent()
    weak = system.add_view(
        "weak-view", weak_agent, props_for(["a"]),
        extract_from_view, merge_into_view, mode="weak",
    )
    strong = system.add_view(
        "strong-view", strong_agent, props_for(["a", "b"]),
        extract_from_view, merge_into_view, mode="strong",
    )

    def weak_script():
        yield weak.start()
        yield weak.init_image()
        yield weak.start_use_image()
        weak_agent.local["a"] = 99
        weak.end_use_image()
        yield weak.push_image()
        yield weak.kill_image()

    def strong_script():
        yield strong.start()
        yield strong.init_image()
        yield strong.start_use_image()
        strong_agent.local["b"] = strong_agent.local.get("b", 0) + 1
        strong.end_use_image()
        yield strong.kill_image()

    run_all_scripts(transport, [weak_script()])
    run_all_scripts(transport, [strong_script()])
    state = dict(store.cells)
    by_type = dict(transport.stats.by_type)
    system.close()
    transport.close()
    return state, by_type


def transport_parity() -> Tuple[bool, bool, Dict[str, int]]:
    """sim and aio on the parity workload, each against the golden.

    Returns (state_identical, counts_identical, sim's by_type)."""
    runs = [_parity_run(spec) for spec in ("sim", "aio")]
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
    ramp: Sequence[int] = DEFAULT_RAMP, cycles: int = 2
) -> List[Tuple[str, int, int]]:
    """Picklable point descriptors: ``(transport, n_cms, cycles)``.

    Includes the directory-bound ``aio+paired`` contention point at
    the ramp's smallest size (rounded down to an even fleet)."""
    points = [("aio", n, cycles) for n in ramp]
    if ramp:
        paired_n = min(ramp) - (min(ramp) % 2)
        if paired_n >= 2:
            points.append((PAIRED_SPEC, paired_n, cycles))
    return points


def run_sweep_point(
    point: Tuple[str, int, int], seed: Optional[int] = None
) -> ScalePoint:
    spec, n_cms, cycles = point
    return _run_point(spec, n_cms, cycles)


def merge_scale_sweep(
    points: List[Tuple[str, int, int]],
    partials: List[ScalePoint],
    seed: Optional[int] = None,
) -> ScaleSweepResult:
    result = ScaleSweepResult(points=list(partials))
    (
        result.parity_state_identical,
        result.parity_counts_identical,
        result.parity_by_type,
    ) = transport_parity()
    return result


def run_scale_sweep(
    ramp: Optional[Sequence[int]] = None,
    cycles: int = 2,
    full: bool = False,
    max_cms: Optional[int] = None,
) -> ScaleSweepResult:
    if ramp is None:
        ramp = capped_ramp(FULL_RAMP if full else DEFAULT_RAMP, max_cms)
    points = sweep_points(ramp, cycles)
    return merge_scale_sweep(points, [run_sweep_point(p) for p in points])


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
    "scale_sweep", run_scale_sweep,
    params=(
        Param("--full", False,
              "include the 10k-CM point (manual/nightly; minutes on one core)"),
        Param("--max-cms", None,
              "cap the ramp at N CMs (CI smoke uses ~500); N itself is the "
              "top point"),
        Param("--cycles", 2),
    ),
    shard=ShardSpec(sweep_points, run_sweep_point, merge_scale_sweep),
    summarize=bench_payload, gates=gates, out="BENCH_scale.json",
)

if __name__ == "__main__":
    cli(EXPERIMENT)
