"""Delta-synchronization sweep: wire bytes and latency vs the full-image path.

Sweeps view size × write locality over a two-view workload (one writer
committing ``dirty_per_round`` cells per round, one reader pulling once
per round) and runs every point twice on strict-wire simulated
transports: once with delta synchronization enabled (version-filtered
pulls) and once with ``delta=False`` (every serve ships the complete
property slice — the paper's baseline wire format).

What the A/B comparison must show:

- **wire win** — at low write locality (large view, few dirty cells)
  the per-pull PULL_DATA payload shrinks by the view/dirty ratio;
- **parity** — when every cell is dirty each delta necessarily carries
  the whole slice, so per-pull bytes match the full-image path to
  within the DeltaImage framing overhead;
- **identity** — the paper's Fig-4 logical message counts and the final
  component/view state are *identical* between the two runs: delta
  synchronization changes payload contents, never the protocol;
- **merged cells** — on both runs the views' merge hooks receive only
  the cells that differ from the view: each INIT's whole slice and each
  pull's written cells, never the whole slice again.

``python -m repro.experiments.delta_sweep`` writes ``BENCH_delta.json``;
``--check`` exits non-zero unless every gate of :func:`gates` holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import messages as M
from repro.core.system import FleccSystem, run_all_scripts
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, Param, cli, point_doc
from repro.net.message import Message
from repro.net.sim_transport import SimTransport
from repro.net.stats import MessageStats
from repro.sim.kernel import SimKernel
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


@dataclass
class DeltaPoint:
    """One sweep point: the same workload with delta on vs off."""

    n_cells: int
    dirty_per_round: int
    rounds: int
    pulls: int
    # Per-pull PULL_DATA payload bytes (encoded frame, strict wire).
    full_bytes_per_pull: float
    delta_bytes_per_pull: float
    bytes_reduction: float          # full / delta
    # Mean wall-clock per pull (request to applied), milliseconds.
    full_latency_ms: float
    delta_latency_ms: float
    # Image accounting from the delta run.
    images_full: int
    images_delta: int
    cells_sent: int
    cells_skipped: int
    delta_serves: int
    slice_index_hits: int
    # Cells the two views' merge hooks received, per run.
    full_merged_cells: int
    delta_merged_cells: int
    # Invariants: both runs end in the same place via the same messages.
    state_identical: bool
    messages_identical: bool


@dataclass
class DeltaSweepResult:
    points: List[DeltaPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            [
                "cells", "dirty/round", "bytes/pull full", "bytes/pull delta",
                "reduction", "lat full ms", "lat delta ms", "identical",
            ],
            title="DELTA — pull payload bytes and latency, delta vs full images",
        )
        for p in self.points:
            t.add_row(
                p.n_cells, p.dirty_per_round,
                f"{p.full_bytes_per_pull:.0f}", f"{p.delta_bytes_per_pull:.0f}",
                f"{p.bytes_reduction:.1f}x",
                f"{p.full_latency_ms:.3f}", f"{p.delta_latency_ms:.3f}",
                p.state_identical and p.messages_identical,
            )
        return t


@dataclass
class StoreRun:
    """What one writer/reader run left behind."""

    store: Store
    reader_agent: Agent
    stats: MessageStats
    counters: Dict[str, int]        # the directory's
    pull_wall: List[float]          # wall seconds around each pull
    captured: List[Message]         # every message sent, with ``capture``
    merged_cells: int               # cells both views' merge hooks received


def run_store_workload(
    n_cells: int,
    dirty_per_round: int,
    rounds: int,
    delta: bool,
    codec: Optional[str] = None,
    capture: bool = False,
) -> StoreRun:
    """One serial run; returns final state and wire/latency measurements.

    The writer commits ``dirty_per_round`` rotating cells per round and
    the reader pulls once per round, offset into the writer's quiet
    period so the wall time around each ``pull_image`` measures the
    serve path (extract, encode, decode, apply) and nothing else.
    ``codec`` picks the wire codec (the transport's default when
    ``None``); the wire sweep runs this same workload per codec.
    """
    kernel = SimKernel()
    captured: List[Message] = []
    fault_policy = None
    if capture:
        def fault_policy(msg: Message) -> str:
            captured.append(msg)
            return "deliver"

    transport = SimTransport(
        kernel,
        default_latency=1.0,
        strict_wire=True,
        fault_policy=fault_policy,
        codec=codec,
    )
    store = Store({f"c{i:04d}": i for i in range(n_cells)})
    system = FleccSystem(
        transport,
        store,
        extract_from_object,
        merge_into_object,
        delta=delta,
        extract_cells=extract_cells,
    )
    keys = sorted(store.cells)
    merged_cells = 0

    def counted_merge(agent, image, props):
        nonlocal merged_cells
        merged_cells += len(image)
        merge_into_view(agent, image, props)

    writer_agent = Agent()
    writer = system.add_view(
        "writer", writer_agent, props_for(keys),
        extract_from_view, counted_merge,
    )
    reader_agent = Agent()
    reader = system.add_view(
        "reader", reader_agent, props_for(keys),
        extract_from_view, counted_merge,
    )
    pull_wall: List[float] = []
    period = 10.0

    def writer_script():
        yield writer.start()
        yield writer.init_image()
        for r in range(rounds):
            yield writer.start_use_image()
            for j in range(dirty_per_round):
                key = keys[(r * dirty_per_round + j) % n_cells]
                writer_agent.local[key] = (r + 1) * 1_000_000 + j
            writer.end_use_image()
            yield writer.push_image()
            yield ("sleep", period)
        yield writer.kill_image()

    def reader_script():
        yield reader.start()
        yield reader.init_image()
        yield ("sleep", period / 2.0)  # land in the writer's quiet window
        for _ in range(rounds):
            t0 = time.perf_counter()
            yield reader.pull_image()
            pull_wall.append(time.perf_counter() - t0)
            yield ("sleep", period)
        yield reader.kill_image()

    run_all_scripts(transport, [writer_script(), reader_script()])
    return StoreRun(
        store, reader_agent, transport.stats, system.directory.counters,
        pull_wall, captured, merged_cells,
    )


def _mean_ms(samples: List[float]) -> float:
    return (sum(samples) / len(samples)) * 1000.0 if samples else 0.0


def run_delta_sweep(
    sweep: Sequence[Tuple[int, int]] = ((64, 64), (256, 8), (512, 4), (512, 512)),
    rounds: int = 5,
) -> DeltaSweepResult:
    """A/B every sweep point: ``(n_cells, dirty_per_round)`` pairs."""
    result = DeltaSweepResult()
    for n_cells, dirty in sweep:
        full = run_store_workload(n_cells, dirty, rounds, delta=False)
        dlt = run_store_workload(n_cells, dirty, rounds, delta=True)
        pulls = dlt.stats.by_type.get(M.PULL_DATA, 0)
        full_per_pull = (
            full.stats.bytes_by_type.get(M.PULL_DATA, 0) / pulls if pulls else 0.0
        )
        delta_per_pull = (
            dlt.stats.bytes_by_type.get(M.PULL_DATA, 0) / pulls if pulls else 0.0
        )
        result.points.append(
            DeltaPoint(
                n_cells=n_cells,
                dirty_per_round=dirty,
                rounds=rounds,
                pulls=pulls,
                full_bytes_per_pull=full_per_pull,
                delta_bytes_per_pull=delta_per_pull,
                bytes_reduction=(
                    full_per_pull / delta_per_pull if delta_per_pull else 0.0
                ),
                full_latency_ms=_mean_ms(full.pull_wall),
                delta_latency_ms=_mean_ms(dlt.pull_wall),
                images_full=dlt.stats.images_full,
                images_delta=dlt.stats.images_delta,
                cells_sent=dlt.stats.cells_sent,
                cells_skipped=dlt.stats.cells_skipped,
                delta_serves=dlt.counters["delta_serves"],
                slice_index_hits=dlt.counters["slice_index_hits"],
                full_merged_cells=full.merged_cells,
                delta_merged_cells=dlt.merged_cells,
                state_identical=(
                    full.store.cells == dlt.store.cells
                    and full.reader_agent.local == dlt.reader_agent.local
                ),
                messages_identical=full.stats.by_type == dlt.stats.by_type,
            )
        )
    return result


def bench_payload(result: DeltaSweepResult) -> Dict[str, object]:
    """The ``BENCH_delta.json`` document for one sweep."""
    low_locality = max(
        result.points, key=lambda p: p.n_cells / max(1, p.dirty_per_round)
    )
    all_dirty = [p for p in result.points if p.dirty_per_round >= p.n_cells]
    parity = all_dirty[-1] if all_dirty else None
    return {
        "description": (
            "Delta synchronization sweep: per-pull PULL_DATA payload bytes "
            "and latency, version-filtered delta images vs full slice images"
        ),
        "command": "python -m repro.experiments.delta_sweep",
        "low_locality_bytes_reduction": round(low_locality.bytes_reduction, 2),
        "all_dirty_bytes_ratio": (
            round(parity.delta_bytes_per_pull / parity.full_bytes_per_pull, 4)
            if parity and parity.full_bytes_per_pull else None
        ),
        "all_points_state_identical": all(p.state_identical for p in result.points),
        "all_points_messages_identical": all(
            p.messages_identical for p in result.points
        ),
        "points": [
            point_doc(
                p, full_bytes_per_pull=1, delta_bytes_per_pull=1,
                bytes_reduction=2, full_latency_ms=4, delta_latency_ms=4,
            )
            for p in result.points
        ],
    }


#: The wire win the low-locality point must show (full / delta bytes
#: per pull) and the all-dirty point's allowed distance from parity.
MIN_LOW_LOCALITY_REDUCTION = 5.0
ALL_DIRTY_TOLERANCE = 0.05


def gates(payload: Dict[str, Any]) -> List[str]:
    """The gates ``--check`` arms; returns a list of violations.

    Bytes and message counts come from a deterministic simulated run,
    so there is no noise to allow for: the low-locality point must
    shrink its pulls by :data:`MIN_LOW_LOCALITY_REDUCTION`, an all-dirty
    delta must cost what the full image costs, every pull must have
    been served as a delta, no point may differ from its full-image
    twin in end state or logical message counts, and on both runs the
    merge hooks may receive only the cells that differ: the two INITs'
    slices plus each round's written cells (``2·n_cells + rounds·dirty``;
    a whole-slice merge per pull reads ``(2 + rounds)·n_cells``).
    """
    problems: List[str] = []
    reduction = payload["low_locality_bytes_reduction"]
    if reduction < MIN_LOW_LOCALITY_REDUCTION:
        problems.append(
            f"low-locality pulls shrank only {reduction}x "
            f"(need >= {MIN_LOW_LOCALITY_REDUCTION}x)"
        )
    ratio = payload["all_dirty_bytes_ratio"]
    if ratio is None:
        problems.append("no all-dirty point to gate delta/full parity on")
    elif abs(ratio - 1.0) > ALL_DIRTY_TOLERANCE:
        problems.append(
            f"all-dirty delta/full bytes per pull {ratio} "
            f"(need within 1 +- {ALL_DIRTY_TOLERANCE})"
        )
    for p in payload["points"]:
        point = f"{p['n_cells']} cells / {p['dirty_per_round']} dirty"
        if not p["state_identical"]:
            problems.append(f"{point}: end state differs from the full-image run")
        if not p["messages_identical"]:
            problems.append(
                f"{point}: logical message counts differ from the "
                f"full-image run"
            )
        if not p["pulls"] == p["rounds"] == p["images_delta"] == p["delta_serves"]:
            problems.append(
                f"{point}: {p['images_delta']} of {p['pulls']} pulls "
                f"({p['rounds']} rounds) served as deltas"
            )
        expected = 2 * p["n_cells"] + p["rounds"] * p["dirty_per_round"]
        if not p["full_merged_cells"] == p["delta_merged_cells"] == expected:
            problems.append(
                f"{point}: merge hooks received {p['full_merged_cells']} "
                f"(full) / {p['delta_merged_cells']} (delta) cells "
                f"(need {expected}, the cells that differ)"
            )
    return problems


EXPERIMENT = Experiment(
    "delta_sweep", run_delta_sweep, params=(Param("--rounds", 5),),
    summarize=bench_payload, gates=gates, out="BENCH_delta.json",
)

if __name__ == "__main__":
    cli(EXPERIMENT)
