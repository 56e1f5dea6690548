"""Sharded-directory sweep: conflict-round throughput vs shard count.

Runs the same contended workload — per group, a strong writer
ping-ponging ownership against a weak reader's pulls — against a
:class:`~repro.core.sharding.ShardedDirectoryPlane` at N ∈ {1, 2, 4, 8}
shards and measures, in *simulated* time on a strict-wire transport:

- **aggregate round throughput** — completed directory operations
  (acquires + pulls, each forcing a conflict round) per simulated
  second across the whole plane;
- **acquire latency** — p50/p99 from ``start_use_image`` to grant,
  including directory queueing delay.

Two workload shapes bracket the design space:

- **shard-local** — each group of views serves its own run of adjacent
  cells.  The plane is built with *no partitioner*: its default
  order-preserving placement cuts the 64 cells into N equal ranges, a
  group's run falls inside one of them, and the router forwards the
  group's traffic to that shard.  Each shard serializes only its own
  groups' rounds, so throughput scales with N; this is the point of
  the sharded plane.
- **all-spanning (worst case)** — every view's property set covers the
  whole key space, so every acquire takes all N shards, one at a time
  in ascending index, and every pull fans out to all N and waits on the
  merge barrier.  No parallelism is available, and an acquire costs one
  hop per shard, so N > 1 is slower than one shard.  This leg is given
  the equal-count cut explicitly: a plane that places keys itself
  re-cuts it off the footprints at the first data request, and would
  put every spanning view on one shard.

The ``--check`` gate also replays a mixed-mode Fig-4-style workload on
the unsharded :class:`~repro.core.system.FleccSystem` and on the plane
at N=1 and requires byte-for-byte message parity: one shard must be the
identity configuration.  An **airline leg** carries the shard-local
claim over to a real application's property set: Fig 4's travel agents
(``make_agent_groups(16, 8)``, property ``Flights``) on
``build_airline_system(n_shards=4)`` with no partitioner must never fan
out and must exchange the unsharded system's messages, type for type.

``python -m repro.experiments.shard_sweep`` writes ``BENCH_shard.json``;
``--check`` exits non-zero unless every gate of :func:`gates` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.travel_agent import lifecycle
from repro.apps.airline.workload import (
    generate_flight_database,
    make_agent_groups,
    reserve_operations,
)
from repro.core.system import FleccSystem, run_all_scripts
from repro.core.sharding import KeyRangePartitioner, ShardedFleccSystem
from repro.experiments.report import Table, percentile
from repro.experiments.runner import Experiment, Param, ShardSpec, cli, point_doc
from repro.net.message import reset_message_ids
from repro.net.sim_transport import SimTransport
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

# 8 groups x 8 cells; group g's cells live in exactly one shard for
# every N in {1, 2, 4, 8}: the default placement cuts the 64 sorted
# cells into N equal ranges, each a union of whole groups.
N_GROUPS = 8
CELLS_PER_GROUP = 8
CELLS = [f"c{i:02d}" for i in range(N_GROUPS * CELLS_PER_GROUP)]

# Airline leg: 16 agents, the first 8 sharing one block of 5 flights.
# 60 flights over 4 shards is 15 a shard — three whole blocks — so no
# agent's block straddles an equal-count split point, and the
# footprint cut at the first data request keeps those split points.
AIRLINE_AGENTS, AIRLINE_CONFLICTING, AIRLINE_FLIGHTS = 16, 8, 60


def _group_cells(group: int) -> List[str]:
    lo = group * CELLS_PER_GROUP
    return CELLS[lo:lo + CELLS_PER_GROUP]


@dataclass
class ShardPoint:
    """One sweep point: a workload shape at one shard count."""

    workload: str                  # "shard-local" | "spanning"
    n_shards: int
    views: int
    rounds_per_view: int
    ops: int                       # completed acquires + pulls
    makespan: float                # simulated time to drain all scripts
    rounds_per_sec: float          # completed ops / makespan
    acquire_p50: float             # simulated time, start_use -> grant
    acquire_p99: float
    plane_rounds: int              # per-shard DM conflict rounds, summed
    shard_local_rounds: int
    cross_shard_rounds: int
    router_fanouts: int            # an ordered ACQUIRE counts once


@dataclass
class AirlineLeg:
    """Fig 4's travel agents on a default 4-shard plane vs unsharded."""

    n_shards: int
    views: int
    router_fanouts: int
    shard_local_rounds: int
    whole_plane_views: int
    census: Dict[str, int]             # logical messages by type, sharded
    unsharded_census: Dict[str, int]   # the same script, one directory
    state_identical: bool              # final flight database


@dataclass
class ShardSweepResult:
    points: List[ShardPoint] = field(default_factory=list)
    # N=1 plane vs unsharded FleccSystem on the Fig-4-style workload.
    n1_state_identical: bool = True
    n1_messages_identical: bool = True
    airline: Optional[AirlineLeg] = None

    def table(self) -> Table:
        t = Table(
            [
                "workload", "shards", "views", "ops", "makespan",
                "rounds/s", "p50", "p99", "x-shard",
            ],
            title="SHARD — conflict-round throughput and acquire latency vs shard count",
        )
        for p in self.points:
            t.add_row(
                p.workload, p.n_shards, p.views, p.ops,
                f"{p.makespan:.1f}", f"{p.rounds_per_sec:.3f}",
                f"{p.acquire_p50:.1f}", f"{p.acquire_p99:.1f}",
                p.cross_shard_rounds,
            )
        return t


def _run_point(
    n_shards: int,
    spanning: bool,
    rounds: int,
    spanning_groups: int = 2,
) -> ShardPoint:
    """One workload run; all timing is simulated (strict wire, lat 1.0).

    Each group pairs a strong writer with a weak reader over the same
    cells: every ``pull_image`` must revoke the exclusive writer and
    every re-acquire must invalidate the reader's fresh copy, so *all*
    conflict work flows through the directory — no view can streak on a
    locally-retained owner token and bypass the serialization this
    sweep is measuring.  The spanning variant keeps the same pairing
    but gives every view the whole key space (fewer groups: all their
    rounds collide on every shard).
    """
    reset_message_ids()
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
    store = Store({c: 0 for c in CELLS})
    system = ShardedFleccSystem(
        transport, store, extract_from_object, merge_into_object,
        n_shards=n_shards,
        partitioner=(KeyRangePartitioner.from_keys(CELLS, n_shards)
                     if spanning else None),
        extract_cells=extract_cells,
    )
    latencies: List[float] = []
    ops = [0]
    sleep, stagger = 0.5, 0.3
    groups = spanning_groups if spanning else N_GROUPS
    scripts = []
    for g in range(groups):
        cells = CELLS if spanning else _group_cells(g)
        writer_agent, reader_agent = Agent(), Agent()
        writer = system.add_view(
            f"g{g}w", writer_agent, props_for(cells),
            extract_from_view, merge_into_view, mode="strong",
        )
        reader = system.add_view(
            f"g{g}r", reader_agent, props_for(cells),
            extract_from_view, merge_into_view, mode="weak",
        )

        def writer_script(cm=writer, agent=writer_agent, cells=cells, g=g):
            yield cm.start()
            yield cm.init_image()
            yield ("sleep", g * stagger)  # deterministic desync
            for _ in range(rounds):
                t0 = kernel.now
                yield cm.start_use_image()
                latencies.append(kernel.now - t0)
                ops[0] += 1
                for c in cells:
                    agent.local[c] = agent.local.get(c, 0) + 1
                cm.end_use_image()
                yield ("sleep", sleep)
            yield cm.kill_image()

        def reader_script(cm=reader, g=g):
            yield cm.start()
            yield cm.init_image()
            yield ("sleep", g * stagger + sleep / 2.0)
            for _ in range(rounds):
                yield cm.pull_image()
                ops[0] += 1
                yield ("sleep", sleep)
            yield cm.kill_image()

        scripts.append(writer_script())
        scripts.append(reader_script())
    run_all_scripts(system.transport, scripts)
    makespan = kernel.now
    counters = system.plane.counters
    system.close()
    return ShardPoint(
        n_shards=n_shards,
        workload="spanning" if spanning else "shard-local",
        views=2 * groups,
        rounds_per_view=rounds,
        ops=ops[0],
        makespan=makespan,
        rounds_per_sec=ops[0] / makespan if makespan else 0.0,
        acquire_p50=percentile(latencies, 0.50),
        acquire_p99=percentile(latencies, 0.99),
        plane_rounds=counters.get("rounds", 0),
        shard_local_rounds=counters.get("shard_local_rounds", 0),
        cross_shard_rounds=counters.get("cross_shard_rounds", 0),
        router_fanouts=counters.get("router_fanouts", 0),
    )


def _fig4_workload(system: Any, cells: List[str]) -> None:
    """A mixed-mode Fig-4-style workload on an already-built system."""
    writer_agent, reader_agent, late_agent = Agent(), Agent(), Agent()
    writer = system.add_view(
        "writer", writer_agent, props_for(cells),
        extract_from_view, merge_into_view, mode="strong",
    )
    reader = system.add_view(
        "reader", reader_agent, props_for(cells),
        extract_from_view, merge_into_view, mode="weak",
    )
    late = system.add_view(
        "late", late_agent, props_for(cells),
        extract_from_view, merge_into_view, mode="strong",
    )

    def writer_script():
        yield writer.start()
        yield writer.init_image()
        for _ in range(2):
            yield writer.start_use_image()
            for c in cells:
                writer_agent.local[c] = writer_agent.local.get(c, 0) + 1
            writer.end_use_image()
            yield ("sleep", 8.0)
        yield writer.kill_image()

    def reader_script():
        yield reader.start()
        yield reader.init_image()
        yield ("sleep", 30.0)
        yield reader.pull_image()
        reader_agent.local[cells[0]] += 100
        yield reader.push_image()
        yield reader.kill_image()

    def late_script():
        yield late.start()
        yield ("sleep", 12.0)
        yield late.init_image()
        yield late.start_use_image()
        late_agent.local[cells[-1]] = late_agent.local.get(cells[-1], 0) + 1000
        late.end_use_image()
        yield late.kill_image()

    run_all_scripts(system.transport, [writer_script(), reader_script(), late_script()])


def _n1_parity() -> Tuple[bool, bool]:
    """Plane at N=1 vs the unsharded builder: same state, same wire."""
    def run(sharded: bool):
        reset_message_ids()
        kernel = SimKernel()
        transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
        record: List[Tuple[str, str, str]] = []
        transport.fault_policy = (
            lambda msg: record.append((msg.msg_type, msg.src, msg.dst))
            or "deliver"
        )
        store = Store({f"c{i:02d}": i for i in range(8)})
        if sharded:
            system = ShardedFleccSystem(
                transport, store, extract_from_object, merge_into_object,
                n_shards=1, extract_cells=extract_cells,
            )
        else:
            system = FleccSystem(
                transport, store, extract_from_object, merge_into_object,
                extract_cells=extract_cells,
            )
        _fig4_workload(system, sorted(store.cells))
        system.close()
        return dict(store.cells), record, dict(transport.stats.bytes_by_type)

    base_state, base_record, base_bytes = run(sharded=False)
    plane_state, plane_record, plane_bytes = run(sharded=True)
    return (
        base_state == plane_state,
        base_record == plane_record and base_bytes == plane_bytes,
    )


def _airline_run(n_shards: int) -> Tuple[Dict[str, int], Dict[str, dict], Dict[str, int]]:
    """Fig 4's agents and script on ``build_airline_system(n_shards)``:
    (message census by type, final database cells, plane counters)."""
    reset_message_ids()
    database = generate_flight_database(AIRLINE_FLIGHTS, seed=0)
    airline = build_airline_system(database, n_shards=n_shards)
    scripts = []
    for i, served in enumerate(
        make_agent_groups(AIRLINE_AGENTS, AIRLINE_CONFLICTING)
    ):
        agent, cm = airline.add_travel_agent(f"ta-{i:03d}", served, mode="strong")
        ops = reserve_operations(served, 3, seed=0, agent_index=i)
        scripts.append(lifecycle(cm, agent, ops, think_time=1.0))
    run_all_scripts(airline.system.transport, scripts)
    counters = (
        dict(airline.system.plane.counters) if n_shards > 1 else {}
    )
    airline.system.close()
    cells = {n: f.to_cell() for n, f in database.flights.items()}
    return dict(sorted(airline.stats.by_type.items())), cells, counters


def run_airline_leg(n_shards: int = 4) -> AirlineLeg:
    base_census, base_cells, _ = _airline_run(1)
    census, cells, counters = _airline_run(n_shards)
    return AirlineLeg(
        n_shards=n_shards,
        views=AIRLINE_AGENTS,
        router_fanouts=counters["router_fanouts"],
        shard_local_rounds=counters["shard_local_rounds"],
        whole_plane_views=counters["whole_plane_views"],
        census=census,
        unsharded_census=base_census,
        state_identical=cells == base_cells,
    )


def sweep_points(
    rounds: int, shards: Sequence[int] = (1, 2, 4, 8), **_: Any
) -> List[Tuple[int, bool, int]]:
    """Picklable point descriptors: ``(n_shards, spanning, rounds)``,
    the shard-local workload at every shard count, then the spanning
    worst case (N=1 included: it anchors the ratio)."""
    return [
        (n, spanning, rounds) for spanning in (False, True) for n in shards
    ]


def run_sweep_point(point: Tuple[int, bool, int], **_: Any) -> ShardPoint:
    return _run_point(*point)


def merge_shard_sweep(
    points: List[Tuple[int, bool, int]],
    partials: List[ShardPoint],
    **_: Any,
) -> ShardSweepResult:
    result = ShardSweepResult(points=list(partials))
    result.n1_state_identical, result.n1_messages_identical = _n1_parity()
    result.airline = run_airline_leg()
    return result


def _point(result: ShardSweepResult, workload: str, n: int) -> Optional[ShardPoint]:
    for p in result.points:
        if p.workload == workload and p.n_shards == n:
            return p
    return None


def bench_payload(result: ShardSweepResult) -> Dict[str, object]:
    """The ``BENCH_shard.json`` document for one sweep."""
    local1 = _point(result, "shard-local", 1)
    local4 = _point(result, "shard-local", 4)
    span1 = _point(result, "spanning", 1)
    span4 = _point(result, "spanning", 4)
    speedup4 = (
        local4.rounds_per_sec / local1.rounds_per_sec
        if local1 and local4 and local1.rounds_per_sec else 0.0
    )
    spanning_ratio = (
        span4.rounds_per_sec / span1.rounds_per_sec
        if span1 and span4 and span1.rounds_per_sec else 0.0
    )
    return {
        "description": (
            "Sharded directory plane sweep: aggregate conflict-round "
            "throughput and acquire latency vs shard count, shard-local "
            "vs all-spanning workloads (simulated time, strict wire)"
        ),
        "command": "python -m repro.experiments.shard_sweep",
        "local_speedup_4_shards": round(speedup4, 2),
        "spanning_ratio_4_shards": round(spanning_ratio, 2),
        "n1_state_identical": result.n1_state_identical,
        "n1_messages_identical": result.n1_messages_identical,
        "points": [
            point_doc(
                p, makespan=2, rounds_per_sec=4, acquire_p50=2, acquire_p99=2
            )
            for p in result.points
        ],
        "airline": point_doc(result.airline),
    }


def gates(payload: Dict[str, object]) -> List[str]:
    """The PR's acceptance gates; returns a list of violations."""
    problems = []
    speedup = payload.get("local_speedup_4_shards") or 0.0
    if speedup < 2.0:
        problems.append(
            f"shard-local rounds/sec at 4 shards only {speedup}x of 1 shard "
            f"(need >= 2x)"
        )
    if not payload["n1_state_identical"]:
        problems.append("N=1 plane end state differs from unsharded system")
    if not payload["n1_messages_identical"]:
        problems.append(
            "N=1 plane message sequence/bytes differ from unsharded system"
        )
    for p in payload["points"]:
        if p["workload"] == "shard-local" and p["cross_shard_rounds"]:
            problems.append(
                f"shard-local workload fanned out at N={p['n_shards']}"
            )
    airline = payload["airline"]
    if airline["router_fanouts"] or airline["whole_plane_views"]:
        problems.append(
            f"airline views left their shard: {airline['router_fanouts']} "
            f"fan-outs, {airline['whole_plane_views']} whole-plane views"
        )
    if airline["census"] != airline["unsharded_census"]:
        problems.append(
            f"airline message census {airline['census']} differs from the "
            f"unsharded system's {airline['unsharded_census']}"
        )
    if not airline["state_identical"]:
        problems.append("airline end state differs from the unsharded system's")
    return problems


EXPERIMENT = Experiment(
    "shard_sweep", ShardSpec(sweep_points, run_sweep_point, merge_shard_sweep),
    params=(Param("--rounds", 4),),
    summarize=bench_payload, gates=gates, out="BENCH_shard.json",
)
run_shard_sweep = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
