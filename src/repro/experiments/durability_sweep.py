"""Durability sweep: commit-path overhead, recovery time, kill parity.

Three point families exercise the durable directory plane
(:mod:`repro.core.durability`):

- **overhead** — the Fig-4-style mixed-mode workload plus a 256-commit
  push burst, run per fsync policy (volatile / ``off`` / ``batch`` /
  ``always``), the policies timed in alternation inside one point
  (min over repeats).  The gate:
  ``fsync=batch`` must cost at most 1.5x the volatile baseline on the
  fig4 workload.  The batch policy amortizes with ``batch_interval=64``
  (the bounded-loss window it trades for throughput); the burst leg
  reports the commit-bound ``us_per_commit`` per policy.
- **recovery** — recovery (restart) time vs WAL tail length, snapshots
  disabled so the whole tail replays: how long a directory that
  crashed with 64 / 256 / 1024 unsnapshotted commits takes to come
  back, and how many cells it replays.
- **kill** — the gate proper: >= 50 randomized DM kill/restart points
  at N ∈ {1, 4} shards under ``fsync=always``.  Each point kills one
  shard at a seeded random time, wipes the shard's owned cells from
  the in-process component (a *process* kill would lose exactly that
  volatile state — without the wipe the shared component would mask
  any recovery bug), optionally injects damage, restarts the shard
  mid-workload, and requires (the plane is given the equal-count cut
  explicitly, so the two spanning views span every shard: the cut a
  plane takes at its first data request would put them on one, and
  most kills would hit an empty shard; the ``cut`` family covers that
  cut):

  - the finished run's primary copy equals a crash-free run's
    (**parity**), and
  - after a *final* crash of every shard with the component wiped
    again, recovery alone reproduces that state (**zero lost
    committed writes** — every acknowledged commit must come back
    from the lineage, with nobody left to re-push it).

  Injections: ``torn`` leaves garbage bytes after the WAL's durable
  end (the record a kill interrupted — recovery truncates it);
  ``snap`` truncates the newest snapshot file to model a kill during
  the snapshot write (the in-process write is atomic, so the torn
  on-disk state is modeled by post-crash truncation) — recovery must
  fall back to the previous snapshot and pay a longer replay.
- **cut** — the same two gates on a 4-shard plane that places its keys
  itself: two groups of two writers over ``k00``-``k03`` and
  ``k04``-``k07`` straddle the provisional equal-count splits, so the
  first data request re-cuts them to ``[k00, k04, k04]`` (shards 1 and
  3 gain keys, 0 and 2 lose all theirs).  The writers register, then
  wait ``CUT_SETTLE`` before their first data request, and each point
  kills one shard (all four in turn) in one of three windows: killed
  and restarted *before* the cut, *across* it (down at the first data
  request, so the provisional cut stands), or *after* it.

``python -m repro.experiments.durability_sweep`` writes
``BENCH_durability.json``; ``--check`` exits non-zero unless every gate
of :func:`gates` holds.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.image import ObjectImage
from repro.core.sharding import (
    KeyRangePartitioner,
    ShardedDirectoryPlane,
    ShardedFleccSystem,
)
from repro.core.system import FleccSystem, run_all_scripts
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, Param, ShardSpec, cli, point_doc
from repro.experiments.shard_sweep import _fig4_workload
from repro.net.message import Message, reset_message_ids
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
from repro.sim.rng import stream_for
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

FSYNC_POLICIES = (None, "off", "batch", "always")  # None = no WAL at all
RECOVERY_TAILS = (64, 256, 1024)
KILL_POINTS = ((1, 28), (4, 24))  # (n_shards, points) -> 52 total
INJECTIONS = ("none", "torn", "snap")

# Torn-tail garbage: a record header declaring 64 payload bytes with
# only a fragment behind it — exactly what a kill mid-append leaves.
TORN_GARBAGE = struct.pack(">I", 64) + b"interrupted"

KILL_CELLS = [f"k{i:02d}" for i in range(8)]

# Cut family: 12 points, each window x each of the 4 shards.
CUT_WINDOWS = ("before", "across", "after")
CUT_KILL_POINTS = 12
# A group's writers write its first two cells and its last: k00 and
# k04, which the cut hands to shards 1 and 3, are never written, so
# only those shards' snapshots at the cut keep them.
CUT_GROUPS = (["k01", "k02", "k00", "k03"], ["k05", "k06", "k04", "k07"])
CUT_SETTLE = 16.0   # registered by t=2; first data request near t=18


# ---------------------------------------------------------------------------
# Point results
# ---------------------------------------------------------------------------
@dataclass
class OverheadPoint:
    policy: str                  # "volatile" | "off" | "batch" | "always"
    commits: int
    fig4_wall_ms: float          # fig4 workload alone, min over repeats
    burst_wall_ms: float         # 256-commit push burst, min over repeats
    us_per_commit: float         # burst time / burst commits
    wal_appends: int
    wal_syncs: int


@dataclass
class RecoveryPoint:
    tail_len: int                # WAL records replayed (commits)
    recovery_ms: float
    cells_replayed: int


@dataclass
class KillPoint:
    n_shards: int
    index: int
    kill_at: float
    downtime: float
    shard: int
    injection: str               # "none" | "torn" | "snap"
    parity: bool                 # post-run primary copy == crash-free run
    lost_writes: int             # cells final recovery failed to restore
    recoveries: int              # restarts recorded in MessageStats
    cells_replayed: int
    snapshots_skipped: int       # > 0 when the snap injection forced fallback
    torn_truncated: bool


@dataclass
class CutKillPoint(KillPoint):
    window: str                  # "before" | "across" | "after" the cut
    views_rehomed: int           # 0 when the provisional cut stood


@dataclass
class DurabilitySweepResult:
    overhead: List[OverheadPoint] = field(default_factory=list)
    recovery: List[RecoveryPoint] = field(default_factory=list)
    kills: List[KillPoint] = field(default_factory=list)
    cut_kills: List[CutKillPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["family", "config", "metric", "value"],
            title="DURABILITY — commit overhead, recovery time, kill parity",
        )
        for p in self.overhead:
            t.add_row("overhead", p.policy, "us/commit", f"{p.us_per_commit:.1f}")
        for p in self.recovery:
            t.add_row("recovery", f"tail={p.tail_len}", "recovery_ms",
                      f"{p.recovery_ms:.2f}")
        for family, points in (("kill", self.kills), ("cut", self.cut_kills)):
            bad = [p for p in points if p.lost_writes or not p.parity]
            t.add_row(family, f"{len(points)} points", "failed", len(bad))
        return t


# ---------------------------------------------------------------------------
# Overhead family
# ---------------------------------------------------------------------------
def _commit_burst(kernel: SimKernel, transport: SimTransport, n: int) -> None:
    """Drive ``n`` single-cell PUSH commits straight at the directory."""
    replies: List[Message] = []
    ep = transport.bind("bench", replies.append)
    ep.send(Message(M.REGISTER, "bench", "dir",
                    {"view_id": "bench", "properties": props_for(["b00"]),
                     "mode": "weak"}))
    kernel.run()
    for i in range(n):
        ep.send(Message(M.PUSH, "bench", "dir",
                        {"view_id": "bench",
                         "image": ObjectImage({"b00": i}),
                         "state_seq": i + 1}))
        kernel.run()
    ep.close()


def _overhead_leg(policy: Optional[str], burst: int) -> Tuple[float, float, int, int, int]:
    """One timed run under ``policy``: (fig4 seconds, burst seconds,
    commits, WAL appends, WAL syncs)."""
    reset_message_ids()
    root = Path(tempfile.mkdtemp(prefix="flecc-wal-"))
    try:
        kernel = SimKernel()
        transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
        store = Store({f"c{i:02d}": i for i in range(8)})
        dur = (
            DurabilitySpec(root=root, fsync=policy, batch_interval=64,
                           snapshot_every=256)
            if policy is not None else None
        )
        system = FleccSystem(
            transport, store, extract_from_object, merge_into_object,
            extract_cells=extract_cells, durability=dur,
        )
        t0 = time.perf_counter()
        _fig4_workload(system, sorted(store.cells))
        t1 = time.perf_counter()
        _commit_burst(kernel, transport, burst)
        t2 = time.perf_counter()
        d = system.directory.durability
        wal = (d.counters["wal_appends"], d.counters["wal_syncs"]) if d else (0, 0)
        commits = system.directory.counters["commits"]
        system.close()
        return t1 - t0, t2 - t1, commits, *wal
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_overhead_points(repeats: int = 7, burst: int = 256) -> List[OverheadPoint]:
    """Every fsync policy, min over ``repeats``, timed in alternation.

    Each repeat runs one leg per policy back to back, so the windows a
    policy ratio divides come from the same stretch of the same
    process: two ~2 ms minima taken minutes apart (or in different
    workers) drift more than the overhead being gated.
    """
    legs: Dict[Optional[str], List[Tuple[float, float, int, int, int]]] = {
        policy: [] for policy in FSYNC_POLICIES
    }
    for _ in range(repeats):
        for policy in FSYNC_POLICIES:
            legs[policy].append(_overhead_leg(policy, burst))
    points = []
    for policy, runs in legs.items():
        best_burst = min(r[1] for r in runs)
        _, _, commits, appends, syncs = runs[-1]
        points.append(OverheadPoint(
            policy=policy or "volatile",
            commits=commits,
            fig4_wall_ms=min(r[0] for r in runs) * 1000.0,
            burst_wall_ms=best_burst * 1000.0,
            us_per_commit=best_burst * 1e6 / burst,
            wal_appends=appends,
            wal_syncs=syncs,
        ))
    return points


# ---------------------------------------------------------------------------
# Recovery family
# ---------------------------------------------------------------------------
def run_recovery_point(tail_len: int) -> RecoveryPoint:
    reset_message_ids()
    root = Path(tempfile.mkdtemp(prefix="flecc-wal-"))
    try:
        spec = DurabilitySpec(root=root, fsync="batch", batch_interval=16,
                              snapshot_every=0)  # no snapshots: full replay
        kernel = SimKernel()
        transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
        store = Store()
        dm = DirectoryManager(
            transport, "dir", store, extract_from_object, merge_into_object,
            durability=spec,
        )
        replies: List[Message] = []
        ep = transport.bind("cm", replies.append)
        ep.send(Message(M.REGISTER, "cm", "dir",
                        {"view_id": "v",
                         "properties": props_for(f"c{i:03d}" for i in range(64)),
                         "mode": "weak"}))
        kernel.run()
        for i in range(tail_len):
            ep.send(Message(M.PUSH, "cm", "dir",
                            {"view_id": "v",
                             "image": ObjectImage({f"c{i % 64:03d}": i}),
                             "state_seq": i + 1}))
            kernel.run()
        dm.crash()
        store2 = Store()
        kernel2 = SimKernel()
        transport2 = SimTransport(kernel2)
        t0 = time.perf_counter()
        dm2 = DirectoryManager(
            transport2, "dir", store2, extract_from_object, merge_into_object,
            durability=spec,
        )
        recovery_ms = (time.perf_counter() - t0) * 1000.0
        cells = dm2.counters["cells_replayed"]
        dm2.close()
        return RecoveryPoint(tail_len=tail_len, recovery_ms=recovery_ms,
                             cells_replayed=cells)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Kill family
# ---------------------------------------------------------------------------
def _kill_workload(
    system: "ShardedFleccSystem",
    kernel: SimKernel,
    n_ops: int = 4,
    sleep: float = 6.0,
    groups: Sequence[Sequence[str]] = (KILL_CELLS,),
    settle: float = 0.0,
) -> Dict[str, Agent]:
    """Two strong writers per group, each viewing the group's cells:
    each increments its own cell plus the group's last, contended, cell
    ``n_ops`` times, after waiting ``settle`` between registering and
    its first data request.  Retransmission (request_timeout x
    max_retries) rides out the DM downtime window."""
    agents: Dict[str, Agent] = {}
    scripts = []
    for i in range(2 * len(groups)):
        cells = groups[i // 2]
        agent = Agent()
        agents[f"w{i}"] = agent
        cm = system.add_view(
            f"w{i}", agent, props_for(cells),
            extract_from_view, merge_into_view, mode="strong",
            request_timeout=25.0, max_retries=16,
        )

        def script(cm=cm, agent=agent, i=i, own=cells[i % 2],
                   shared=cells[-1]):
            yield cm.start()
            if settle:
                yield ("sleep", settle)
            yield cm.init_image()
            yield ("sleep", i * 1.7)
            for _ in range(n_ops):
                yield cm.start_use_image()
                agent.local[own] = agent.local.get(own, 0) + 1
                agent.local[shared] = agent.local.get(shared, 0) + 1
                cm.end_use_image()
                yield ("sleep", sleep)
            yield cm.kill_image()

        scripts.append(script())
    run_all_scripts(system.transport, scripts)
    return agents


def _build_kill_system(
    root: Path, n_shards: int, placed: bool = True
) -> Tuple[SimKernel, ShardedFleccSystem, Store]:
    """``placed``: the equal-count cut, given explicitly; else the plane
    places the keys itself and re-cuts them at the first data request."""
    reset_message_ids()
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0, strict_wire=True)
    store = Store({c: 0 for c in KILL_CELLS})
    system = ShardedFleccSystem(
        transport, store, extract_from_object, merge_into_object,
        n_shards=n_shards,
        partitioner=(KeyRangePartitioner.from_keys(KILL_CELLS, n_shards)
                     if placed else None),
        extract_cells=extract_cells,
        durability=DurabilitySpec(root=root, fsync="always", snapshot_every=4),
    )
    return kernel, system, store


def _wipe_owned(store: Store, plane: ShardedDirectoryPlane, shard: int) -> None:
    """Drop the shard's owned cells from the shared in-process component
    — the volatile state a real process kill would lose.  Without this
    the surviving Python object would mask every recovery bug."""
    owner = plane.partitioner.shard_of
    for key in [k for k in store.cells if owner(k) == shard]:
        del store.cells[key]


def _truncate_newest_snapshot(lineage_dir: Path) -> bool:
    """Model a kill during the snapshot write: leave the newest snapshot
    file half-written.  Requires a fallback generation — snapshots are
    written tmp + atomic-replace, so a real kill mid-write can damage at
    most the newest generation, never the only one.  Returns False when
    fewer than two snapshots exist."""
    snaps = sorted(
        lineage_dir.glob("snap-*.bin"),
        key=lambda p: int(p.stem.split("-")[1]),
    )
    if len(snaps) < 2:
        return False
    newest = snaps[-1]
    size = newest.stat().st_size
    with open(newest, "r+b") as f:
        f.truncate(max(1, size // 2))
    return True


def _kill_run(
    n_shards: int,
    kill_at: float,
    downtime: float,
    shard: int,
    injection: str,
    placed: bool = True,
    **workload: Any,
) -> Dict[str, Any]:
    """One kill: a crash-free baseline, then the same workload with
    ``shard`` killed at ``kill_at`` and restarted ``downtime`` later,
    then the final crash of every shard.  Returns the KillPoint fields
    that are measured, plus the router's ``views_rehomed``."""
    # Crash-free baseline: the same deterministic workload untouched.
    base_root = Path(tempfile.mkdtemp(prefix="flecc-wal-"))
    try:
        _, base_system, base_store = _build_kill_system(
            base_root, n_shards, placed
        )
        _kill_workload(base_system, None, **workload)
        baseline = dict(base_store.cells)
        base_system.close()
    finally:
        shutil.rmtree(base_root, ignore_errors=True)

    root = Path(tempfile.mkdtemp(prefix="flecc-wal-"))
    try:
        kernel, system, store = _build_kill_system(root, n_shards, placed)
        plane = system.plane
        injected = {"applied": injection}

        def do_crash() -> None:
            torn = TORN_GARBAGE if injection == "torn" else b""
            lineage = plane.shards[shard].durability.spec.directory
            plane.crash_shard(shard, torn_tail=torn)
            _wipe_owned(store, plane, shard)
            if injection == "snap" and not _truncate_newest_snapshot(lineage):
                injected["applied"] = "none"  # no fallback generation yet

        kernel.call_at(kill_at, do_crash)
        kernel.call_at(kill_at + downtime, lambda: plane.restart_shard(shard))
        _kill_workload(system, kernel, **workload)
        kernel.run()  # drain crash/restart events past the scripts' end
        parity = dict(store.cells) == baseline
        recoveries = system.transport.stats.recoveries
        cells_replayed = system.transport.stats.cells_replayed
        snapshots_skipped = sum(
            dm.durability.counters["snapshots_skipped"] for dm in plane.shards
        )
        torn_truncated = any(
            dm.durability.recovered.torn_tail_truncated for dm in plane.shards
        )

        # The zero-lost-committed-writes gate: kill EVERY shard after the
        # run, wipe the whole component, and require recovery alone to
        # reproduce the finished state — no CM is left to re-push.
        final = dict(store.cells)
        for i in range(n_shards):
            plane.crash_shard(i)
        store.cells.clear()
        for i in range(n_shards):
            plane.restart_shard(i)
        lost = sum(
            1 for k, v in final.items() if store.cells.get(k) != v
        )
        views_rehomed = plane.counters["views_rehomed"]
        system.close()
        return dict(
            injection=injected["applied"], parity=parity, lost_writes=lost,
            recoveries=recoveries, cells_replayed=cells_replayed,
            snapshots_skipped=snapshots_skipped,
            torn_truncated=torn_truncated, views_rehomed=views_rehomed,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_kill_point(point: Tuple[str, int, int], seed: int) -> KillPoint:
    _, n_shards, index = point
    rng = stream_for(seed, f"durability-kill-{n_shards}-{index}")
    kill_at = float(rng.uniform(6.0, 45.0))
    downtime = float(rng.uniform(10.0, 30.0))
    shard = int(rng.integers(n_shards))
    injection = INJECTIONS[index % len(INJECTIONS)]
    measured = _kill_run(n_shards, kill_at, downtime, shard, injection)
    del measured["views_rehomed"]
    return KillPoint(
        n_shards=n_shards, index=index, kill_at=kill_at,
        downtime=downtime, shard=shard, **measured,
    )


def run_cut_kill_point(point: Tuple[str, int, int], seed: int) -> CutKillPoint:
    """A kill on a plane that cuts its own placement: window
    ``index % 3`` of :data:`CUT_WINDOWS`, shard ``index // 3 % 4``."""
    _, n_shards, index = point
    rng = stream_for(seed, f"durability-cut-{n_shards}-{index}")
    window = CUT_WINDOWS[index % len(CUT_WINDOWS)]
    if window == "before":       # back before the first data request
        kill_at = float(rng.uniform(0.5, 4.0))
        downtime = float(rng.uniform(1.0, 8.0))
    elif window == "across":     # down at the first data request
        kill_at = float(rng.uniform(6.0, CUT_SETTLE))
        downtime = float(rng.uniform(14.0, 30.0))
    else:
        kill_at = float(rng.uniform(CUT_SETTLE + 4.0, 45.0))
        downtime = float(rng.uniform(10.0, 30.0))
    shard = index // len(CUT_WINDOWS) % n_shards
    measured = _kill_run(
        n_shards, kill_at, downtime, shard, "none", placed=False,
        groups=CUT_GROUPS, settle=CUT_SETTLE,
    )
    return CutKillPoint(
        n_shards=n_shards, index=index, kill_at=kill_at,
        downtime=downtime, shard=shard, window=window, **measured,
    )


# ---------------------------------------------------------------------------
# The sweep: its points, one point, the merge
# ---------------------------------------------------------------------------
def sweep_points(
    kill_points: Sequence[Tuple[int, int]] = KILL_POINTS, **_: Any
) -> List[Tuple[Any, ...]]:
    """Picklable point descriptors: the overhead point, one per recovery
    tail, one per kill."""
    points: List[Tuple[Any, ...]] = [("overhead",)]
    points += [("recovery", t) for t in RECOVERY_TAILS]
    for n_shards, count in kill_points:
        points += [("kill", n_shards, i) for i in range(count)]
    points += [("cut", 4, i) for i in range(CUT_KILL_POINTS)]
    return points


def run_sweep_point(point: Tuple[Any, ...], seed: int, **_: Any) -> Any:
    family = point[0]
    if family == "overhead":
        return run_overhead_points()
    if family == "recovery":
        return run_recovery_point(point[1])
    if family == "cut":
        return run_cut_kill_point(point, seed=seed)
    return run_kill_point(point, seed=seed)


def merge_durability_sweep(
    points: List[Tuple[Any, ...]], partials: List[Any], **_: Any
) -> DurabilitySweepResult:
    result = DurabilitySweepResult()
    for p in partials:
        if isinstance(p, list):
            result.overhead.extend(p)
        elif isinstance(p, RecoveryPoint):
            result.recovery.append(p)
        elif isinstance(p, CutKillPoint):
            result.cut_kills.append(p)
        elif isinstance(p, KillPoint):
            result.kills.append(p)
    return result


# ---------------------------------------------------------------------------
# BENCH payload + acceptance gates
# ---------------------------------------------------------------------------
def bench_payload(result: DurabilitySweepResult) -> Dict[str, object]:
    by_policy = {p.policy: p for p in result.overhead}
    volatile = by_policy.get("volatile")
    batch = by_policy.get("batch")
    batch_ratio = (
        batch.fig4_wall_ms / volatile.fig4_wall_ms
        if volatile and batch and volatile.fig4_wall_ms else 0.0
    )
    return {
        "description": (
            "Durable directory plane sweep: commit-path overhead per fsync "
            "policy, recovery time vs WAL-tail length, and randomized DM "
            "kill/restart parity (zero lost committed writes)"
        ),
        "command": "python -m repro.experiments.durability_sweep",
        "batch_overhead_ratio": round(batch_ratio, 3),
        "kill_points": len(result.kills),
        "kill_failures": sum(
            1 for p in result.kills if p.lost_writes or not p.parity
        ),
        "overhead": [
            point_doc(p, fig4_wall_ms=3, burst_wall_ms=3, us_per_commit=2)
            for p in result.overhead
        ],
        "recovery": [point_doc(p, recovery_ms=3) for p in result.recovery],
        "kills": [point_doc(p, kill_at=2, downtime=2) for p in result.kills],
        "cut_kills": [
            point_doc(p, kill_at=2, downtime=2) for p in result.cut_kills
        ],
    }


def gates(payload: Dict[str, object]) -> List[str]:
    """The PR's acceptance gates; returns a list of violations."""
    problems: List[str] = []
    kills = payload["kills"]
    if len(kills) < 50:
        problems.append(f"only {len(kills)} kill points (need >= 50)")
    for p in kills:
        if p["lost_writes"]:
            problems.append(
                f"kill point N={p['n_shards']} #{p['index']}: "
                f"{p['lost_writes']} lost committed write(s)"
            )
        if not p["parity"]:
            problems.append(
                f"kill point N={p['n_shards']} #{p['index']}: recovered "
                f"state differs from crash-free run"
            )
    shard_counts = {p["n_shards"] for p in kills}
    for n in (1, 4):
        if n not in shard_counts:
            problems.append(f"no kill points at N={n} shards")
    injections = {p["injection"] for p in kills}
    for kind in ("torn", "snap"):
        if kind not in injections:
            problems.append(f"no kill point exercised the {kind!r} injection")
    if not any(p["torn_truncated"] for p in kills):
        problems.append("no kill point actually truncated a torn tail")
    if not any(p["snapshots_skipped"] for p in kills):
        problems.append(
            "no kill point actually fell back past a damaged snapshot"
        )
    cut_kills = payload.get("cut_kills") or []
    for p in cut_kills:
        if p["lost_writes"] or not p["parity"]:
            problems.append(
                f"cut kill point #{p['index']} ({p['window']} the cut, shard "
                f"{p['shard']}): {p['lost_writes']} lost committed write(s), "
                f"parity {p['parity']}"
            )
    windows = {p["window"] for p in cut_kills}
    for window in CUT_WINDOWS:
        if window not in windows:
            problems.append(f"no cut kill point {window} the cut")
    if not any(p["views_rehomed"] for p in cut_kills
               if p["window"] != "across"):
        problems.append("no cut kill point re-cut the placement")
    if any(p["views_rehomed"] for p in cut_kills if p["window"] == "across"):
        problems.append("a plane re-cut its placement with a shard down")
    ratio = payload.get("batch_overhead_ratio") or 0.0
    if not ratio or ratio > 1.5:
        problems.append(
            f"fsync=batch commit-path overhead {ratio}x the volatile "
            f"baseline (need <= 1.5x)"
        )
    return problems


EXPERIMENT = Experiment(
    "durability_sweep",
    ShardSpec(sweep_points, run_sweep_point, merge_durability_sweep),
    params=(Param("--seed", 0),), seeded=True,
    summarize=bench_payload, gates=gates, out="BENCH_durability.json",
)
run_durability_sweep = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
