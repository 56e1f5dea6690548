"""Directory op-path profile: per-op cost vs registered-view count.

The scale sweep (PR 7) showed the directory manager — not the wire —
is the wall past a few thousand views, and PR 9's conflict index exists
to knock that wall down.  This experiment proves it, with the op-path
profiler (:mod:`repro.core.profiling`) as the measuring instrument:

- **Harness** — :class:`repro.testing.BareDirectory`: a *bare*
  :class:`~repro.core.directory.DirectoryManager` on a
  :class:`~repro.net.sim_transport.SimTransport`, driven by one fake
  cache-manager hub endpoint that auto-acks INVALIDATE/FETCH_REQ.
  No cache managers, no static map (its numpy row scans are O(V) by
  construction and would mask what the index does), so every measured
  nanosecond belongs to the directory's own op path.
- **Workload** — V views with *disjoint-by-pairs* properties: view ``i``
  holds a private cell plus a group cell shared with its pair partner,
  so the true conflict degree is 1 no matter how large V grows.  The
  pure-op phase issues PULL/ACQUIRE/PUSH traffic over a fixed sample of
  views; the churn-burst phase registers a fresh view into the full
  fleet and immediately operates on it — the worst case for the legacy
  whole-cache invalidation.
- **A/B legs** — ``conflict_index=True`` (the indexed default) vs
  ``conflict_index=False`` (the pre-index brute-force paths, preserved
  verbatim as the baseline).  Both legs run the identical message
  sequence; per-op directory cost comes from the profiler's phase
  totals (conflict lookup + target build + fan-out + serve), so sim
  latency and harness overhead cancel out.
- **Parity** — the legs must agree exactly: identical Fig-4 message
  counts per ramp point, identical end state, and — on the indexed
  leg — conflict-set answers identical to a fresh brute-force
  recomputation over the full registry.  A separate deterministic
  Fig-4-style workload on :class:`~repro.core.system.FleccSystem`
  replays with the index on and off and must match too.

``python -m repro.experiments.dm_profile`` writes
``BENCH_dmprofile.json``; ``--full`` adds the 10k-view point, which
arms the performance gates (>=5x over brute at the top, sub-linear
indexed growth, churn cost bounded by conflict degree not V).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import DiscreteSet, Property, PropertySet
from repro.core.conflicts import ConflictPolicy
from repro.core.directory import DirectoryManager
from repro.core.system import FleccSystem, run_all_scripts
from repro.experiments.report import Table
from repro.experiments.runner import (
    Experiment,
    Param,
    ShardSpec,
    capped_ramp,
    cli,
    point_doc,
)
from repro.net.message import reset_message_ids
from repro.net.transport import resolve_transport
from repro.testing import (
    Agent,
    BareDirectory,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    pair_group_props,
    props_for,
)

#: Registered-view ramp; the 10k point rides only behind ``--full``.
DEFAULT_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000)
FULL_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000, 10000)
LEGS: Tuple[str, ...] = ("indexed", "brute")

#: The performance gates arm only when the ramp reaches this many views
#: (the full run): below it wall-clock noise dominates the deltas.
GATE_TOP = 10000

# Workload shape (identical across legs and ramp points, so phase-total
# deltas are comparable): ops run over a fixed-size view sample.
OP_SAMPLE = 200        # distinct views issuing pure-phase ops
OP_ROUNDS = 3          # passes over the sample (round 2+ = cache-hit path)
ACQ_SAMPLE = 24        # views that ACQUIRE (exercise invalidate rounds)
CHURN_CYCLES = 30      # churn-burst: REGISTER into full fleet + one op
PARITY_SAMPLE = 50     # views checked index-vs-brute-force per point

#: Profiler phases that make up "per-op directory cost" (commit/wal are
#: push-path phases, reported separately).
OP_PHASES = ("conflict", "targets", "fanout", "serve")


def _vid(i: int) -> str:
    return f"v{i:05d}"


def _churn_props(v_base: int, c: int) -> PropertySet:
    """Properties of the c-th churn view: joins an existing pair group
    (constant conflict degree 2), plus its own private cell."""
    group = c % max(1, v_base // 2)
    return PropertySet([
        Property("cells", DiscreteSet({f"churn{c:05d}", f"grp{group:05d}"}))
    ])


@dataclass
class DmProfilePoint:
    """One (leg, view count) measurement."""

    leg: str                       # 'indexed' | 'brute'
    n_views: int
    ops: int                       # queued ops the profiler timed
    register_mean_us: float        # ramp registration, per REGISTER
    pure_op_us: float              # conflict+targets+fanout+serve, per op
    pure_phases_us: Dict[str, float]  # per-op cost by phase
    commit_mean_us: float          # push-path commit, per commit sample
    churn_cycle_us: float          # REGISTER-into-full-fleet + one op
    index_candidates: int          # policy counter (0 on the brute leg)
    scoped_invalidations: int      # policy counter (0 on the brute leg)
    conflict_parity: bool          # index answers == brute recomputation
    by_type: Dict[str, int]        # Fig-4 message counts for the point
    state_digest: str              # end-state fingerprint
    elapsed_s: float


def _sample_ids(n_views: int, size: int) -> List[int]:
    step = max(1, n_views // size)
    return list(range(0, n_views, step))[:size]


def _conflict_parity(dm: DirectoryManager, sample: List[str]) -> bool:
    """Indexed conflict sets vs a fresh brute-force policy (no caches)."""
    if not dm.policy.indexed:
        return True
    brute = ConflictPolicy(dm.static_map, dm._properties_of, indexed=False)
    views = sorted(dm.views)
    for vid in sample:
        if set(dm.policy.conflict_set(vid)) != set(
            brute.conflict_set(vid, views)
        ):
            return False
    return True


def _run_point(leg: str, n_views: int) -> DmProfilePoint:
    reset_message_ids()
    t_start = time.perf_counter()
    h = BareDirectory(conflict_index=(leg == "indexed"))
    prof = h.dm.profiler

    # Phase 1 — registration ramp: V views join the directory.
    for i in range(n_views):
        h.register(_vid(i), pair_group_props(i))
    h.drain()
    reg_hist = prof.phases.get("register")
    register_mean = reg_hist.mean_ns if reg_hist is not None else 0.0

    # Phase 2 — pure-op workload at steady membership.  Deltas of the
    # phase totals isolate it from the registration ramp above.
    sample = [_vid(i) for i in _sample_ids(n_views, OP_SAMPLE)]
    acq = sample[:: max(1, len(sample) // ACQ_SAMPLE)][:ACQ_SAMPLE]
    t0 = prof.total_ns(*OP_PHASES)
    ops0 = prof.ops
    for _ in range(OP_ROUNDS):
        for vid in sample:
            h.pull(vid)
        h.drain()
        for vid in acq:
            h.acquire(vid)
        h.drain()
    for vid in sample:
        h.push(vid, {f"own{vid[1:]}": 1})
    h.drain()
    pure_ops = prof.ops - ops0
    pure_total = prof.total_ns(*OP_PHASES) - t0
    pure_phases = {
        p: (
            (prof.phases[p].total_ns if p in prof.phases else 0) / pure_ops
            if pure_ops else 0.0
        ) / 1000
        for p in OP_PHASES
    }
    commit_hist = prof.phases.get("commit")
    commit_mean = commit_hist.mean_ns if commit_hist is not None else 0.0

    # Phase 3 — churn burst: a fresh view joins the *full* fleet, then
    # immediately operates.  Legacy mode pays a whole-cache invalidation
    # plus an O(V) recomputation per cycle; indexed mode pays O(degree).
    churn_phases = ("register",) + OP_PHASES
    t1 = prof.total_ns(*churn_phases)
    for c in range(CHURN_CYCLES):
        vid = f"churn{c:05d}"
        h.register(vid, _churn_props(n_views, c))
        h.pull(vid)
        h.drain()
    churn_total = prof.total_ns(*churn_phases) - t1

    parity_ids = [_vid(i) for i in _sample_ids(n_views, PARITY_SAMPLE)]
    parity = _conflict_parity(h.dm, parity_ids)
    point = DmProfilePoint(
        leg=leg,
        n_views=n_views,
        ops=prof.ops,
        register_mean_us=register_mean / 1000,
        pure_op_us=(pure_total / pure_ops if pure_ops else 0.0) / 1000,
        pure_phases_us=pure_phases,
        commit_mean_us=commit_mean / 1000,
        churn_cycle_us=churn_total / CHURN_CYCLES / 1000,
        index_candidates=h.dm.counters["index_candidates"],
        scoped_invalidations=h.dm.counters["scoped_invalidations"],
        conflict_parity=parity,
        by_type=dict(h.transport.stats.by_type),
        state_digest=h.state_digest(),
        elapsed_s=time.perf_counter() - t_start,
    )
    h.close()
    return point


# ---------------------------------------------------------------------------
# Fig-4-style A/B parity on the full system
# ---------------------------------------------------------------------------

def _fig4_parity_run(conflict_index: bool) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One deterministic conflicting workload; returns (state, by_type).

    Two overlapping views (so conflict rounds actually fire) run
    single-actor phases back to back — message counts cannot depend on
    races, which is what makes exact count parity assertable.
    """
    reset_message_ids()
    transport = resolve_transport("sim")
    store = Store({"a": 10, "b": 20})
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells, conflict_index=conflict_index,
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

    def strong_script():
        yield strong.start()
        yield strong.init_image()
        yield strong.start_use_image()
        strong_agent.local["b"] = strong_agent.local.get("b", 0) + 1
        strong.end_use_image()
        yield strong.kill_image()

    def weak_exit_script():
        yield weak.kill_image()

    run_all_scripts(transport, [weak_script()])
    run_all_scripts(transport, [strong_script()])  # revokes the weak view
    run_all_scripts(transport, [weak_exit_script()])
    state = dict(store.cells)
    by_type = dict(transport.stats.by_type)
    system.close()
    transport.close()
    return state, by_type


def fig4_parity() -> Tuple[bool, bool, Dict[str, int]]:
    """Indexed vs brute on the system workload.

    Returns (state_identical, counts_identical, reference by_type)."""
    state_on, counts_on = _fig4_parity_run(True)
    state_off, counts_off = _fig4_parity_run(False)
    return state_on == state_off, counts_on == counts_off, counts_on


@dataclass
class DmProfileResult:
    points: List[DmProfilePoint] = field(default_factory=list)
    fig4_state_identical: bool = True
    fig4_counts_identical: bool = True
    fig4_by_type: Dict[str, int] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table(
            [
                "leg", "views", "reg us", "op us", "churn us",
                "idx cand", "scoped", "parity",
            ],
            title="DM PROFILE — per-op directory cost vs registered views",
        )
        for p in self.points:
            t.add_row(
                p.leg, p.n_views,
                f"{p.register_mean_us:.1f}",
                f"{p.pure_op_us:.1f}",
                f"{p.churn_cycle_us:.1f}",
                p.index_candidates, p.scoped_invalidations,
                "ok" if p.conflict_parity else "DIVERGED",
            )
        return t


def sweep_points(
    ramp: Sequence[int] = DEFAULT_RAMP,
) -> List[Tuple[str, int]]:
    """Picklable point descriptors: ``(leg, n_views)``."""
    return [(leg, n) for leg in LEGS for n in ramp]


def run_sweep_point(
    point: Tuple[str, int], seed: Optional[int] = None
) -> DmProfilePoint:
    leg, n_views = point
    return _run_point(leg, n_views)


def merge_dm_profile(
    points: List[Tuple[str, int]],
    partials: List[DmProfilePoint],
    seed: Optional[int] = None,
) -> DmProfileResult:
    result = DmProfileResult(points=list(partials))
    (
        result.fig4_state_identical,
        result.fig4_counts_identical,
        result.fig4_by_type,
    ) = fig4_parity()
    return result


def run_dm_profile(
    ramp: Optional[Sequence[int]] = None,
    full: bool = False,
    max_views: Optional[int] = None,
) -> DmProfileResult:
    if ramp is None:
        ramp = capped_ramp(FULL_RAMP if full else DEFAULT_RAMP, max_views)
    points = sweep_points(ramp)
    return merge_dm_profile(points, [run_sweep_point(p) for p in points])


def _leg_points(
    payload_points: List[Dict[str, Any]], leg: str
) -> List[Dict[str, Any]]:
    return sorted(
        (p for p in payload_points if p["leg"] == leg),
        key=lambda p: p["n_views"],
    )


def _growth(points: List[Dict[str, Any]], key: str) -> float:
    """top-point / bottom-point ratio of one metric (0 when undefined)."""
    if len(points) < 2 or not points[0][key]:
        return 0.0
    return points[-1][key] / points[0][key]


def bench_payload(result: DmProfileResult) -> Dict[str, object]:
    """The ``BENCH_dmprofile.json`` document for one run."""
    points = [
        point_doc(
            p, register_mean_us=2, pure_op_us=2, pure_phases_us=2,
            commit_mean_us=2, churn_cycle_us=2, elapsed_s=2,
        )
        for p in result.points
    ]
    indexed = _leg_points(points, "indexed")
    brute = _leg_points(points, "brute")
    ramp_top = max((p["n_views"] for p in points), default=0)
    ramp_bottom = min((p["n_views"] for p in points), default=0)
    v_ratio = ramp_top / ramp_bottom if ramp_bottom else 0.0
    top_indexed = indexed[-1] if indexed else None
    top_brute = next(
        (p for p in brute if top_indexed and p["n_views"] == top_indexed["n_views"]),
        None,
    )
    speedup = (
        top_brute["pure_op_us"] / top_indexed["pure_op_us"]
        if top_indexed and top_brute and top_indexed["pure_op_us"]
        else 0.0
    )
    churn_speedup = (
        top_brute["churn_cycle_us"] / top_indexed["churn_cycle_us"]
        if top_indexed and top_brute and top_indexed["churn_cycle_us"]
        else 0.0
    )
    # Cross-leg parity at matched ramp points: the identical workload
    # must produce identical Fig-4 message counts and end state.
    leg_counts_identical = all(
        i["by_type"] == b["by_type"]
        for i in indexed for b in brute if i["n_views"] == b["n_views"]
    )
    leg_state_identical = all(
        i["state_digest"] == b["state_digest"]
        for i in indexed for b in brute if i["n_views"] == b["n_views"]
    )
    return {
        "description": (
            "Directory op-path profile: per-op cost (conflict lookup + "
            "target build + fan-out + serve) vs registered-view count, "
            "indexed conflict policy vs pre-index brute force"
        ),
        "command": "python -m repro.experiments.dm_profile --full",
        "ramp_top": ramp_top,
        "ramp_bottom": ramp_bottom,
        "view_ratio": round(v_ratio, 1),
        "speedup_at_top": round(speedup, 2),
        "churn_speedup_at_top": round(churn_speedup, 2),
        "indexed_pure_growth": round(_growth(indexed, "pure_op_us"), 2),
        "brute_pure_growth": round(_growth(brute, "pure_op_us"), 2),
        "indexed_churn_growth": round(_growth(indexed, "churn_cycle_us"), 2),
        "brute_churn_growth": round(_growth(brute, "churn_cycle_us"), 2),
        "conflict_parity": all(p["conflict_parity"] for p in points),
        "leg_counts_identical": leg_counts_identical,
        "leg_state_identical": leg_state_identical,
        "fig4_state_identical": result.fig4_state_identical,
        "fig4_counts_identical": result.fig4_counts_identical,
        "fig4_by_type": dict(result.fig4_by_type),
        "points": points,
    }


def gates(payload: Dict[str, Any]) -> List[str]:
    """The PR's acceptance gates; returns a list of violations.

    Parity is enforced on every run (any ramp).  The performance gates
    arm only when the ramp reaches ``GATE_TOP`` views — the full run —
    because below that the deltas sit inside wall-clock noise:

    - indexed per-op cost >= 5x cheaper than brute force at the top;
    - indexed per-op growth sub-linear in V (<= 0.5x the view ratio);
    - indexed churn-burst growth bounded by conflict degree, not V.
    """
    problems = []
    if not payload["conflict_parity"]:
        problems.append(
            "indexed conflict sets diverged from brute-force recomputation"
        )
    if not payload["leg_counts_identical"]:
        problems.append(
            "indexed vs brute legs produced different Fig-4 message counts"
        )
    if not payload["leg_state_identical"]:
        problems.append("indexed vs brute legs produced different end state")
    if not payload["fig4_state_identical"]:
        problems.append(
            "system workload end state differs with conflict_index on/off"
        )
    if not payload["fig4_counts_identical"]:
        problems.append(
            "system workload Fig-4 counts differ with conflict_index on/off"
        )
    if payload["ramp_top"] >= GATE_TOP:
        v_ratio = payload["view_ratio"]
        if payload["speedup_at_top"] < 5.0:
            problems.append(
                f"indexed per-op cost only {payload['speedup_at_top']}x "
                f"cheaper than brute force at {payload['ramp_top']} views "
                f"(need >= 5x)"
            )
        if payload["indexed_pure_growth"] > 0.5 * v_ratio:
            problems.append(
                f"indexed per-op cost grew {payload['indexed_pure_growth']}x "
                f"over a {v_ratio}x view ramp (need sub-linear: <= "
                f"{0.5 * v_ratio}x)"
            )
        churn_bound = max(8.0, 0.1 * v_ratio)
        if payload["indexed_churn_growth"] > churn_bound:
            problems.append(
                f"indexed churn-burst cost grew "
                f"{payload['indexed_churn_growth']}x over a {v_ratio}x view "
                f"ramp (need bounded by conflict degree: <= {churn_bound}x)"
            )
    return problems


EXPERIMENT = Experiment(
    "dm_profile", run_dm_profile,
    params=(
        Param("--full", False,
              "include the 10k-view point (arms the performance gates)"),
        Param("--max-views", None,
              "cap the ramp at N views (CI smoke uses 2000); N itself is "
              "the top point"),
    ),
    shard=ShardSpec(sweep_points, run_sweep_point, merge_dm_profile),
    summarize=bench_payload, gates=gates, out="BENCH_dmprofile.json",
)

if __name__ == "__main__":
    cli(EXPERIMENT)
