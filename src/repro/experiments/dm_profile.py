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
  fleet and immediately operates on it — the worst case for a policy
  whose join or first query does work per registered view.
- **One leg** — the directory's own conflict path.  Per-op directory
  cost comes from the profiler's phase totals (conflict lookup + target
  build + fan-out + serve), so sim latency and harness overhead cancel
  out.
- **Parity** — against frozen evidence, not live legacy code: every
  ramp point must reproduce the Fig-4 message census and end-state
  digest the pre-index brute-force directory produced on this workload
  (:data:`GOLDEN_POINTS`), a deterministic Fig-4-style workload on
  :class:`~repro.core.system.FleccSystem` must reproduce
  :data:`GOLDEN_FIG4`, and sampled conflict-set answers must equal
  :func:`repro.testing.brute_force_conflict_set` over the full registry.

``python -m repro.experiments.dm_profile`` writes
``BENCH_dmprofile.json``; ``--full`` adds the 10k-view point, which
arms the performance gates (sub-linear per-op growth, churn cost
bounded by conflict degree not V).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import DiscreteSet, Property, PropertySet
from repro.core.directory import DirectoryManager
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
from repro.testing import (
    BareDirectory,
    brute_force_conflict_set,
    pair_group_props,
    two_view_run,
)

#: Registered-view ramp; the 10k point rides only behind ``--full``.
DEFAULT_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000)
FULL_RAMP: Tuple[int, ...] = (100, 300, 1000, 3000, 10000)

#: Column order of the census counts in the table below.
_CENSUS_TYPES = (
    "REGISTER", "REGISTER_ACK", "PULL_REQ", "PULL_DATA", "ACQUIRE", "GRANT",
    "PUSH", "PUSH_ACK", "INVALIDATE", "INVALIDATE_ACK",
)

#: ``n_views -> (end-state digest, Fig-4 message census)`` of this
#: workload as the pre-index directory ran it: generation-stamped
#: whole-cache invalidation and a full-registry scan per conflict set,
#: deleted in PR 22.  Taken from the ``brute`` leg of
#: ``BENCH_dmprofile.json`` at 87245f1 — the last A/B run, where that
#: leg cost 7892 us per op against 11.1 (711x) and 32.8 ms per churn
#: cycle against 41.5 us (790x) at 10 000 views, and agreed with the
#: index on every number below.  A ramp point not listed here (a
#: ``--max-views`` cap between two of them) is profiled but not pinned.
GOLDEN_POINTS: Dict[int, Tuple[str, Dict[str, int]]] = {
    n_views: (digest, dict(zip(_CENSUS_TYPES, counts)))
    for n_views, digest, *counts in (
        (100, "336759238c4de37384ca1c47bcdae97c5895d16f",
         130, 130, 330, 330, 72, 72, 100, 100, 135, 135),
        (300, "e3e12198f8069fccc7b1d5c9451bbca6b5aade7b",
         330, 330, 630, 630, 72, 72, 200, 200, 128, 128),
        (1000, "076272661a7632fdbbed0701a2263e2a5c06b4a5",
         1030, 1030, 630, 630, 72, 72, 200, 200, 2, 2),
        (3000, "1715ab8e0878cd5a57eaa1bef80c0e525dc467e8",
         3030, 3030, 630, 630, 72, 72, 200, 200, 1, 1),
        (10000, "2c32e1c6eee6d7feb3c845c5470f10f78dee52f3",
         10030, 10030, 630, 630, 72, 72, 200, 200, 1, 1),
    )
}

#: End state and census of :func:`repro.testing.two_view_run` on the sim,
#: the weak view leaving after the strong phase; same provenance.
GOLDEN_FIG4: Dict[str, Dict[str, int]] = {
    "state": {"a": 99, "b": 21},
    "by_type": {
        "REGISTER": 2, "REGISTER_ACK": 2, "INIT_REQ": 2, "INIT_DATA": 2,
        "PUSH": 1, "PUSH_ACK": 1, "ACQUIRE": 1, "INVALIDATE": 1,
        "INVALIDATE_ACK": 1, "GRANT": 1, "UNREGISTER": 2,
        "UNREGISTER_ACK": 2,
    },
}

#: The performance gates arm only when the ramp reaches this many views
#: (the full run): below it wall-clock noise dominates the deltas.
GATE_TOP = 10000

# Workload shape (identical across legs and ramp points, so phase-total
# deltas are comparable): ops run over a fixed-size view sample.
OP_SAMPLE = 200        # distinct views issuing pure-phase ops
OP_ROUNDS = 3          # passes over the sample (round 2+ = cache-hit path)
ACQ_SAMPLE = 24        # views that ACQUIRE (exercise invalidate rounds)
CHURN_CYCLES = 30      # churn-burst: REGISTER into full fleet + one op
PARITY_SAMPLE = 50     # views checked against the reference per point

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
    """One view-count measurement."""

    n_views: int
    ops: int                       # queued ops the profiler timed
    register_mean_us: float        # ramp registration, per REGISTER
    pure_op_us: float              # conflict+targets+fanout+serve, per op
    pure_phases_us: Dict[str, float]  # per-op cost by phase
    commit_mean_us: float          # push-path commit, per commit sample
    churn_cycle_us: float          # REGISTER-into-full-fleet + one op
    index_candidates: int          # policy counter
    conflict_parity: bool          # index answers == brute-force reference
    by_type: Dict[str, int]        # Fig-4 message counts for the point
    state_digest: str              # end-state fingerprint
    elapsed_s: float


def _sample_ids(n_views: int, size: int) -> List[int]:
    step = max(1, n_views // size)
    return list(range(0, n_views, step))[:size]


def _conflict_parity(dm: DirectoryManager, sample: List[str]) -> bool:
    """The policy's conflict sets vs the brute-force reference."""
    properties = {vid: rec.properties for vid, rec in dm.views.items()}
    return all(
        dm.policy.conflict_set(vid)
        == brute_force_conflict_set(vid, properties, dm.static_map)
        for vid in sample
    )


def run_sweep_point(n_views: int, **_: Any) -> DmProfilePoint:
    """One ramp point (unseeded)."""
    reset_message_ids()
    t_start = time.perf_counter()
    h = BareDirectory()
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
    # immediately operates.  A join re-keys the conflict-set memo and
    # the newcomer's set costs O(degree); anything that grows with V
    # here is a regression.
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
        n_views=n_views,
        ops=prof.ops,
        register_mean_us=register_mean / 1000,
        pure_op_us=(pure_total / pure_ops if pure_ops else 0.0) / 1000,
        pure_phases_us=pure_phases,
        commit_mean_us=commit_mean / 1000,
        churn_cycle_us=churn_total / CHURN_CYCLES / 1000,
        index_candidates=h.dm.counters["index_candidates"],
        conflict_parity=parity,
        by_type=dict(h.transport.stats.by_type),
        state_digest=h.state_digest(),
        elapsed_s=time.perf_counter() - t_start,
    )
    h.close()
    return point


# ---------------------------------------------------------------------------
# Fig-4-style parity on the full system
# ---------------------------------------------------------------------------

def fig4_parity() -> Tuple[bool, bool, Dict[str, int]]:
    """The system workload against :data:`GOLDEN_FIG4`.

    Returns (state_identical, counts_identical, this run's by_type)."""
    state, by_type = two_view_run("sim", weak_leaves_first=False)
    return (
        state == GOLDEN_FIG4["state"],
        by_type == GOLDEN_FIG4["by_type"],
        by_type,
    )


@dataclass
class DmProfileResult:
    points: List[DmProfilePoint] = field(default_factory=list)
    fig4_state_identical: bool = True
    fig4_counts_identical: bool = True
    fig4_by_type: Dict[str, int] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table(
            [
                "views", "reg us", "op us", "churn us",
                "idx cand", "parity",
            ],
            title="DM PROFILE — per-op directory cost vs registered views",
        )
        for p in self.points:
            t.add_row(
                p.n_views,
                f"{p.register_mean_us:.1f}",
                f"{p.pure_op_us:.1f}",
                f"{p.churn_cycle_us:.1f}",
                p.index_candidates,
                "ok" if p.conflict_parity else "DIVERGED",
            )
        return t


def sweep_points(
    ramp: Optional[Sequence[int]] = None,
    *,
    full: bool,
    max_views: Optional[int],
    **_: Any,
) -> List[int]:
    """Picklable point descriptors: one view count each — ``ramp``, or
    the default (``full``: the full) ramp capped at ``max_views``."""
    if ramp is None:
        ramp = capped_ramp(FULL_RAMP if full else DEFAULT_RAMP, max_views)
    return list(ramp)


def merge_dm_profile(
    points: List[int], partials: List[DmProfilePoint], **_: Any
) -> DmProfileResult:
    result = DmProfileResult(points=list(partials))
    (
        result.fig4_state_identical,
        result.fig4_counts_identical,
        result.fig4_by_type,
    ) = fig4_parity()
    return result


def _growth(points: List[Dict[str, Any]], key: str) -> float:
    """top-point / bottom-point ratio of one metric (0 when undefined)."""
    if len(points) < 2 or not points[0][key]:
        return 0.0
    return points[-1][key] / points[0][key]


def bench_payload(result: DmProfileResult) -> Dict[str, object]:
    """The ``BENCH_dmprofile.json`` document for one run."""
    points = [  # in ramp order, ascending
        point_doc(
            p, register_mean_us=2, pure_op_us=2, pure_phases_us=2,
            commit_mean_us=2, churn_cycle_us=2, elapsed_s=2,
        )
        for p in result.points
    ]
    ramp_top = points[-1]["n_views"] if points else 0
    ramp_bottom = points[0]["n_views"] if points else 0
    v_ratio = ramp_top / ramp_bottom if ramp_bottom else 0.0
    pinned = [p for p in points if p["n_views"] in GOLDEN_POINTS]
    return {
        "description": (
            "Directory op-path profile: per-op cost (conflict lookup + "
            "target build + fan-out + serve) vs registered-view count, "
            "census and end state pinned to the pre-index directory's"
        ),
        "command": "python -m repro.experiments.dm_profile --full",
        "ramp_top": ramp_top,
        "ramp_bottom": ramp_bottom,
        "view_ratio": round(v_ratio, 1),
        "pure_growth": round(_growth(points, "pure_op_us"), 2),
        "churn_growth": round(_growth(points, "churn_cycle_us"), 2),
        "conflict_parity": all(p["conflict_parity"] for p in points),
        "golden_points": len(pinned),
        "golden_counts_identical": all(
            p["by_type"] == GOLDEN_POINTS[p["n_views"]][1] for p in pinned
        ),
        "golden_state_identical": all(
            p["state_digest"] == GOLDEN_POINTS[p["n_views"]][0] for p in pinned
        ),
        "fig4_state_identical": result.fig4_state_identical,
        "fig4_counts_identical": result.fig4_counts_identical,
        "fig4_by_type": dict(result.fig4_by_type),
        "points": points,
    }


def gates(payload: Dict[str, Any]) -> List[str]:
    """The acceptance gates; returns a list of violations.

    Parity is enforced on every run (any ramp).  The performance gates
    arm only when the ramp reaches ``GATE_TOP`` views — the full run —
    because below that the deltas sit inside wall-clock noise:

    - per-op cost growth sub-linear in V (<= 0.5x the view ratio);
    - churn-burst growth bounded by conflict degree, not V.
    """
    problems = []
    if not payload["conflict_parity"]:
        problems.append(
            "conflict sets diverged from the brute-force reference"
        )
    if not payload["golden_counts_identical"]:
        problems.append(
            "a ramp point's Fig-4 message counts differ from the golden"
        )
    if not payload["golden_state_identical"]:
        problems.append("a ramp point's end state differs from the golden")
    if not payload["fig4_state_identical"]:
        problems.append("system workload end state differs from the golden")
    if not payload["fig4_counts_identical"]:
        problems.append(
            "system workload Fig-4 counts differ from the golden"
        )
    if payload["ramp_top"] >= GATE_TOP:
        v_ratio = payload["view_ratio"]
        if payload["pure_growth"] > 0.5 * v_ratio:
            problems.append(
                f"per-op cost grew {payload['pure_growth']}x "
                f"over a {v_ratio}x view ramp (need sub-linear: <= "
                f"{0.5 * v_ratio}x)"
            )
        churn_bound = max(8.0, 0.1 * v_ratio)
        if payload["churn_growth"] > churn_bound:
            problems.append(
                f"churn-burst cost grew "
                f"{payload['churn_growth']}x over a {v_ratio}x view "
                f"ramp (need bounded by conflict degree: <= {churn_bound}x)"
            )
    return problems


EXPERIMENT = Experiment(
    "dm_profile", ShardSpec(sweep_points, run_sweep_point, merge_dm_profile),
    params=(
        Param("--full", False,
              "include the 10k-view point (arms the performance gates)"),
        Param("--max-views", None,
              "cap the ramp at N views; N itself is the top point"),
    ),
    summarize=bench_payload, gates=gates, out="BENCH_dmprofile.json",
)
run_dm_profile = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
