"""Concurrent round scheduler: makespan vs the serial directory queue.

PR 10 replaces the directory manager's single in-flight op slot with a
conflict-aware round scheduler (``concurrent_rounds``): independent
rounds — those whose conflict scopes are disjoint — may overlap their
ACK waits instead of queueing behind one another.  This experiment
measures that win and polices the safety story:

- **Harness** — :class:`repro.testing.BareDirectory`: a *bare*
  :class:`~repro.core.directory.DirectoryManager` on a
  :class:`~repro.net.sim_transport.SimTransport`, driven by one fake
  cache-manager hub that *delays* its INVALIDATE/FETCH acks by a full
  simulated second (scheduled on the sim kernel, not sent inline — the
  round holds its op slot for the whole wait).  That wait dwarfs every
  other latency, so
  the makespan of a burst of rounds is dominated by how many of those
  waits the scheduler can overlap — exactly the quantity the tentpole
  claims to improve.
- **Workload** — G independent pair groups (views ``2k``/``2k+1``
  share ``grp{k}``, nothing crosses groups).  The partner view of each
  group is pulled active, then every group leader ACQUIREs at once:
  G revocation rounds whose scopes are pairwise disjoint.  The serial
  queue serves them one ack wait at a time (makespan ~ G seconds of
  simulated time); the concurrent scheduler overlaps them (makespan
  ~ 1 second, or ~ G/N with a bound of N).
- **Legs** — ``serial`` (``concurrent_rounds=1``, the pre-PR
  discipline), ``bounded4`` (at most 4 in-flight rounds) and
  ``unbounded`` (0 = every independent round starts immediately).
  All three legs run the identical message program and must agree on
  Fig-4 message counts, end state and protocol invariants.
- **Randomized-interleaving parity** — a seeded program of drained
  batches, each batch issuing one op (pull/acquire/push/register) per
  randomly chosen group, replays on all three legs.  Because batches
  touch each group at most once and groups are mutually independent,
  the per-group histories are schedule-independent — so end state,
  message counts *and* conflict answers must match exactly, whatever
  interleaving the scheduler picked.  This is the ``--check`` gate the
  PR's acceptance criteria require on every run.

``python -m repro.experiments.dm_sched`` writes ``BENCH_dmsched.json``;
``--check`` exits non-zero when a gate fails (>= 2x rounds/sec for the
unbounded leg over serial, overlap actually witnessed via the
``concurrent_rounds_hwm`` gauge, and all parity gates green).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import DiscreteSet, Property, PropertySet
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, Param, ShardSpec, cli, point_doc
from repro.net.message import reset_message_ids
from repro.testing import BareDirectory, pair_group_props

#: Independent conflict groups in the measured burst.  The acceptance
#: criterion asks for >= 8; 16 keeps the serial-vs-concurrent gap far
#: from the gate even with scheduling overheads.
N_GROUPS = 16

#: Simulated-time delay before the hub acknowledges an INVALIDATE or
#: FETCH_REQ — the "slow cache manager" whose ack wait the scheduler
#: should overlap.  Two orders of magnitude above the 0.01 hop latency.
ACK_DELAY = 1.0

#: (leg name, concurrent_rounds) — serial first: it is the baseline.
LEGS: Tuple[Tuple[str, int], ...] = (
    ("serial", 1),
    ("bounded4", 4),
    ("unbounded", 0),
)

#: Randomized-interleaving parity program shape.
PARITY_SEED = 1234
PARITY_GROUPS = 8
PARITY_BATCHES = 14


def _vid(i: int) -> str:
    return f"s{i:05d}"


def _churn_props(g: int, c: int) -> PropertySet:
    """The c-th churn view of group g: joins that group's cell."""
    return PropertySet([
        Property("cells", DiscreteSet({f"churn{g:03d}x{c:03d}", f"grp{g:05d}"}))
    ])


@dataclass
class DmSchedPoint:
    """One leg's measured burst of G independent revocation rounds."""

    leg: str                    # 'serial' | 'bounded4' | 'unbounded'
    concurrent_rounds: int      # the scheduler bound (1 / 4 / 0)
    n_groups: int
    makespan_s: float           # simulated time for the ACQUIRE burst
    rounds_per_sec: float       # n_groups / makespan (simulated time)
    concurrent_rounds_hwm: int  # high-water mark of in-flight rounds
    rounds_overlapped: int      # round starts that joined >= 1 in-flight
    sched_conflict_waits: int   # ops that waited on a conflicting round
    queue_wait_mean_us: float   # profiler: enqueue -> round start
    queue_wait_count: int
    by_type: Dict[str, int]     # Fig-4 message counts for the point
    bytes_sent: int             # wire bytes (informational; msg-id digit
                                # counts permute across schedules)
    state_digest: str
    invariants_ok: bool
    elapsed_s: float


def _run_point(leg: str, limit: int, n_groups: int) -> DmSchedPoint:
    reset_message_ids()
    t_start = time.perf_counter()
    h = BareDirectory(ack_delay=ACK_DELAY, concurrent_rounds=limit)

    # Setup (drained, unmeasured): register both halves of every pair,
    # then pull each partner active so the leaders' ACQUIREs must run a
    # revocation round against them.
    for i in range(2 * n_groups):
        h.register(_vid(i), pair_group_props(i))
    h.drain()
    for k in range(n_groups):
        h.pull(_vid(2 * k + 1))
    h.drain()

    # Measured burst: one ACQUIRE per group, issued back to back.  Each
    # triggers an INVALIDATE round whose ack arrives ACK_DELAY later;
    # the scopes are pairwise disjoint, so a conflict-aware scheduler
    # may overlap all G waits.  Makespan is simulated time, so harness
    # CPU cost cancels out entirely.
    t0 = h.now()
    for k in range(n_groups):
        h.acquire(_vid(2 * k))
    h.drain()
    makespan = h.now() - t0

    # Post-burst (drained, deterministic): every leader pushes, so the
    # end-state digest witnesses that commits survived the scheduling.
    for k in range(n_groups):
        h.push(_vid(2 * k), {f"grp{k:05d}": k + 1, f"own{2 * k:05d}": k})
    h.drain()

    invariants_ok = True
    try:
        h.dm.check_invariants()
    except Exception:
        invariants_ok = False

    prof = h.dm.profiler
    qw = prof.phases.get("queue_wait")
    point = DmSchedPoint(
        leg=leg,
        concurrent_rounds=limit,
        n_groups=n_groups,
        makespan_s=makespan,
        rounds_per_sec=n_groups / makespan if makespan else 0.0,
        concurrent_rounds_hwm=h.dm.counters["concurrent_rounds_hwm"],
        rounds_overlapped=h.dm.counters["rounds_overlapped"],
        sched_conflict_waits=h.dm.counters["sched_conflict_waits"],
        queue_wait_mean_us=qw.mean_ns / 1000 if qw is not None else 0.0,
        queue_wait_count=qw.count if qw is not None else 0,
        by_type=dict(h.transport.stats.by_type),
        bytes_sent=h.transport.stats.bytes_sent,
        state_digest=h.state_digest(),
        invariants_ok=invariants_ok,
        elapsed_s=time.perf_counter() - t_start,
    )
    h.close()
    return point


# ---------------------------------------------------------------------------
# Randomized-interleaving parity
# ---------------------------------------------------------------------------

def _parity_program(
    seed: int, n_groups: int, batches: int
) -> List[List[Tuple[str, int]]]:
    """A seeded program of drained batches, one op per chosen group.

    Each batch picks a random subset of groups and one verb per group:
    ``pull_even`` / ``pull_odd`` / ``acquire_even`` / ``acquire_odd`` /
    ``push_even`` / ``push_odd`` / ``register_churn`` / ``pull_churn``.
    Batches are drained before the next begins.  Because a batch
    touches each group at most once and groups are mutually
    independent, every group's op history — and therefore its message
    counts and end state — is identical whatever order the scheduler
    interleaves the groups in.  That confluence is what makes *exact*
    cross-leg parity assertable on a randomized program.
    """
    rng = random.Random(seed)
    verbs = (
        "pull_even", "pull_odd", "acquire_even", "acquire_odd",
        "push_even", "push_odd", "register_churn", "pull_churn",
    )
    program: List[List[Tuple[str, int]]] = []
    for _ in range(batches):
        chosen = rng.sample(range(n_groups), k=rng.randint(1, n_groups))
        program.append([(rng.choice(verbs), g) for g in chosen])
    return program


def _replay_program(
    h: BareDirectory, program: List[List[Tuple[str, int]]], n_groups: int
) -> None:
    churn_count: Dict[int, int] = {}
    for batch in program:
        for verb, g in batch:
            even, odd = _vid(2 * g), _vid(2 * g + 1)
            if verb == "pull_even":
                h.pull(even)
            elif verb == "pull_odd":
                h.pull(odd)
            elif verb == "acquire_even":
                h.acquire(even)
            elif verb == "acquire_odd":
                h.acquire(odd)
            elif verb == "push_even":
                h.push(even, {f"grp{g:05d}": len(churn_count) + 1})
            elif verb == "push_odd":
                h.push(odd, {f"own{2 * g + 1:05d}": g})
            elif verb == "register_churn":
                c = churn_count.get(g, 0)
                churn_count[g] = c + 1
                h.register(f"churn{g:03d}x{c:03d}", _churn_props(g, c))
            elif verb == "pull_churn":
                c = churn_count.get(g, 0)
                if c:
                    h.pull(f"churn{g:03d}x{c - 1:03d}")
        h.drain()
        h.dm.check_invariants()


def randomized_parity(
    seed: int,
    n_groups: int = PARITY_GROUPS,
    batches: int = PARITY_BATCHES,
) -> Dict[str, Any]:
    """Replay one seeded interleaving program on all three legs.

    Returns per-leg fingerprints plus the three parity verdicts the
    acceptance gate checks: identical end state, identical Fig-4
    message counts, identical conflict answers.
    """
    program = _parity_program(seed, n_groups, batches)
    digests: List[str] = []
    by_types: List[Dict[str, int]] = []
    conflicts: List[str] = []
    invariants = True
    for leg, limit in LEGS:
        reset_message_ids()
        h = BareDirectory(ack_delay=ACK_DELAY, concurrent_rounds=limit)
        for i in range(2 * n_groups):
            h.register(_vid(i), pair_group_props(i))
        h.drain()
        try:
            _replay_program(h, program, n_groups)
        except Exception:
            invariants = False
        digests.append(h.state_digest())
        by_types.append(dict(h.transport.stats.by_type))
        conflicts.append(h.conflict_digest())
        h.close()
    return {
        "seed": seed,
        "n_groups": n_groups,
        "batches": batches,
        "state_identical": len(set(digests)) == 1,
        "counts_identical": all(bt == by_types[0] for bt in by_types),
        "conflicts_identical": len(set(conflicts)) == 1,
        "invariants_ok": invariants,
        "state_digest": digests[0],
        "by_type": by_types[0],
    }


@dataclass
class DmSchedResult:
    points: List[DmSchedPoint] = field(default_factory=list)
    parity: Dict[str, Any] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table(
            [
                "leg", "bound", "groups", "makespan s", "rounds/s",
                "hwm", "overlapped", "waits", "qwait us",
            ],
            title="DM SCHED — concurrent rounds vs the serial queue",
        )
        for p in self.points:
            t.add_row(
                p.leg, p.concurrent_rounds, p.n_groups,
                f"{p.makespan_s:.2f}", f"{p.rounds_per_sec:.2f}",
                p.concurrent_rounds_hwm, p.rounds_overlapped,
                p.sched_conflict_waits,
                f"{p.queue_wait_mean_us:.1f}",
            )
        return t


def sweep_points(groups: int, **_: Any) -> List[Tuple[str, int, int]]:
    """Picklable point descriptors: ``(leg, bound, n_groups)``."""
    return [(leg, limit, groups) for leg, limit in LEGS]


def run_sweep_point(point: Tuple[str, int, int], **_: Any) -> DmSchedPoint:
    return _run_point(*point)


def merge_dm_sched(
    points: List[Tuple[str, int, int]],
    partials: List[DmSchedPoint],
    seed: int,
    **_: Any,
) -> DmSchedResult:
    return DmSchedResult(points=list(partials), parity=randomized_parity(seed))


def bench_payload(result: DmSchedResult) -> Dict[str, object]:
    """The ``BENCH_dmsched.json`` document for one run."""
    points = [
        point_doc(
            p, makespan_s=4, rounds_per_sec=3, queue_wait_mean_us=2,
            elapsed_s=2,
        )
        for p in result.points
    ]
    by_leg = {p["leg"]: p for p in points}
    serial = by_leg.get("serial")
    bounded = by_leg.get("bounded4")
    unbounded = by_leg.get("unbounded")

    def _speedup(fast: Optional[Dict[str, Any]]) -> float:
        if not serial or not fast or not fast["makespan_s"]:
            return 0.0
        return serial["makespan_s"] / fast["makespan_s"]

    return {
        "description": (
            "Concurrent directory rounds: conflict-aware scheduler "
            "makespan vs the serial FIFO on independent revocation "
            "rounds whose ACK waits dominate"
        ),
        "command": "python -m repro.experiments.dm_sched",
        "n_groups": serial["n_groups"] if serial else 0,
        "ack_delay_s": ACK_DELAY,
        "speedup_bounded4": round(_speedup(bounded), 2),
        "speedup_unbounded": round(_speedup(unbounded), 2),
        "serial_hwm": serial["concurrent_rounds_hwm"] if serial else 0,
        "unbounded_hwm": (
            unbounded["concurrent_rounds_hwm"] if unbounded else 0
        ),
        "leg_counts_identical": all(
            p["by_type"] == points[0]["by_type"] for p in points
        ),
        "leg_state_identical": all(
            p["state_digest"] == points[0]["state_digest"] for p in points
        ),
        "invariants_ok": all(p["invariants_ok"] for p in points),
        "randomized_parity": dict(result.parity),
        "points": points,
    }


def gates(payload: Dict[str, Any]) -> List[str]:
    """The PR's acceptance gates; returns a list of violations.

    All gates are armed on every run (there is no noise to hide from:
    makespan is simulated time):

    - the unbounded leg completes the burst >= 2x faster (rounds/sec)
      than the serial queue, on >= 8 independent conflict groups;
    - overlap actually happened (``concurrent_rounds_hwm`` > 1 on the
      unbounded leg) and never happened on the serial leg (hwm <= 1);
    - all legs agree exactly: Fig-4 message counts, end state, protocol
      invariants;
    - the randomized-interleaving program replayed identically on every
      leg: end state, message counts and conflict answers.
    """
    problems = []
    if payload["n_groups"] < 8:
        problems.append(
            f"burst ran {payload['n_groups']} conflict groups (need >= 8)"
        )
    if payload["speedup_unbounded"] < 2.0:
        problems.append(
            f"unbounded scheduler only {payload['speedup_unbounded']}x "
            f"faster than the serial queue (need >= 2x)"
        )
    if payload["serial_hwm"] > 1:
        problems.append(
            f"serial leg overlapped rounds (hwm={payload['serial_hwm']}): "
            f"concurrent_rounds=1 must keep the one-op discipline"
        )
    if payload["unbounded_hwm"] < 2:
        problems.append(
            "unbounded leg never overlapped rounds (hwm "
            f"{payload['unbounded_hwm']}): the speedup is not the "
            "scheduler's"
        )
    if not payload["leg_counts_identical"]:
        problems.append("legs produced different Fig-4 message counts")
    if not payload["leg_state_identical"]:
        problems.append("legs produced different end state")
    if not payload["invariants_ok"]:
        problems.append("protocol invariants violated on some leg")
    par = payload["randomized_parity"]
    if not par.get("state_identical"):
        problems.append("randomized interleaving: end state diverged")
    if not par.get("counts_identical"):
        problems.append("randomized interleaving: message counts diverged")
    if not par.get("conflicts_identical"):
        problems.append("randomized interleaving: conflict answers diverged")
    if not par.get("invariants_ok"):
        problems.append("randomized interleaving: invariant check failed")
    return problems


EXPERIMENT = Experiment(
    "dm_sched", ShardSpec(sweep_points, run_sweep_point, merge_dm_sched),
    params=(
        Param("--groups", N_GROUPS, "independent conflict groups in the burst"),
        Param("--seed", PARITY_SEED,
              "seed for the randomized-interleaving parity program"),
    ),
    seeded=True,
    summarize=bench_payload, gates=gates, out="BENCH_dmsched.json",
)
run_dm_sched = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
