"""What the benchmark measures: workloads, metrics, bounds, predictions.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; the self-test keeps the two equal.  The fields the driver's
contract has no key for — each per-layer metric's ``moves`` prediction
and the frozen open-loop rate — live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds one run measures (the contract's ``run_seconds``).  The
#: issue asked for 15 s; the driver's cap of 4 + 22 x 7 runs in 3420 s
#: leaves ~21 s per run including set-up, warm-up and gates, so it is
#: seven slices of 2 s (a 2 s slice of ``open_zipf`` still has ten ops
#: beyond its p90).
RUN_SECONDS = 14
WARMUP_S = 2.0
SLICES = 7
#: An op slower than this counts as failed.
OP_TIMEOUT_S = 5.0
#: Seats per flight: large enough that nothing ever sells out.
CAPACITY = 10**7

#: Open-loop arrival rate (ops/s) of ``open_zipf.composed``: about half
#: the closed-loop capacity of the same 256-view population on the seed
#: commit (2-core box, py3.11), measured once and frozen.
OPEN_ZIPF_RATE = 50.0


@dataclass(frozen=True)
class Shape:
    """One traffic shape; every number the generator needs."""

    views: int
    group: int            # views sharing one slice
    slice_len: int        # flights per slice
    mode: str             # "strong" | "weak"
    buy_ratio: float      # share of ops that reserve + push
    open_rate: float = 0.0  # >0: open loop, Poisson arrivals at this rate
    zipf: float = 0.0     # >0: arrivals pick views by Zipf(zipf)
    push_trigger: str = ""
    trigger_poll_ms: float = 100.0
    setup_repeats: int = 5  # set-ups per run; ``setup_s`` is their median
    in_flight: int = 0    # closed loop: views inside an op at once (0 = all)

    @property
    def flights(self) -> int:
        return (self.views // self.group) * self.slice_len


SHAPES: Dict[str, Shape] = {
    "disjoint_push": Shape(views=8, group=1, slice_len=5, mode="strong",
                           buy_ratio=1.0),
    "hot_pairs": Shape(views=8, group=2, slice_len=5, mode="strong",
                       buy_ratio=1.0),
    # Two ops in flight, the eight views taking turns: the whole plane
    # runs on one loop thread, so eight in flight only queue (same ops/s,
    # 8x the latency), and at ~20 ms an op every frame outlives
    # ReliableTransport's 10 ms ack timeout.  The retransmission storm
    # that follows made .composed bistable (350 or 490 ops/s per run,
    # run-to-run spread 0.2-0.4).  README.md, "Where this departs".
    "weak_readmix": Shape(views=8, group=4, slice_len=64, mode="weak",
                          buy_ratio=0.1,
                          push_trigger="reservations_made % 4 == 0",
                          trigger_poll_ms=20.0, in_flight=2),
    # Pairs, not the issue's groups of four: four strong views on four
    # hash-partitioned shards exhaust the router's acquire retries
    # ("disturbed after 8 attempts"), and the driver's contract wants
    # workloads on which no operation fails.  README.md has the numbers.
    "open_zipf": Shape(views=256, group=2, slice_len=5, mode="strong",
                       buy_ratio=1.0, open_rate=OPEN_ZIPF_RATE, zipf=1.2,
                       setup_repeats=3),
}

CONFIGS = ("composed", "stock")

#: (name, why).  A name is ``<shape>.<config>``.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("disjoint_push.composed",
     "8 strong views on disjoint slices: every op is one PUSH-commit-ack, so "
     "codec, transport, reliability, commit and WAL do all the work"),
    ("disjoint_push.stock",
     "the same traffic on builder defaults: the bypass leg for every "
     "fast-path layer"),
    ("hot_pairs.composed",
     "4 pairs of strong views share a slice: every op forces an "
     "INVALIDATE round, so scheduler, router fan-out and hold/disturb dominate"),
    ("hot_pairs.stock",
     "the same revocation rounds on one serial directory with no router"),
    ("weak_readmix.composed",
     "8 weak views taking turns, 2 ops in flight, 90% pull+browse, 10% "
     "buy+push on 64-flight slices: delta serve, decode and merge instead of "
     "commit"),
    ("weak_readmix.stock",
     "the same read-mostly mix with full-slice JSON serves: shows a push "
     "gain that costs pulls"),
    ("open_zipf.composed",
     "open loop, Poisson arrivals picking 1 of 256 views by Zipf(1.2): "
     "queueing shows in the tail, and set-up is registration throughput"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "build system + start() + init_image() of every view; median of "
           "the run's set-ups"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           "correct completed ops per second (open loop: goodput)"),
    Metric("op_p50_ms", "ms", "lower", 0.25, "median op latency"),
    Metric("op_p90_ms", "ms", "lower", 0.25,
           "p90 op latency: the highest percentile every workload has ten "
           "samples beyond in a 2 s slice"),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25,
           "process user+sys CPU over all threads / ops"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "ru_maxrss of the workload's process"),
)

#: Metrics whose value comes from per-slice samples (their calm quartile,
#: ``driver._calm``, is reported).
SLICED = ("ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op")


def _layer(rows: str) -> List[Tuple[str, str, str, List[Tuple[str, str]]]]:
    """Parse ``name unit better metric@workload,...`` lines."""
    out = []
    for line in rows.strip().splitlines():
        name, unit, better, moves = line.split()
        out.append((name, unit, better, [
            tuple(m.split("@")) for m in moves.split(",") if m != "-"
        ]))
    return out


#: (name, unit, better, moves).  ``moves`` is the prediction written
#: down before measuring: which end-to-end metric this layer metric
#: should move, on which workload (``*`` = every leg of that shape).
PER_LAYER = _layer("""
cache_manager.start_use_us us lower op_p50_ms@hot_pairs.*
cache_manager.pull_us us lower op_p50_ms@weak_readmix.*
cache_manager.push_us us lower op_p50_ms@disjoint_push.*
cache_manager.extract_view_us us lower cpu_ms_per_op@weak_readmix.*
cache_manager.merge_view_us us lower op_p50_ms@weak_readmix.*
cache_manager.trigger_eval_us us lower cpu_ms_per_op@weak_readmix.*
cache_manager.trigger_fires count lower -
cache_manager.local_grant_ratio ratio higher op_p50_ms@disjoint_push.*
cache_manager.share ratio lower op_p50_ms@weak_readmix.*
router.send_us us lower op_p50_ms@hot_pairs.composed
router.fanouts_per_op count lower op_p50_ms@hot_pairs.composed,op_p50_ms@open_zipf.composed
router.cross_shard_ratio ratio lower op_p50_ms@hot_pairs.composed
router.acquire_retries_per_op count lower op_p90_ms@hot_pairs.composed,op_p90_ms@open_zipf.composed
router.invalidates_held_per_op count lower op_p90_ms@hot_pairs.composed
router.synthesized_pushes_per_op count lower cpu_ms_per_op@hot_pairs.composed
router.share ratio lower op_p50_ms@hot_pairs.composed
codec.encode_us us lower cpu_ms_per_op@disjoint_push.*
codec.decode_us us lower cpu_ms_per_op@weak_readmix.*
codec.bytes_per_frame B lower op_p50_ms@weak_readmix.*
codec.compressed_frame_ratio ratio higher -
codec.bytes_saved_ratio ratio higher -
codec.share ratio lower cpu_ms_per_op@disjoint_push.*,op_p50_ms@weak_readmix.*
reliability.acks_per_op count lower cpu_ms_per_op@disjoint_push.composed
reliability.wire_frames_per_logical_msg ratio lower ops_per_s@disjoint_push.composed
reliability.retransmits count lower ops_per_s@hot_pairs.composed
reliability.duplicates_suppressed count lower -
reliability.share ratio lower ops_per_s@disjoint_push.composed
transport.send_us us lower op_p50_ms@disjoint_push.*
transport.deliver_us us lower op_p50_ms@disjoint_push.*
transport.msgs_per_op count lower ops_per_s@hot_pairs.*
transport.bytes_per_op B lower op_p50_ms@weak_readmix.*
transport.frames_per_op count lower cpu_ms_per_op@disjoint_push.*
transport.coalesced_ratio ratio higher cpu_ms_per_op@disjoint_push.composed
transport.send_queue_hwm count lower op_p90_ms@open_zipf.composed
transport.backpressure_stalls count lower -
transport.share ratio lower op_p50_ms@disjoint_push.*
directory.handler_busy_us_per_op us lower ops_per_s@hot_pairs.*
directory.busy_share ratio lower ops_per_s@hot_pairs.*
directory.phase.conflict_us us lower op_p90_ms@open_zipf.composed
directory.phase.targets_us us lower ops_per_s@hot_pairs.*
directory.phase.fanout_us us lower ops_per_s@hot_pairs.*
directory.phase.serve_us us lower op_p50_ms@weak_readmix.*
directory.phase.commit_us us lower op_p50_ms@disjoint_push.*
directory.phase.queue_wait_us us lower op_p90_ms@hot_pairs.*
directory.rounds_per_op count lower ops_per_s@hot_pairs.*
directory.regrants_per_op count lower -
directory.concurrent_rounds_hwm count higher ops_per_s@hot_pairs.composed
directory.delta_serve_ratio ratio higher op_p50_ms@weak_readmix.composed
directory.round_faults count lower -
directory.quarantined count lower -
directory.share ratio lower ops_per_s@hot_pairs.*,setup_s@open_zipf.composed
durability.append_us us lower op_p50_ms@disjoint_push.composed
durability.sync_us us lower op_p50_ms@disjoint_push.composed
durability.syncs_per_commit ratio lower ops_per_s@disjoint_push.composed
durability.wal_bytes_per_commit B lower -
durability.snapshots count lower op_p90_ms@disjoint_push.composed
durability.recover_ms ms lower -
durability.cells_replayed count lower -
durability.share ratio lower ops_per_s@disjoint_push.composed
app.extract_object_us us lower op_p50_ms@weak_readmix.stock
app.merge_object_us us lower op_p50_ms@disjoint_push.*
app.extract_cells_us us lower op_p50_ms@weak_readmix.composed
app.share ratio lower op_p50_ms@weak_readmix.*
driver.share ratio lower -
driver.ops_per_s 1/s higher -
driver.op_p99_ms ms lower -
driver.fail_ratio ratio lower -
driver.late_start_p99_ms ms lower -
budget.accounted_share ratio higher -
budget.unaccounted_share ratio lower -
budget.trace_overhead_ratio ratio higher -
""")

#: Layers of the budget table, outermost first; each has a ``.share``.
LAYERS = ("driver", "cache_manager", "router", "reliability", "transport",
          "codec", "directory", "durability", "app")


def workload_names() -> List[str]:
    return [name for name, _ in WORKLOADS]


def split_workload(name: str) -> Tuple[Shape, str, str]:
    """``"hot_pairs.stock"`` -> (its Shape, ``"hot_pairs"``, ``"stock"``)."""
    shape, _, config = name.partition(".")
    if name not in workload_names():
        raise ValueError(
            f"unknown workload {name!r}; one of {workload_names()}"
        )
    return SHAPES[shape], shape, config


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
