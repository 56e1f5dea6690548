"""One workload, one process: set up, warm up, measure, gate, report."""

from __future__ import annotations

import itertools
import os
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

from . import gates
from .calibrate import Yardstick
from .driver import Load
from .inputs import make_inputs
from .layers import per_layer_metrics, snapshot
from .report import OUT_DIR
from .spec import (
    END_TO_END,
    PER_LAYER,
    SLICED,
    SLICES,
    WARMUP_S,
    split_workload,
)
from .stack import Stack, timed_setup
from .tracing import Tracer, clock_ns, write_jsonl

_UNITS = {m.name: m.unit for m in END_TO_END}
_UNITS.update({name: unit for name, unit, *_ in PER_LAYER})


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    transport: str = "aio",
    op_sleep_ms: float = 0.0,
    out_dir: Path = OUT_DIR,
) -> Dict[str, Any]:
    """Run one workload; returns its section of the result document."""
    shape, shape_name, config = split_workload(name)
    warmup = min(WARMUP_S, seconds / 2)
    inputs = make_inputs(shape_name, shape, seed, warmup + seconds)
    wal_root = out_dir / f"wal-{os.getpid()}"
    wal_dirs = (wal_root / str(i) for i in itertools.count())
    try:
        if trace:
            doc = _traced(name, config, inputs, seconds, warmup, transport,
                          wal_dirs, out_dir)
        else:
            doc = _untraced(config, inputs, seconds, warmup, transport,
                            wal_dirs, op_sleep_ms)
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    doc["correct"] = not doc["violations"]
    return doc


def _gate(stack: Stack, load: Load) -> List[str]:
    check = gates.check_weak if load.inputs.shape.mode == "weak" \
        else gates.check_strong
    return check(stack, load)


def _valued(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {k: {"value": v, "unit": _UNITS[k]} for k, v in values.items()}


def _untraced(config, inputs, seconds, warmup, transport, wal_dirs,
              op_sleep_ms) -> Dict[str, Any]:
    setups: List[float] = []
    raw_setups: List[float] = []
    yardstick = Yardstick()
    stack = None
    for _ in range(inputs.shape.setup_repeats):
        if stack is not None:
            stack.close()
        t0 = time.perf_counter()
        for _ in range(5):
            yardstick.sample()
        stack, took = timed_setup(config, inputs, next(wal_dirs), transport)
        raw_setups.append(took)
        setups.append(took / yardstick.factor(since=t0))
    try:
        load = Load(stack, inputs, op_sleep_s=op_sleep_ms / 1e3)
        load.run(warmup, seconds, SLICES)
        summary = load.summary()
        violations = _gate(stack, load)
        knobs = stack.knobs()
    finally:
        stack.close()
    values = dict(summary["values"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    metrics = _valued({m.name: values[m.name] for m in END_TO_END})
    for key in SLICED:
        metrics[key]["slices"] = summary["slices"][key]
    metrics["setup_s"]["slices"] = setups
    raw = dict(summary["raw"], setup_s=statistics.median(raw_setups))
    for key, value in raw.items():
        metrics[key]["raw"] = value
    return {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "violations": violations,
        "metrics": metrics,
        "knobs": knobs,
        "diagnostics": {
            "speed_factors": summary["speed_factors"],
            "slice_ops": summary["slice_ops"],
            "fail_ratio": summary["fail_ratio"],
            "op_p99_ms": summary["op_p99_ms"],
            "late_start_p99_ms": summary["late_start_p99_ms"],
        },
    }


def _traced(name, config, inputs, seconds, warmup, transport, wal_dirs,
            out_dir) -> Dict[str, Any]:
    # Half the time on a bare stack — tracing overhead is the ratio of
    # the two halves' ops/s — and half on the instrumented one.
    stack, _ = timed_setup(config, inputs, next(wal_dirs), transport)
    try:
        bare = Load(stack, inputs)
        bare.run(warmup / 2, seconds / 2, SLICES)
        bare_ops_per_s = bare.summary()["ops_per_s_window"]
    finally:
        stack.close()

    tracer = Tracer()
    stack, _ = timed_setup(config, inputs, next(wal_dirs), transport, tracer)
    try:
        load = Load(stack, inputs)
        edges: List[Any] = []

        def on_window(opening: bool) -> None:
            tracer.on = False
            # Counters are read on the thread that writes them.
            edges.append((stack.call_on_loop(lambda: snapshot(stack)),
                          clock_ns()))
            tracer.on = opening

        load.run(warmup / 2, seconds / 2, SLICES, on_window)
        span_ids, spans = tracer.freeze()
        summary = load.summary()
        violations = _gate(stack, load)
        extra = {
            "durability.wal_bytes_per_commit": (
                statistics.fmean(stack.wal_record_sizes)
                if stack.wal_record_sizes else 0.0),
            "durability.recover_ms": 0.0,
            "durability.cells_replayed": 0.0,
            "driver.ops_per_s": summary["ops_per_s_window"],
            "driver.op_p99_ms": summary["op_p99_ms"],
            "driver.fail_ratio": summary["fail_ratio"],
            "driver.late_start_p99_ms": summary["late_start_p99_ms"],
            "budget.trace_overhead_ratio":
                summary["ops_per_s_window"] / bare_ops_per_s,
        }
        if config == "composed":
            problems, recovered = gates.check_recovery(stack)
            violations += problems
            extra.update({f"durability.{k}": v for k, v in recovered.items()})
        (before, t0), (after, t1) = edges
        values = per_layer_metrics(
            stack, tracer, span_ids, spans, before, after, (t0, t1),
            [(int(due * 1e9), int(done * 1e9)) for due, done, _ in load.ops()],
            summary["ok_ops"], extra,
        )
        knobs = stack.knobs()
    finally:
        stack.close()
    write_jsonl(out_dir / f"{name}.trace.jsonl", span_ids, spans)
    return {
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "violations": violations,
        "metrics": _valued(values),
        "knobs": knobs,
        "diagnostics": {"spans": len(spans), "spans_dropped": tracer.dropped},
    }
