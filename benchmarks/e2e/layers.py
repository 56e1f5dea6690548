"""Per-layer metrics of a traced run: public counters + wrapper spans.

Counters are read at the two edges of the traced window and differenced
(gauges are read at the end); timings come from the spans the wrappers
recorded.  A layer a configuration does not have (router, reliability
and durability on ``stock``) reports zeros.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spec import LAYERS, PER_LAYER
from .stack import Stack
from .tracing import Span, Tracer, call_stats, layer_budget

_PHASES = ("conflict", "targets", "fanout", "serve", "commit", "queue_wait")


def snapshot(stack: Stack) -> Dict[str, float]:
    """Every public counter the metrics below difference, flattened."""
    snap: Dict[str, float] = {}
    chain = stack.transport_chain()
    wire, logical = chain[-1].stats, chain[0].stats
    for field in ("total", "bytes_sent", "encodes", "flushes_coalesced",
                  "backpressure_stalls", "frames_compressed", "frames_stored",
                  "bytes_saved_compression"):
        snap[f"wire.{field}"] = getattr(wire, field)
    for field in ("total", "retransmits", "duplicates_suppressed",
                  "acks_sent"):
        snap[f"logical.{field}"] = getattr(logical, field)
    for key, value in stack.counters().items():
        snap[f"dir.{key}"] = value
    for cm in stack.cms:
        snap["cm.trigger_fires"] = (
            snap.get("cm.trigger_fires", 0) + cm.counters["trigger_fires"]
        )
    for dm in stack.shards:
        if dm.durability is not None:
            for key, value in dm.durability.counters.items():
                snap[f"wal.{key}"] = snap.get(f"wal.{key}", 0) + value
        if dm.profiler is not None:
            for phase, hist in dm.profiler.phases.items():
                snap[f"phase.{phase}.ns"] = (
                    snap.get(f"phase.{phase}.ns", 0) + hist.total_ns
                )
                snap[f"phase.{phase}.n"] = (
                    snap.get(f"phase.{phase}.n", 0) + hist.count
                )
    snap["gauge.quarantined"] = len(stack.quarantined())
    snap["gauge.rounds_hwm"] = max(
        dm.counters["concurrent_rounds_hwm"] for dm in stack.shards)
    snap["gauge.send_queue_hwm"] = wire.send_queue_hwm
    for layer, traced in stack.traced_transports.items():
        snap[f"deliver.{layer}.ns"] = traced.deliver_ns
        snap[f"deliver.{layer}.n"] = traced.delivered
    return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    stack: Stack,
    tracer: Tracer,
    span_ids: List[int],
    spans: List[Span],
    before: Dict[str, float],
    after: Dict[str, float],
    window_ns: Tuple[int, int],
    op_windows: List[Tuple[float, float]],
    ops: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every metric ``spec.PER_LAYER`` names, by name."""
    d = {k: after[k] - before.get(k, 0) for k in after}
    calls = call_stats(spans)

    def mean_us(layer: str, name: str) -> float:
        n, ns = calls.get((layer, name), (0, 0))
        return _ratio(ns, n) / 1e3

    def completion_us(name: str) -> float:
        n, ns, _sync = tracer.completions.get(("cache_manager", name), (0, 0, 0))
        return _ratio(ns, n) / 1e3

    def phase_us(phase: str) -> float:
        return _ratio(d.get(f"phase.{phase}.ns", 0),
                      d.get(f"phase.{phase}.n", 0)) / 1e3

    per_op = lambda key: _ratio(d.get(key, 0), ops)  # noqa: E731
    start_use = tracer.completions.get(
        ("cache_manager", "start_use_image"), (0, 0, 0))
    handle_ns = calls.get(("directory", "handle"), (0, 0))[1]
    serves = d.get("dir.delta_serves", 0) + d.get("dir.full_serves", 0)
    rounds = (d.get("dir.cross_shard_rounds", 0)
              + d.get("dir.shard_local_rounds", 0))
    frames = d["wire.frames_compressed"] + d["wire.frames_stored"]
    shares = layer_budget(spans, span_ids, op_windows, *window_ns)
    m: Dict[str, float] = {
        "cache_manager.start_use_us": completion_us("start_use_image"),
        "cache_manager.pull_us": completion_us("pull_image"),
        "cache_manager.push_us": completion_us("push_image"),
        "cache_manager.extract_view_us": mean_us("cache_manager", "extract_view"),
        "cache_manager.merge_view_us": mean_us("cache_manager", "merge_view"),
        "cache_manager.trigger_eval_us": mean_us("cache_manager", "trigger_eval"),
        "cache_manager.trigger_fires": d["cm.trigger_fires"],
        "cache_manager.local_grant_ratio": _ratio(start_use[2], start_use[0]),
        "router.send_us": mean_us("router", "send"),
        "router.fanouts_per_op": per_op("dir.router_fanouts"),
        "router.cross_shard_ratio": _ratio(
            d.get("dir.cross_shard_rounds", 0), rounds),
        "router.acquire_retries_per_op": per_op("dir.acquire_retries"),
        "router.invalidates_held_per_op": per_op("dir.invalidates_held"),
        "router.synthesized_pushes_per_op": per_op("dir.synthesized_pushes"),
        "codec.encode_us": mean_us("codec", "encode"),
        "codec.decode_us": mean_us("codec", "decode"),
        "codec.bytes_per_frame": _ratio(d["wire.bytes_sent"], d["wire.encodes"]),
        "codec.compressed_frame_ratio": _ratio(
            d["wire.frames_compressed"], frames),
        "codec.bytes_saved_ratio": _ratio(
            d["wire.bytes_saved_compression"],
            d["wire.bytes_sent"] + d["wire.bytes_saved_compression"]),
        "reliability.acks_per_op": per_op("logical.acks_sent"),
        "reliability.wire_frames_per_logical_msg": (
            _ratio(d["wire.encodes"], d["logical.total"])
            if stack.config == "composed" else 0.0),
        "reliability.retransmits": d["logical.retransmits"],
        "reliability.duplicates_suppressed": d["logical.duplicates_suppressed"],
        "transport.send_us": mean_us("transport", "send"),
        "transport.deliver_us": _ratio(
            d.get("deliver.transport.ns", 0), d.get("deliver.transport.n", 0)
        ) / 1e3,
        "transport.msgs_per_op": per_op("logical.total"),
        "transport.bytes_per_op": per_op("wire.bytes_sent"),
        "transport.frames_per_op": per_op("wire.encodes"),
        "transport.coalesced_ratio": _ratio(
            d["wire.flushes_coalesced"], d["wire.total"]),
        "transport.send_queue_hwm": after["gauge.send_queue_hwm"],
        "transport.backpressure_stalls": d["wire.backpressure_stalls"],
        "directory.handler_busy_us_per_op": _ratio(handle_ns, ops) / 1e3,
        "directory.busy_share": _ratio(handle_ns, window_ns[1] - window_ns[0]),
        "directory.rounds_per_op": per_op("dir.rounds"),
        "directory.regrants_per_op": per_op("dir.regrants"),
        "directory.concurrent_rounds_hwm": after["gauge.rounds_hwm"],
        "directory.delta_serve_ratio": _ratio(
            d.get("dir.delta_serves", 0), serves),
        "directory.round_faults": d.get("dir.round_faults", 0),
        "directory.quarantined": after["gauge.quarantined"],
        "durability.append_us": mean_us("durability", "append"),
        "durability.sync_us": mean_us("durability", "sync"),
        "durability.syncs_per_commit": _ratio(
            d.get("wal.wal_syncs", 0), d.get("wal.wal_appends", 0)),
        "durability.snapshots": d.get("wal.snapshots_written", 0),
        "app.extract_object_us": mean_us("app", "extract_object"),
        "app.merge_object_us": mean_us("app", "merge_object"),
        "app.extract_cells_us": mean_us("app", "extract_cells"),
        "budget.unaccounted_share": shares["unaccounted"],
        "budget.accounted_share": 1.0 - shares["unaccounted"],
    }
    for phase in _PHASES:
        m[f"directory.phase.{phase}_us"] = phase_us(phase)
    for layer in LAYERS:
        m[f"{layer}.share"] = shares.get(layer, 0.0)
    m.update(extra)
    missing = [n for n, *_ in PER_LAYER if n not in m]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {name: float(m[name]) for name, *_ in PER_LAYER}
