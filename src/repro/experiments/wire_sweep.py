"""Wire-codec sweep: JSON vs binary vs binary+zlib payload bytes.

A/Bs the wire codecs over the two workloads that exercise the
serialization layer hardest:

- the **delta-sweep store workload** (one writer committing
  ``dirty_per_round`` rotating cells per round, one reader pulling once
  per round, strict-wire simulated transport) at a PUSH/PULL_DATA-heavy
  all-dirty point and a large-view low-locality delta point;
- a small **Fig-4 airline workload** (travel agents reserving seats
  against the flight database) run strict-wire under every codec.

What the A/B must show:

- **wire win** — the binary codec shrinks the data-carrying payload
  bytes (PUSH + PULL_DATA + INIT_DATA) by >= 2x on the PUSH-heavy
  point; adaptive zlib compression reaches >= 3x on the 512-cell point
  whose INIT_DATA snapshots dominate;
- **identity** — for every point the final component/view state, the
  paper's Fig-4 logical message counts, *and every individual decoded
  message* are identical across codecs: the codec changes bytes on the
  wire, never protocol behavior;
- **delta parity preserved** — the delta-synchronization ratios from
  ``BENCH_delta.json`` (all-dirty parity ~= 1, low-locality reduction)
  hold under every codec, and delta-on vs delta-off runs stay
  message-count identical per codec.

One more point is recorded and not gated on its timings: a **control
frame** shaped like the composed stack's steady state (one write flush:
four ``PULL_REQ`` messages in a ``BATCH`` envelope; the sublayer
forwards over the reliable aio link, so no flight or ACK vector
crosses it),
encoded with its sub-messages spelled as dicts and as native records,
raw and deflated: the bytes and the encode + decode time behind
``binary_codec.SEGMENT_BYTES``.  Such a frame fits one segment either
way, so deflating it buys no packet and costs the loop thread.

``python -m repro.experiments.wire_sweep`` writes ``BENCH_wire.json``;
``--check`` exits non-zero unless every gate of :func:`gates` holds.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.travel_agent import lifecycle
from repro.apps.airline.workload import (
    flights_needed,
    generate_flight_database,
    make_agent_groups,
    reserve_operations,
)
from repro.core import messages as M
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
from repro.experiments.delta_sweep import run_store_workload
from repro.experiments.fig4_efficiency import _staggered
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, Param, cli, point_doc
from repro.net.binary_codec import (
    MAGIC_RAW,
    SEGMENT_BYTES,
    BinaryCodec,
    resolve_codec,
)
from repro.net.message import BATCH, Message, make_batch, reset_message_ids, split_batch
from repro.net.stats import MessageStats

#: Codec specs swept by default (resolve_codec spellings).
CODECS: Tuple[str, ...] = ("json", "binary", "binary+zlib")

#: Message types whose payloads carry object data — the bytes the
#: binary codec is built to shrink.
PAYLOAD_TYPES: Tuple[str, ...] = (M.PUSH, M.PULL_DATA, M.INIT_DATA)


@dataclass
class WorkloadRun:
    """Measurements from one (workload, codec, delta) run."""

    state: Dict[str, Any]            # final primary-copy cells
    view_state: Dict[str, Any]       # final reader/agent-side cells
    stats: MessageStats              # the run's transport ledger
    captured: List[Message] = field(default_factory=list, repr=False)

    @property
    def payload_bytes(self) -> int:
        return sum(self.stats.bytes_by_type.get(t, 0) for t in PAYLOAD_TYPES)


@dataclass
class WirePoint:
    """One store-workload sweep point A/Bed across all codecs."""

    n_cells: int
    dirty_per_round: int
    rounds: int
    # codec -> data-payload bytes (PUSH + PULL_DATA + INIT_DATA).
    payload_bytes: Dict[str, int]
    total_bytes: Dict[str, int]
    # json payload bytes / codec payload bytes.
    reduction: Dict[str, float]
    # Compression accounting from each codec's run.
    frames_compressed: Dict[str, int]
    frames_stored: Dict[str, int]
    bytes_saved_compression: Dict[str, int]
    # Delta-synchronization parity, re-measured per codec: delta-on vs
    # delta-off payload ratio and message-count identity.
    delta_vs_full_payload_ratio: Dict[str, float]
    delta_messages_identical: Dict[str, bool]
    # Cross-codec invariants.
    state_identical: bool
    messages_identical: bool
    decoded_identical: bool


@dataclass
class Fig4WireResult:
    """The Fig-4 airline workload run under every codec."""

    n_agents: int
    n_conflicting: int
    total_messages: Dict[str, int]
    payload_bytes: Dict[str, int]
    total_bytes: Dict[str, int]
    reduction: Dict[str, float]
    state_identical: bool
    messages_identical: bool
    decoded_identical: bool


@dataclass
class ControlFramePoint:
    """One steady-state control flush under the binary codec."""

    sub_messages: int
    segment_bytes: int
    # spelling ("dict" | "native") -> form ("raw" | "deflated") ->
    # {"bytes", "encode_us", "decode_us"}; times are best-of-5 means.
    frames: Dict[str, Dict[str, Dict[str, float]]]
    # resolve_codec("binary+zlib") leaves the native frame undeflated.
    stored_by_default: bool
    # Both spellings, both forms, split into the same sub-messages.
    splits_identical: bool


@dataclass
class WireSweepResult:
    points: List[WirePoint] = field(default_factory=list)
    fig4: Optional[Fig4WireResult] = None
    control: Optional[ControlFramePoint] = None

    def _control_table(self) -> Table:
        c = self.control
        assert c is not None
        t = Table(
            ["sub-messages as", "form", "bytes", "encode us", "decode us"],
            title=f"WIRE — one control flush, {c.sub_messages} sub-messages "
                  f"(one segment = {c.segment_bytes} B)",
        )
        for spelling, forms in c.frames.items():
            for form, m in forms.items():
                t.add_row(spelling, form, m["bytes"],
                          f"{m['encode_us']:.1f}", f"{m['decode_us']:.1f}")
        return t

    def table(self) -> str:
        t = Table(
            [
                "workload", "payload json", "payload binary", "payload b+z",
                "binary", "b+zlib", "identical",
            ],
            title="WIRE — data-payload bytes by codec (json = 1.0x)",
        )
        for p in self.points:
            t.add_row(
                f"store {p.n_cells}c/{p.dirty_per_round}d",
                p.payload_bytes["json"],
                p.payload_bytes["binary"],
                p.payload_bytes["binary+zlib"],
                f"{p.reduction['binary']:.2f}x",
                f"{p.reduction['binary+zlib']:.2f}x",
                p.state_identical and p.messages_identical
                and p.decoded_identical,
            )
        if self.fig4 is not None:
            f = self.fig4
            t.add_row(
                f"fig4 {f.n_agents}a/{f.n_conflicting}k",
                f.payload_bytes["json"],
                f.payload_bytes["binary"],
                f.payload_bytes["binary+zlib"],
                f"{f.reduction['binary']:.2f}x",
                f"{f.reduction['binary+zlib']:.2f}x",
                f.state_identical and f.messages_identical
                and f.decoded_identical,
            )
        if self.control is None:
            return t.format()
        return f"{t.format()}\n\n{self._control_table().format()}"


def _run_store_workload(
    n_cells: int,
    dirty_per_round: int,
    rounds: int,
    delta: bool,
    codec: str,
    capture: bool = False,
) -> WorkloadRun:
    """One serial store run under ``codec`` (delta_sweep's workload).

    ``reset_message_ids`` makes runs bit-comparable: the simulated
    schedule is deterministic, so two runs that differ only in codec
    produce equal :class:`Message` streams — ids included.
    """
    reset_message_ids()
    run = run_store_workload(
        n_cells, dirty_per_round, rounds, delta, codec=codec, capture=capture
    )
    return WorkloadRun(
        dict(run.store.cells), dict(run.reader_agent.local),
        run.stats, run.captured,
    )


def _run_fig4_workload(
    codec: str,
    n_agents: int = 10,
    n_conflicting: int = 5,
    ops_per_agent: int = 1,
    seed: int = 0,
    stagger: float = 2.0,
) -> WorkloadRun:
    """One strict-wire Fig-4 airline run under ``codec``."""
    reset_message_ids()
    flights_per_agent = 3
    database = generate_flight_database(
        flights_needed(n_agents, n_conflicting, flights_per_agent), seed=seed
    )
    captured: List[Message] = []
    airline = build_airline_system(database, strict_wire=True, codec=codec)
    airline.transport.fault_policy = (
        lambda msg: (captured.append(msg), "deliver")[1]
    )
    groups = make_agent_groups(n_agents, n_conflicting, flights_per_agent)
    scripts = []
    for i, served in enumerate(groups):
        agent, cm = airline.add_travel_agent(
            f"ta-{i:03d}", served, mode="weak",
            triggers=TriggerSet(validity="true"),
        )
        ops = reserve_operations(served, ops_per_agent, seed=seed, agent_index=i)
        scripts.append(
            _staggered(lifecycle(cm, agent, ops, think_time=1.0), i * stagger)
        )
    run_all_scripts(airline.transport, scripts)
    return WorkloadRun(
        {num: f.to_cell() for num, f in database.flights.items()}, {},
        airline.stats, captured,
    )


def _control_flush() -> List[Message]:
    """What one write flush of the composed e2e stack carries between
    ops of a read-mostly load: four cache managers' PULL_REQs, each to
    its shard."""
    return [
        Message(M.PULL_REQ, f"cm:ta{v:04d}", f"shard:{v % 4}", {
            "need_fresh": False, "since": 5300 + 7 * v,
            "view_id": f"ta{v:04d}",
        }, msg_id=91000 + 3 * v)
        for v in range(4)
    ]


def _time_us(fn: Any, arg: Any, loops: int = 200, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean microseconds of ``fn(arg)``."""
    best = min(timeit.repeat(lambda: fn(arg), number=loops, repeat=repeats))
    return round(best / loops * 1e6, 1)


def run_control_frame() -> ControlFramePoint:
    subs = _control_flush()
    native = make_batch(subs[0].src, subs[0].dst, subs)
    native.msg_id = 91014  # make_batch mints it from the process-wide counter
    spellings = {
        "dict": Message(BATCH, native.src, native.dst,
                        {"messages": [m.to_dict() for m in subs]},
                        msg_id=native.msg_id),
        "native": native,
    }
    forms = {
        "raw": BinaryCodec(),
        "deflated": BinaryCodec(compress_level=6, compress_min_bytes=1),
    }
    frames: Dict[str, Dict[str, Dict[str, float]]] = {}
    splits = []
    for spelling, msg in spellings.items():
        frames[spelling] = {}
        for form, codec in forms.items():
            raw = codec.encode(msg)
            splits.append(split_batch(codec.decode(raw)))
            frames[spelling][form] = {
                "bytes": len(raw),
                "encode_us": _time_us(codec.encode, msg),
                "decode_us": _time_us(codec.decode, raw),
            }
    return ControlFramePoint(
        sub_messages=len(subs),
        segment_bytes=SEGMENT_BYTES,
        frames=frames,
        stored_by_default=(
            resolve_codec("binary+zlib").encode(native)[0] == MAGIC_RAW
        ),
        splits_identical=all(s == subs for s in splits),
    )


def _decoded_identical(
    reference: List[Message], codecs: Sequence[str]
) -> bool:
    """Every captured message survives every codec's round-trip
    *byte-equal in meaning*: decode(encode(m)) under each codec equals
    the original message and each other."""
    instances = [resolve_codec(c) for c in codecs]
    for m in reference:
        for inst in instances:
            if inst.decode(inst.encode(m)) != m:
                return False
    return True


def _streams_equal(a: List[Message], b: List[Message]) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_wire_sweep(
    sweep: Sequence[Tuple[int, int]] = ((64, 64), (512, 4)),
    rounds: int = 5,
    codecs: Sequence[str] = CODECS,
    agents: int = 10,
) -> WireSweepResult:
    """A/B every sweep point and the Fig-4 workload (``agents`` travel
    agents, half of them conflicting) across codecs."""
    fig4_agents, fig4_conflicting = agents, max(1, agents // 2)
    result = WireSweepResult()
    for n_cells, dirty in sweep:
        runs: Dict[str, WorkloadRun] = {}
        full_runs: Dict[str, WorkloadRun] = {}
        for codec in codecs:
            runs[codec] = _run_store_workload(
                n_cells, dirty, rounds, delta=True, codec=codec, capture=True
            )
            full_runs[codec] = _run_store_workload(
                n_cells, dirty, rounds, delta=False, codec=codec
            )
        base = runs[codecs[0]]
        state_identical = all(
            r.state == base.state and r.view_state == base.view_state
            for r in runs.values()
        )
        messages_identical = all(
            r.stats.by_type == base.stats.by_type
            and _streams_equal(r.captured, base.captured)
            for r in runs.values()
        )
        decoded_identical = _decoded_identical(base.captured, codecs)
        result.points.append(
            WirePoint(
                n_cells=n_cells,
                dirty_per_round=dirty,
                rounds=rounds,
                payload_bytes={c: runs[c].payload_bytes for c in codecs},
                total_bytes={
                    c: sum(runs[c].stats.bytes_by_type.values()) for c in codecs
                },
                reduction={
                    c: round(
                        _ratio(runs[codecs[0]].payload_bytes,
                               runs[c].payload_bytes), 2
                    )
                    for c in codecs
                },
                frames_compressed={
                    c: runs[c].stats.frames_compressed for c in codecs
                },
                frames_stored={c: runs[c].stats.frames_stored for c in codecs},
                bytes_saved_compression={
                    c: runs[c].stats.bytes_saved_compression for c in codecs
                },
                delta_vs_full_payload_ratio={
                    c: round(
                        _ratio(runs[c].payload_bytes,
                               full_runs[c].payload_bytes), 4
                    )
                    for c in codecs
                },
                delta_messages_identical={
                    c: runs[c].stats.by_type == full_runs[c].stats.by_type
                    for c in codecs
                },
                state_identical=state_identical,
                messages_identical=messages_identical,
                decoded_identical=decoded_identical,
            )
        )
    fig4_runs = {
        c: _run_fig4_workload(
            c, n_agents=fig4_agents, n_conflicting=fig4_conflicting
        )
        for c in codecs
    }
    fbase = fig4_runs[codecs[0]]
    result.fig4 = Fig4WireResult(
        n_agents=fig4_agents,
        n_conflicting=fig4_conflicting,
        total_messages={c: fig4_runs[c].stats.total for c in codecs},
        payload_bytes={c: fig4_runs[c].payload_bytes for c in codecs},
        total_bytes={
            c: sum(fig4_runs[c].stats.bytes_by_type.values()) for c in codecs
        },
        reduction={
            c: round(
                _ratio(fbase.payload_bytes, fig4_runs[c].payload_bytes), 2
            )
            for c in codecs
        },
        state_identical=all(
            r.state == fbase.state for r in fig4_runs.values()
        ),
        messages_identical=all(
            r.stats.by_type == fbase.stats.by_type
            and _streams_equal(r.captured, fbase.captured)
            for r in fig4_runs.values()
        ),
        decoded_identical=_decoded_identical(fbase.captured, codecs),
    )
    result.control = run_control_frame()
    return result


def bench_payload(result: WireSweepResult) -> Dict[str, object]:
    """The ``BENCH_wire.json`` document for one sweep."""
    push_heavy = max(
        result.points, key=lambda p: p.dirty_per_round / max(1, p.n_cells)
    )
    delta_point = max(
        result.points, key=lambda p: p.n_cells / max(1, p.dirty_per_round)
    )
    points_ok = [
        p.state_identical and p.messages_identical and p.decoded_identical
        for p in result.points
    ]
    fig4 = result.fig4
    if fig4 is not None:
        points_ok.append(
            fig4.state_identical and fig4.messages_identical
            and fig4.decoded_identical
        )
    return {
        "description": (
            "Wire-codec sweep: data-payload bytes (PUSH + PULL_DATA + "
            "INIT_DATA) under json vs binary vs binary+zlib codecs, with "
            "cross-codec state/message/decode identity checks"
        ),
        "command": "python -m repro.experiments.wire_sweep",
        "push_heavy_reduction_binary": push_heavy.reduction.get("binary"),
        "push_heavy_reduction_zlib": push_heavy.reduction.get("binary+zlib"),
        "delta_point_reduction_binary": delta_point.reduction.get("binary"),
        "delta_point_reduction_zlib": delta_point.reduction.get("binary+zlib"),
        "all_points_state_identical": all(
            p.state_identical for p in result.points
        ) and (fig4 is None or fig4.state_identical),
        "all_points_messages_identical": all(
            p.messages_identical for p in result.points
        ) and (fig4 is None or fig4.messages_identical),
        "all_points_decoded_identical": all(
            p.decoded_identical for p in result.points
        ) and (fig4 is None or fig4.decoded_identical),
        "delta_parity_by_codec": {
            c: {
                "all_dirty_payload_ratio":
                    push_heavy.delta_vs_full_payload_ratio.get(c),
                "low_locality_payload_ratio":
                    delta_point.delta_vs_full_payload_ratio.get(c),
                "messages_identical":
                    push_heavy.delta_messages_identical.get(c, False)
                    and delta_point.delta_messages_identical.get(c, False),
            }
            for c in push_heavy.payload_bytes
        },
        "fig4": None if fig4 is None else {
            "n_agents": fig4.n_agents,
            "n_conflicting": fig4.n_conflicting,
            "total_messages": fig4.total_messages,
            "payload_bytes": fig4.payload_bytes,
            "reduction": fig4.reduction,
            "messages_identical": fig4.messages_identical,
            "state_identical": fig4.state_identical,
        },
        "control_frame": (
            None if result.control is None else point_doc(result.control)
        ),
        "points": [point_doc(p) for p in result.points],
    }


def gates(payload: Dict[str, object]) -> List[str]:
    """The PR's acceptance gates; returns a list of violations."""
    problems = []
    if not payload["all_points_state_identical"]:
        problems.append("end state differs across codecs")
    if not payload["all_points_messages_identical"]:
        problems.append("logical message counts differ across codecs")
    if not payload["all_points_decoded_identical"]:
        problems.append("decoded messages differ across codecs")
    r = payload.get("push_heavy_reduction_binary") or 0.0
    if r < 2.0:
        problems.append(
            f"binary reduction {r}x < 2x on the PUSH-heavy point"
        )
    rz = payload.get("delta_point_reduction_zlib") or 0.0
    if rz < 3.0:
        problems.append(
            f"binary+zlib reduction {rz}x < 3x on the 512-cell delta point"
        )
    for codec, parity in payload.get("delta_parity_by_codec", {}).items():
        if not parity["messages_identical"]:
            problems.append(f"delta on/off message counts differ under {codec}")
    control = payload.get("control_frame")
    if control is not None and not control["splits_identical"]:
        problems.append("control-frame batch splits differ by spelling or form")
    return problems


EXPERIMENT = Experiment(
    "wire_sweep", run_wire_sweep,
    params=(
        Param("--rounds", 5),
        Param("--agents", 10, "travel agents in the fig4 workload"),
    ),
    summarize=bench_payload, gates=gates, out="BENCH_wire.json",
)

if __name__ == "__main__":
    cli(EXPERIMENT)
