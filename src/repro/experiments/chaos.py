"""Chaos experiment: protocol correctness and overhead under faults.

Sweeps the wire-level fault rate (frame drops plus a fixed duplicate
rate) while a strong-mode counter workload and a weak-mode reader run
over the reliable-delivery sublayer (:mod:`repro.net.reliability`).
Faults are injected *below* the sublayer by a compiled
:class:`~repro.sim.faults.FaultScenario`, so what the experiment
measures is the cost of repairing the wire:

- **correctness** — every committed write must survive every loss rate
  (``lost_writes == 0``);
- **message overhead** — wire frames (envelopes + ACK vectors +
  retransmits) vs the logical protocol messages, which stay comparable
  to the paper's Fig 4 metric because the sublayer accounts them
  separately;
- **staleness** — the weak reader's lag behind the primary copy,
  sampled at each of its uses.

The 0-loss point doubles as a parity check: with no faults injected,
the logical message profile over the reliable transport must be
*identical*, type for type, to the same workload on the raw transport
(``parity_ok``), with the sublayer's ACK traffic reported separately.

``python -m repro.experiments.chaos`` writes ``BENCH_chaos.json``;
``--check`` exits non-zero unless every gate of :func:`gates` holds.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache_manager import CacheManager
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, Param, cli, point_doc
from repro.net.reliability import ReliableTransport
from repro.net.sim_transport import SimTransport
from repro.sim.faults import DMCrashPlan, FaultInjector, FaultScenario
from repro.sim.kernel import SimKernel
from repro.testing import (
    Agent,
    Store,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)


@dataclass
class ChaosPoint:
    """One sweep point: a full workload run at one fault configuration."""

    drop_rate: float
    duplicate_rate: float
    committed: int               # final value of the shared counter
    expected: int                # writers * ops
    lost_writes: int             # expected - committed (must be 0)
    logical_messages: int        # protocol messages (Fig-4 comparable)
    wire_frames: int             # envelopes + ACK vectors + retransmissions
    overhead_ratio: float        # wire_frames / logical_messages
    retransmits: int
    duplicates_suppressed: int
    acks_sent: int               # sequence numbers acknowledged
    ack_frames: int              # R_ACK vectors that carried them
    undelivered: int             # given up after max_attempts, or handed
                                 # to a vanished endpoint (must be 0)
    injected_drops: int
    injected_duplicates: int
    staleness_mean: float        # reader lag behind primary, per sample
    staleness_max: int
    reader_samples: int


@dataclass
class DMRestartPoint:
    """The directory crash/restart leg: durable-plane recovery accounting.

    ``state_parity`` compares the finished run's primary copy against
    the crash-free run's (the workload must converge to the same state
    despite the mid-run directory outage); ``recovered_parity`` then
    kills the directory *after* the run, wipes the component, and
    requires recovery alone to reproduce that state (every acknowledged
    commit must come back from the WAL/snapshot lineage).
    """

    committed: int               # final value of the shared counter
    expected: int                # writers * ops
    lost_writes: int             # expected - committed (must be 0)
    dm_crashes: int              # injected directory kills
    dm_restarts: int             # injected directory restarts
    recoveries: int              # MessageStats.recoveries (incl. final check)
    cells_replayed: int          # MessageStats.cells_replayed
    state_parity: bool           # final primary copy == crash-free run's
    recovered_parity: bool       # post-run recovery reproduces final state


@dataclass
class ChaosResult:
    points: List[ChaosPoint] = field(default_factory=list)
    # 0-loss logical profile over ReliableTransport == raw SimTransport?
    parity_ok: bool = False
    faultless_acks: int = 0      # ACK vector frames at 0 loss (wire only)
    dm_restart: Optional[DMRestartPoint] = None

    def table(self) -> Table:
        t = Table(
            [
                "drop", "dup", "lost writes", "logical msgs", "wire frames",
                "overhead", "retransmits", "dups suppressed", "staleness mean",
            ],
            title="CHAOS — correctness and overhead vs injected wire faults",
        )
        for p in self.points:
            t.add_row(
                p.drop_rate, p.duplicate_rate, p.lost_writes,
                p.logical_messages, p.wire_frames,
                f"{p.overhead_ratio:.2f}x", p.retransmits,
                p.duplicates_suppressed, f"{p.staleness_mean:.2f}",
            )
        return t


def _workload(
    transport,
    store: Store,
    n_writers: int,
    n_ops: int,
    reader_samples: int,
    sample_gap: float,
    request_timeout: float = 400.0,
    durability: Optional[DurabilitySpec] = None,
    dm_injector: Optional[FaultInjector] = None,
    kernel: Optional[SimKernel] = None,
) -> Tuple[List[int], List[CacheManager], List[DirectoryManager]]:
    """Run the chaos workload on ``transport``; return (lags, cms, dm_box).

    ``n_writers`` strong-mode agents each increment the shared cell
    ``a`` ``n_ops`` times while a weak-mode reader with a pull trigger
    samples its lag behind the primary copy.

    When ``dm_injector`` carries :class:`~repro.sim.faults.DMCrashPlan`
    entries (and ``kernel`` is given), its crash events kill the
    directory *and wipe the component's cells* — everything a process
    death would take — and its restart events rebuild the directory
    over the same :class:`DurabilitySpec` lineage, so the primary copy
    must come back from the WAL/snapshot chain alone.  ``dm_box`` is a
    one-element list holding the current directory instance (restarts
    replace it in place).
    """
    def build_dm() -> DirectoryManager:
        return DirectoryManager(
            transport=transport, address="dir", component=store,
            extract_from_object=extract_from_object,
            merge_into_object=merge_into_object,
            durability=durability,
        )

    dm_box = [build_dm()]
    if dm_injector is not None and kernel is not None:

        def crash(_shard: int, torn_tail: bytes) -> None:
            dm_box[0].crash(torn_tail=torn_tail)
            store.cells.clear()  # volatile state dies with the process

        def restart(_shard: int) -> None:
            dm_box[0] = build_dm()

        dm_injector.schedule_dm_crashes(kernel, crash, restart)
    cms: List[CacheManager] = []
    writers = []
    for i in range(n_writers):
        agent = Agent()
        cm = CacheManager(
            transport=transport, directory_address="dir",
            view_id=f"w{i}", view=agent, properties=props_for(["a"]),
            extract_from_view=extract_from_view,
            merge_into_view=merge_into_view, mode="strong",
            request_timeout=request_timeout, max_retries=8,
        )
        writers.append((cm, agent))
        cms.append(cm)
    reader_agent = Agent()
    reader = CacheManager(
        transport=transport, directory_address="dir",
        view_id="reader", view=reader_agent, properties=props_for(["a"]),
        extract_from_view=extract_from_view,
        merge_into_view=merge_into_view, mode="weak",
        triggers=TriggerSet(pull="t > 0"),
        trigger_poll_period=sample_gap / 2.0,
        request_timeout=request_timeout, max_retries=8,
    )
    cms.append(reader)

    lags: List[int] = []

    def writer_script(cm, agent):
        yield cm.start()
        yield cm.init_image()
        for _ in range(n_ops):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        yield cm.kill_image()

    def reader_script():
        yield reader.start()
        yield reader.init_image()
        for _ in range(reader_samples):
            yield reader.start_use_image()
            # .get: during a directory outage the component is wiped,
            # so the primary cell may be transiently absent.
            lags.append(store.cells.get("a", 0) - reader_agent.local["a"])
            reader.end_use_image()
            yield ("sleep", sample_gap)
        yield reader.kill_image()

    run_all_scripts(
        transport,
        [reader_script()] + [writer_script(cm, a) for cm, a in writers],
    )
    if kernel is not None:
        kernel.run()  # drain crash/restart events past the scripts' end
    return lags, cms, dm_box


def run_chaos(
    loss_rates: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
    duplicate_rate: float = 0.05,
    n_writers: int = 3,
    n_ops: int = 4,
    reader_samples: int = 8,
    sample_gap: float = 40.0,
    seed: int = 0,
) -> ChaosResult:
    """The chaos sweep.  Faults apply to wire frames (R_DATA/R_ACK),
    so every repair the sublayer performs is visible in its counters
    while the logical message stream stays Fig-4 comparable."""
    result = ChaosResult()
    expected = n_writers * n_ops

    # Reference profile: same workload, raw transport, no faults.
    kernel = SimKernel()
    raw = SimTransport(kernel, default_latency=1.0, strict_wire=False)
    raw_store = Store({"a": 0})
    _workload(raw, raw_store, n_writers, n_ops, reader_samples, sample_gap)
    raw_profile = dict(raw.stats.by_type)
    crash_free_state = dict(raw_store.cells)

    for loss in loss_rates:
        dup = duplicate_rate if loss > 0 else 0.0
        kernel = SimKernel()
        inner = SimTransport(kernel, default_latency=1.0, strict_wire=False)
        injector = FaultScenario(
            drop_rate=loss, duplicate_rate=dup, seed=seed
        ).compile().install(inner)
        transport = ReliableTransport(inner, ack_timeout=8.0, seed=seed)
        store = Store({"a": 0})
        lags, _cms, _dm = _workload(
            transport, store, n_writers, n_ops, reader_samples, sample_gap
        )
        if loss == 0:
            result.parity_ok = dict(transport.stats.by_type) == raw_profile
            result.faultless_acks = transport.stats.ack_frames_sent
        logical = transport.stats.total
        wire = inner.stats.total
        result.points.append(
            ChaosPoint(
                drop_rate=loss,
                duplicate_rate=dup,
                committed=store.cells["a"],
                expected=expected,
                lost_writes=expected - store.cells["a"],
                logical_messages=logical,
                wire_frames=wire,
                overhead_ratio=wire / logical if logical else 0.0,
                retransmits=transport.stats.retransmits,
                duplicates_suppressed=transport.stats.duplicates_suppressed,
                acks_sent=transport.stats.acks_sent,
                ack_frames=transport.stats.ack_frames_sent,
                undelivered=transport.stats.dropped,
                injected_drops=injector.counters["drops"],
                injected_duplicates=injector.counters["duplicates"],
                staleness_mean=sum(lags) / len(lags) if lags else 0.0,
                staleness_max=max(lags) if lags else 0,
                reader_samples=len(lags),
            )
        )
        transport.close()

    result.dm_restart = _run_dm_restart(
        n_writers, n_ops, reader_samples, sample_gap,
        expected=expected, crash_free_state=crash_free_state, seed=seed,
    )
    return result


def _run_dm_restart(
    n_writers: int,
    n_ops: int,
    reader_samples: int,
    sample_gap: float,
    expected: int,
    crash_free_state: Dict[str, int],
    seed: int,
) -> DMRestartPoint:
    """The durability leg: kill and restart the directory mid-workload.

    The crash wipes the component (simulating process death), the
    restart recovers from the WAL/snapshot lineage, and the writers'
    retransmissions carry the outage — so the run must still converge
    to the crash-free run's primary copy.  A second, post-run
    crash+wipe+recover checks that every acknowledged commit is
    reproducible from the durable lineage alone.
    """
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0, strict_wire=False)
    wal_root = Path(tempfile.mkdtemp(prefix="flecc-chaos-wal-"))
    try:
        spec = DurabilitySpec(
            root=wal_root, fsync="always", snapshot_every=4, name="chaos-dm"
        )
        # One mid-run kill while the writers are actively committing;
        # the outage (70) outlasts the request timeout (60) so at least
        # one retry lands during the outage and another after restart.
        injector = FaultScenario(
            dm_crashes=[DMCrashPlan(at=20.0, restart_at=90.0)], seed=seed
        ).compile()
        store = Store({"a": 0})
        _lags, _cms, dm_box = _workload(
            transport, store, n_writers, n_ops, reader_samples, sample_gap,
            request_timeout=60.0, durability=spec,
            dm_injector=injector, kernel=kernel,
        )
        final = dict(store.cells)
        committed = final.get("a", 0)
        # Post-run recovery: kill the directory, wipe the component,
        # and rebuild over the same lineage.  WAL + snapshots alone
        # must reproduce the final primary copy.
        dm_box[0].crash()
        store.cells.clear()
        dm_box[0] = DirectoryManager(
            transport=transport, address="dir", component=store,
            extract_from_object=extract_from_object,
            merge_into_object=merge_into_object,
            durability=spec,
        )
        recovered_parity = dict(store.cells) == final
        dm_box[0].close()
        return DMRestartPoint(
            committed=committed,
            expected=expected,
            lost_writes=expected - committed,
            dm_crashes=injector.counters["dm_crashes"],
            dm_restarts=injector.counters["dm_restarts"],
            recoveries=transport.stats.recoveries,
            cells_replayed=transport.stats.cells_replayed,
            state_parity=final == crash_free_state,
            recovered_parity=recovered_parity,
        )
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)


def bench_payload(result: ChaosResult) -> Dict[str, object]:
    """The ``BENCH_chaos.json`` document for one chaos run."""
    return {
        "description": (
            "Chaos sweep: strong-mode counter workload + weak reader over "
            "the reliable-delivery sublayer with wire-level fault injection"
        ),
        "command": "python -m repro.experiments.chaos",
        "parity_with_raw_transport_at_zero_loss": result.parity_ok,
        "faultless_ack_overhead_frames": result.faultless_acks,
        "points": [
            point_doc(p, overhead_ratio=3, staleness_mean=3)
            for p in result.points
        ],
        "dm_restart": point_doc(result.dm_restart),
    }


#: Wire frames per logical message the zero-loss leg may cost: one
#: flight each (the sim frames every send on its own) plus the ACK
#: vectors (2.0 with one ACK per message).
MAX_ZERO_LOSS_OVERHEAD = 1.7


def gates(payload: Dict[str, Any]) -> List[str]:
    """The gates ``--check`` arms; returns a list of violations.

    Everything runs in simulated time from a fixed seed, so there is no
    noise to allow for: no leg may lose a committed write or leave a
    message undelivered, the zero-loss leg must match the raw transport
    type for type at no more than :data:`MAX_ZERO_LOSS_OVERHEAD` wire
    frames per logical message, and the directory-restart leg must keep
    both parities.
    """
    problems: List[str] = []
    for p in payload["points"]:
        leg = f"drop={p['drop_rate']}"
        if p["lost_writes"]:
            problems.append(f"{leg}: {p['lost_writes']} committed writes lost")
        if p["undelivered"]:
            problems.append(f"{leg}: {p['undelivered']} messages undelivered")
    if not payload["parity_with_raw_transport_at_zero_loss"]:
        problems.append("zero loss: logical profile differs from raw transport")
    clean = [p for p in payload["points"] if p["drop_rate"] == 0]
    if not clean:
        problems.append("no zero-loss leg to gate the wire overhead on")
    for p in clean:
        if p["overhead_ratio"] > MAX_ZERO_LOSS_OVERHEAD:
            problems.append(
                f"zero loss: {p['overhead_ratio']}x wire frames per logical "
                f"message (limit {MAX_ZERO_LOSS_OVERHEAD}x)"
            )
    d = payload["dm_restart"]
    if d is None:
        problems.append("dm restart leg did not run")
    else:
        if d["lost_writes"]:
            problems.append(f"dm restart: {d['lost_writes']} writes lost")
        for parity in ("state_parity", "recovered_parity"):
            if not d[parity]:
                problems.append(f"dm restart: {parity} broken")
    return problems


EXPERIMENT = Experiment(
    "chaos", run_chaos, params=(Param("--seed", 0),), seeded=True,
    summarize=bench_payload, gates=gates, out="BENCH_chaos.json",
)

if __name__ == "__main__":
    cli(EXPERIMENT)
