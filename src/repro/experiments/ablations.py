"""Ablation studies for the design choices DESIGN.md calls out.

- ABL1: static map vs dynamic property conflicts — false-conflict cost.
- ABL2: pull-trigger period sweep — the message/quality trade-off curve.
- ABL3: property granularity — whole-database vs per-agent flight sets.
- ABL4: centralized vs decentralized merge/extract specifications —
  the O(n) vs O(n^2) analysis from paper §4.1.
- ABL5: read/write semantics (§6 future work 1) — invalidations saved
  as the read fraction grows.
- ABL6: message-loss sweep — retransmission + dedup + state sequence
  numbers keep strong mode exact under lossy delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.travel_agent import lifecycle
from repro.apps.airline.workload import (
    flights_needed,
    generate_flight_database,
    make_agent_groups,
    reserve_operations,
)
from repro.core.modes import Mode
from repro.core.property import Property
from repro.core.property_set import PropertySet
from repro.core.quality import QualityProbe
from repro.core.static_map import Sharing, StaticSharingMap
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, cli


# ---------------------------------------------------------------------------
# ABL1 — static vs dynamic conflict detection
# ---------------------------------------------------------------------------

@dataclass
class Abl1Result:
    messages_conservative: int   # static map marks every pair SHARED
    messages_dynamic: int        # property-based dynConfl
    false_conflict_overhead: float

    def table(self) -> Table:
        t = Table(
            ["conflict policy", "messages"],
            title="ABL1 — conservative static map vs dynamic property conflicts",
        )
        t.add_row("all-pairs SHARED (conservative)", self.messages_conservative)
        t.add_row("dynConfl over properties", self.messages_dynamic)
        return t


def run_abl1(n_agents: int = 16, seed: int = 0) -> Abl1Result:
    """Half the agents conflict; a conservative static map that marks
    every pair SHARED triggers fetch rounds for disjoint agents too."""
    n_conflicting = n_agents // 2

    def run(conservative: bool) -> int:
        database = generate_flight_database(
            flights_needed(n_agents, n_conflicting), seed=seed
        )
        static_map = None
        if conservative:
            ids = [f"ta-{i:03d}" for i in range(n_agents)]
            static_map = StaticSharingMap(ids, default=Sharing.SHARED)
        airline = build_airline_system(
            database, strict_wire=False, static_map=static_map
        )
        groups = make_agent_groups(n_agents, n_conflicting)
        scripts = []
        for i, served in enumerate(groups):
            agent, cm = airline.add_travel_agent(
                f"ta-{i:03d}", served, triggers=TriggerSet(validity="true")
            )
            ops = reserve_operations(served, 2, seed=seed, agent_index=i)
            scripts.append(lifecycle(cm, agent, ops))
        run_all_scripts(airline.transport, scripts)
        return airline.stats.total

    conservative = run(True)
    dynamic = run(False)
    return Abl1Result(
        messages_conservative=conservative,
        messages_dynamic=dynamic,
        false_conflict_overhead=(conservative - dynamic) / dynamic,
    )


# ---------------------------------------------------------------------------
# ABL2 — trigger period sweep (messages vs quality)
# ---------------------------------------------------------------------------

@dataclass
class Abl2Result:
    # (period, total messages, mean unseen updates)
    points: List[Tuple[float, int, float]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["pull period", "messages", "mean unseen"],
            title="ABL2 — pull-trigger period: message cost vs data quality",
        )
        for period, msgs, quality in self.points:
            t.add_row(period, msgs, quality)
        return t


def run_abl2(
    periods: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0),
    n_agents: int = 6,
    n_methods: int = 10,
    method_gap: float = 10.0,
    seed: int = 0,
) -> Abl2Result:
    result = Abl2Result()
    for period in periods:
        database = generate_flight_database(5, seed=seed)
        airline = build_airline_system(database, strict_wire=False)
        groups = make_agent_groups(n_agents, n_conflicting=n_agents)
        flight = groups[0][0]
        observed_agent, observed_cm = airline.add_travel_agent(
            "ta-000", groups[0], mode=Mode.WEAK,
            triggers=TriggerSet(pull="t > 0"), trigger_poll_period=period,
        )
        writers = [
            airline.add_travel_agent(f"ta-{i:03d}", served)
            for i, served in enumerate(groups[1:], start=1)
        ]
        probe = QualityProbe(airline.directory)
        samples: List[int] = []
        kernel = airline.kernel

        def observed():
            yield observed_cm.start()
            yield observed_cm.init_image()
            for _ in range(n_methods):
                yield observed_cm.start_use_image()
                samples.append(probe.unseen(observed_cm.view_id))
                observed_agent.confirm_tickets(1, flight)
                observed_cm.end_use_image()
                yield ("sleep", method_gap)
            yield observed_cm.kill_image()

        def writer(agent, cm):
            yield cm.start()
            yield cm.init_image()
            for _ in range(n_methods):
                yield cm.start_use_image()
                agent.confirm_tickets(1, flight)
                cm.end_use_image()
                yield cm.push_image()
                yield ("sleep", method_gap)
            yield cm.kill_image()

        run_all_scripts(
            airline.transport,
            [observed()] + [writer(a, cm) for a, cm in writers],
        )
        result.points.append(
            (period, airline.stats.total, sum(samples) / len(samples))
        )
    return result


# ---------------------------------------------------------------------------
# ABL3 — property granularity
# ---------------------------------------------------------------------------

@dataclass
class Abl3Result:
    messages_coarse: int   # one whole-database property for every agent
    messages_fine: int     # per-agent flight-set properties

    def table(self) -> Table:
        t = Table(
            ["granularity", "messages"],
            title="ABL3 — property granularity: whole database vs per-agent flight sets",
        )
        t.add_row("coarse (whole database)", self.messages_coarse)
        t.add_row("fine (served flights)", self.messages_fine)
        return t


def run_abl3(n_agents: int = 12, seed: int = 0) -> Abl3Result:
    """Only 1/4 of the agents actually share flights.  Coarse properties
    make everyone conflict; fine properties confine the fetch rounds."""
    n_conflicting = max(1, n_agents // 4)

    def run(coarse: bool) -> int:
        database = generate_flight_database(
            flights_needed(n_agents, n_conflicting), seed=seed
        )
        airline = build_airline_system(database, strict_wire=False)
        groups = make_agent_groups(n_agents, n_conflicting)
        all_flights = sorted(database.flights.keys())
        scripts = []
        for i, served in enumerate(groups):
            agent, cm = airline.add_travel_agent(
                f"ta-{i:03d}", served, triggers=TriggerSet(validity="true")
            )
            if coarse:
                cm.properties = PropertySet(
                    [Property("Flights", set(all_flights))]
                )
            ops = reserve_operations(served, 2, seed=seed, agent_index=i)
            scripts.append(lifecycle(cm, agent, ops))
        run_all_scripts(airline.transport, scripts)
        return airline.stats.total

    return Abl3Result(messages_coarse=run(True), messages_fine=run(False))


# ---------------------------------------------------------------------------
# ABL5 — read/write semantics (the paper's §6 future-work direction 1)
# ---------------------------------------------------------------------------

@dataclass
class Abl5Result:
    # (read fraction, messages with RW semantics, messages without)
    points: List[Tuple[float, int, int]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["read fraction", "rw-aware msgs", "write-only msgs"],
            title="ABL5 — read/write semantics: invalidations saved for readers",
        )
        for frac, rw, wo in self.points:
            t.add_row(frac, rw, wo)
        return t


def run_abl5(
    read_fractions: Tuple[float, ...] = (0.0, 0.5, 0.75, 1.0),
    n_agents: int = 6,
    n_ops: int = 6,
) -> Abl5Result:
    """Strong-mode agents over one shared cell; a fraction of their
    critical sections are reads.  The RW-aware directory lets readers
    share, so messages fall as the read fraction rises; the write-only
    baseline treats every use as a write."""
    from repro.core.rw_semantics import Access, RWCacheManager, RWDirectoryManager
    from repro.net.sim_transport import SimTransport
    from repro.sim.kernel import SimKernel

    class _Store:
        def __init__(self):
            self.cells = {"a": 0}

    def _extract(store, props):
        from repro.core.image import ObjectImage

        return ObjectImage(dict(store.cells))

    def _merge(store, image, props):
        for k in image.keys():
            store.cells[k] = image.get(k)

    class _View:
        def __init__(self):
            self.local = {}

    def _extract_view(view, props):
        from repro.core.image import ObjectImage

        return ObjectImage(dict(view.local))

    def _merge_view(view, image, props):
        for k in image.keys():
            view.local[k] = image.get(k)

    from repro.core.property import Property
    from repro.core.property_set import PropertySet
    from repro.core.system import run_all_scripts

    def run(read_fraction: float, rw_aware: bool) -> int:
        kernel = SimKernel()
        transport = SimTransport(kernel, default_latency=1.0, strict_wire=False)
        directory = RWDirectoryManager(
            transport=transport, address="dir", component=_Store(),
            extract_from_object=_extract, merge_into_object=_merge,
        )
        props = PropertySet([Property("cells", {"a"})])
        scripts = []
        for i in range(n_agents):
            view = _View()
            cm = RWCacheManager(
                transport=transport, directory_address="dir",
                view_id=f"v{i}", view=view, properties=props,
                extract_from_view=_extract_view, merge_into_view=_merge_view,
                mode="strong",
            )

            def script(cm=cm, view=view, index=i):
                yield cm.start()
                yield cm.init_image()
                for op in range(n_ops):
                    is_read = (op / n_ops) < read_fraction
                    access = (
                        Access.READ if (is_read and rw_aware) else Access.WRITE
                    )
                    yield cm.start_use_image(access=access)
                    if not is_read:
                        view.local["a"] = index * 100 + op
                    yield ("sleep", 2.0)
                    cm.end_use_image()
                    yield ("sleep", 3.0)
                yield cm.kill_image()

            scripts.append(script())
        run_all_scripts(transport, scripts)
        directory.check_invariants()
        return transport.stats.total

    result = Abl5Result()
    for frac in read_fractions:
        result.points.append((frac, run(frac, True), run(frac, False)))
    return result


# ---------------------------------------------------------------------------
# ABL6 — message loss vs retransmission (robustness beyond the paper)
# ---------------------------------------------------------------------------

@dataclass
class Abl6Result:
    # (loss rate, retries, total messages, counter correct?)
    points: List[Tuple[float, int, int, bool]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["loss rate", "retries", "messages", "all updates committed"],
            title="ABL6 — request loss vs CM retransmission + DM dedup",
        )
        for loss, retries, msgs, ok in self.points:
            t.add_row(loss, retries, msgs, "yes" if ok else "NO")
        return t


def run_abl6(
    loss_rates: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
    n_agents: int = 4,
    n_ops: int = 4,
    seed: int = 0,
) -> Abl6Result:
    """Strong-mode counter workload under probabilistic loss of the
    *retryable* message paths (CM requests and DM replies).  The
    retransmission layer (same msg id) plus the directory's dedup cache
    must keep the final counter exact at every loss rate."""
    from repro.core import messages as M
    from repro.core.cache_manager import CacheManager
    from repro.core.directory import DirectoryManager
    from repro.core.system import run_all_scripts
    from repro.net.sim_transport import SimTransport
    from repro.sim.kernel import SimKernel
    from repro.sim.rng import stream_for
    from repro.testing import (
        Agent,
        Store,
        extract_from_object,
        extract_from_view,
        merge_into_object,
        merge_into_view,
        props_for,
    )

    RETRYABLE = set(M.REQUESTS) | set(M.RESPONSES)

    result = Abl6Result()
    for loss in loss_rates:
        rng = stream_for(seed, "loss", int(loss * 1000))

        def fault(msg, loss=loss, rng=rng):
            if msg.msg_type in RETRYABLE and rng.random() < loss:
                return "drop"
            return "deliver"

        kernel = SimKernel()
        transport = SimTransport(
            kernel, default_latency=1.0, strict_wire=False, fault_policy=fault
        )
        store = Store({"a": 0})
        DirectoryManager(
            transport=transport, address="dir", component=store,
            extract_from_object=extract_from_object,
            merge_into_object=merge_into_object,
        )
        cms = []
        for i in range(n_agents):
            agent = Agent()
            cm = CacheManager(
                transport=transport, directory_address="dir",
                view_id=f"v{i}", view=agent, properties=props_for(["a"]),
                extract_from_view=extract_from_view,
                merge_into_view=merge_into_view, mode="strong",
                request_timeout=25.0, max_retries=10,
            )
            cms.append((cm, agent))

        def script(cm, agent):
            yield cm.start()
            yield cm.init_image()
            for _ in range(n_ops):
                yield cm.start_use_image()
                agent.local["a"] += 1
                cm.end_use_image()
            yield cm.kill_image()

        run_all_scripts(transport, [script(cm, a) for cm, a in cms])
        retries = sum(cm.counters["retries"] for cm, _ in cms)
        correct = store.cells["a"] == n_agents * n_ops
        result.points.append((loss, retries, transport.stats.total, correct))
    return result


# ---------------------------------------------------------------------------
# ABL4 — centralized vs decentralized merge/extract specification count
# ---------------------------------------------------------------------------

@dataclass
class Abl4Result:
    # (n_views, centralized fn count, decentralized fn count)
    points: List[Tuple[int, int, int]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["views", "centralized O(n)", "decentralized O(n^2)"],
            title="ABL4 — application-provided merge/extract functions (paper §4.1)",
        )
        for n, c, d in self.points:
            t.add_row(n, c, d)
        return t


def run_abl4(view_counts: Tuple[int, ...] = (2, 5, 10, 25, 50, 100)) -> Abl4Result:
    """Paper §4.1: the centralized protocol needs merge/extract only
    between each view and the original (4 functions per view: the Fig 3
    listing), while a decentralized peer design needs them per *pair*."""
    result = Abl4Result()
    for n in view_counts:
        centralized = 4 * n          # extract/merge x view<->original, both ways
        decentralized = 4 * (n * (n - 1) // 2) + 4 * n
        result.points.append((n, centralized, decentralized))
    return result


EXPERIMENTS = (
    Experiment("abl1_static_vs_dynamic", run_abl1, seeded=True),
    Experiment("abl2_trigger_period", run_abl2, seeded=True),
    Experiment("abl3_granularity", run_abl3, seeded=True),
    Experiment("abl4_centralization", run_abl4),
    Experiment("abl5_rw_semantics", run_abl5),
    Experiment("abl6_loss_tolerance", run_abl6, seeded=True),
)

if __name__ == "__main__":
    for experiment in EXPERIMENTS:
        cli(experiment)
