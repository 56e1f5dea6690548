"""FIG4 — message counts: Flecc vs time-sharing vs multicast.

Paper §5.2 (Efficiency): "The experiment executes 100 travel agent
components deployed into a LAN and connected to a main database running
in the same LAN.  All travel agents execute the same sequence of
operations: (1) create the cache manager, (2) set the mode of operation
to weak, (3) initialize the data, (4) reserve tickets for a flight,
(5) kill the cache manager.  Each travel agent defines a property
('Flights') that contains a list of all the served flights.  The number
of travel agents that serve similar flights is initially 10, and
increases in increments of 10 up to 100.  The consistency requirements
of every travel agent is to always execute on the most current data."

The always-most-current requirement is expressed as a validity trigger
``true`` — every pull collects fresh state from the *conflicting*
active views (Flecc), from *all* views (multicast), or from nobody
(time-sharing, where serial execution makes the primary copy current by
construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.travel_agent import lifecycle
from repro.apps.airline.workload import (
    flights_needed,
    generate_flight_database,
    make_agent_groups,
    reserve_operations,
)
from repro.baselines.common import ProtocolName
from repro.baselines.time_sharing import TimeSharingRunner
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, ShardSpec, cli


@dataclass
class Fig4Result:
    n_agents: int
    conflicting_sweep: List[int]
    # protocol name -> [message totals per sweep point]
    messages: Dict[str, List[int]] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table(
            ["conflicting"] + [p.value for p in ProtocolName],
            title=f"FIG4 — control messages, {self.n_agents} travel agents on one LAN",
        )
        for i, k in enumerate(self.conflicting_sweep):
            t.add_row(k, *(self.messages[p.value][i] for p in ProtocolName))
        return t


def _run_point(
    protocol: ProtocolName,
    n_agents: int,
    n_conflicting: int,
    ops_per_agent: int,
    seed: int,
    stagger: float,
) -> int:
    """One sweep point: run the workload, return total message count."""
    flights_per_agent = 5
    database = generate_flight_database(
        flights_needed(n_agents, n_conflicting, flights_per_agent), seed=seed
    )
    airline = build_airline_system(database, protocol=protocol, strict_wire=False)
    groups = make_agent_groups(n_agents, n_conflicting, flights_per_agent)
    scripts = []
    for i, served in enumerate(groups):
        agent, cm = airline.add_travel_agent(
            f"ta-{i:03d}",
            served,
            # Step (2): weak mode.  Always-current data = validity true.
            mode="weak",
            triggers=TriggerSet(validity="true"),
        )
        ops = reserve_operations(served, ops_per_agent, seed=seed, agent_index=i)
        script = _staggered(lifecycle(cm, agent, ops, think_time=1.0), i * stagger)
        scripts.append(script)
    if protocol is ProtocolName.TIME_SHARING:
        TimeSharingRunner(airline.transport).run_serial(scripts)
    else:
        run_all_scripts(airline.transport, scripts)
    return airline.stats.total


def _staggered(script, delay: float):
    """Prefix a script with a start delay (arrival staggering)."""
    if delay > 0:
        yield ("sleep", delay)
    result = yield from script
    return result


# -- the sweep ----------------------------------------------------------------
# Every (protocol, conflicting-count) point builds its own airline system
# and transport, so points are independent tasks.

def sweep_points(n_agents: int = 100, step: int = 10, **_: Any) -> List[tuple]:
    """One ``(protocol, n_agents, n_conflicting)`` point per protocol
    and conflicting-agent count, protocol-major."""
    sweep = range(step, n_agents + 1, step)
    return [(p.value, n_agents, k) for p in ProtocolName for k in sweep]


def run_fig4_point(
    point: tuple,
    ops_per_agent: int = 1,
    seed: int = 0,
    stagger: float = 2.0,
    **_: Any,
) -> int:
    """Run one sweep point; returns its message total."""
    protocol_value, n_agents, n_conflicting = point
    return _run_point(
        ProtocolName(protocol_value), n_agents, n_conflicting,
        ops_per_agent, seed, stagger,
    )


def merge_fig4(points: List[tuple], partials: List[int], **_: Any) -> Fig4Result:
    """Per-point totals as the figure: one series per protocol."""
    totals = dict(zip(points, partials))
    n_agents = points[0][1]
    sweep = sorted({point[2] for point in points})
    result = Fig4Result(n_agents=n_agents, conflicting_sweep=sweep)
    for protocol in ProtocolName:
        result.messages[protocol.value] = [
            totals[(protocol.value, n_agents, k)] for k in sweep
        ]
    return result


def gates(result: Fig4Result) -> List[str]:
    """The paper's qualitative claims; returns a list of violations."""
    problems = []
    fl = result.messages[ProtocolName.FLECC.value]
    ts = result.messages[ProtocolName.TIME_SHARING.value]
    mc = result.messages[ProtocolName.MULTICAST.value]
    for i, k in enumerate(result.conflicting_sweep):
        if not ts[i] <= fl[i]:
            problems.append(f"time-sharing above flecc at k={k}")
        if not fl[i] <= mc[i] * 1.05:
            problems.append(f"flecc above multicast at k={k}")
    if not fl[0] < fl[-1]:
        problems.append("flecc does not grow with conflict-set size")
    mc_spread = (max(mc) - min(mc)) / max(mc)
    fl_spread = (fl[-1] - fl[0]) / max(fl)
    if mc_spread > fl_spread:
        problems.append("multicast more conflict-sensitive than flecc")
    return problems


EXPERIMENT = Experiment(
    "fig4_efficiency", ShardSpec(sweep_points, run_fig4_point, merge_fig4),
    seeded=True, gates=gates,
)
run_fig4 = EXPERIMENT

if __name__ == "__main__":
    cli(EXPERIMENT)
