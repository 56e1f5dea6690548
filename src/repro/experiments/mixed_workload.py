"""EXT1 — the introduction's motivating scenario, quantified.

Paper §1: "an airline reservation system might allow users to browse
flights, buy tickets, and switch between the two modes of operation.
In general, users accept stale data during browsing (weak consistency),
but require most current data when buying tickets (strong
consistency)."

This experiment sweeps the buy fraction of a mixed browse/buy client
population.  Each client switches its travel agent's mode per operation
kind (browse -> WEAK, buy -> STRONG via ``Operation.implied_mode``).
Reported per sweep point:

- control messages (the cost of consistency),
- invalidations absorbed by the observed browser (strong buyers revoke
  weak browsers, dragging them fresh — the hidden cost browsers pay),
- sold - committed (lost sales; must be 0 because buys are strong).

Expected shape: more buying -> more messages and more browser
invalidations, but zero lost sales at every point.  (Browse staleness
itself stays ~0 here precisely *because* the buyers' invalidations
force the browsers to refresh — one-copy semantics protecting even the
weak participants.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.workload import generate_flight_database, make_agent_groups
from repro.core.modes import Mode
from repro.core.system import run_all_scripts
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, cli
from repro.psf.qos import Operation
from repro.sim.rng import stream_for


@dataclass
class Ext1Result:
    # (buy fraction, messages, browser invalidations, lost sales)
    points: List[Tuple[float, int, int, int]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["buy fraction", "messages", "browser invalidations", "lost sales"],
            title="EXT1 — browse/buy mix: consistency cost vs correctness",
        )
        for frac, msgs, inv, lost in self.points:
            t.add_row(frac, msgs, inv, lost)
        return t


def _run_point(
    buy_fraction: float, n_clients: int, n_ops: int, seed: int
) -> Tuple[int, int, int]:
    database = generate_flight_database(5, seed=seed)
    airline = build_airline_system(database, strict_wire=False)
    groups = make_agent_groups(n_clients, n_conflicting=n_clients)
    flight = groups[0][0]
    seats_before = database.seats_available(flight)
    sold = [0]
    observer_cm = [None]

    def client(index: int):
        agent, cm = airline.add_travel_agent(
            f"client-{index:02d}", groups[index], mode=Mode.WEAK
        )
        if index == 0:
            observer_cm[0] = cm
        rng = stream_for(seed, "mix", index)
        yield cm.start()
        yield cm.init_image()
        for _ in range(n_ops):
            buying = rng.random() < buy_fraction
            op = Operation.BUY if buying else Operation.BROWSE
            if cm.mode is not op.implied_mode:
                yield cm.set_mode(op.implied_mode)
            yield cm.start_use_image()
            if buying:
                agent.confirm_tickets(1, flight)
                sold[0] += 1
            else:
                agent.browse(flight)
            cm.end_use_image()
            if buying and cm.mode is Mode.WEAK:
                yield cm.push_image()
            yield ("sleep", 5.0)
        yield cm.kill_image()

    run_all_scripts(airline.transport, [client(i) for i in range(n_clients)])
    committed = seats_before - database.seats_available(flight)
    lost = sold[0] - committed
    invalidations = observer_cm[0].counters["invalidations"]
    return airline.stats.total, invalidations, lost


def run_ext1(
    buy_fractions: Tuple[float, ...] = (0.0, 0.2, 0.5, 1.0),
    n_clients: int = 8,
    n_ops: int = 6,
    seed: int = 0,
) -> Ext1Result:
    result = Ext1Result()
    for frac in buy_fractions:
        msgs, invalidations, lost = _run_point(frac, n_clients, n_ops, seed)
        result.points.append((frac, msgs, invalidations, lost))
    return result


def gates(result: Ext1Result) -> List[str]:
    problems = []
    if any(lost != 0 for _, _, _, lost in result.points):
        problems.append("strong-mode buys lost sales")
    msgs = [m for _, m, _, _ in result.points]
    if not msgs[-1] > msgs[0]:
        problems.append("all-buy workload not costlier than all-browse")
    inv = [i for _, _, i, _ in result.points]
    if not (inv[0] == 0 and max(inv[1:], default=0) > 0):
        problems.append("buyers never invalidated the observed browser")
    return problems


EXPERIMENT = Experiment("ext1_mixed_workload", run_ext1, seeded=True, gates=gates)

if __name__ == "__main__":
    cli(EXPERIMENT)
