"""FIG5 — adaptability: method time vs data quality across mode switches.

Paper §5.2 (Adaptability): "ten conflicting travel agents connected to
the main database, all running in the same LAN.  Initially, they start
in weak mode and execute in a loop the 'reserve tickets' operation.
After that, the travel agents switch to strong mode, and execute the
same set of operations.  In the last phase, the travel agents switch
back to weak ...  We measure the time to execute a method and the
quality of the data used during the execution."

Expected trade-off (the paper's Figure 5): WEAK phases have small
method times but decaying data quality (unseen remote updates grow);
the STRONG phase has larger method times but perfect quality (0 unseen
updates at each method start).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.workload import generate_flight_database, make_agent_groups
from repro.core.modes import Mode
from repro.core.quality import QualityProbe
from repro.core.system import run_all_scripts
from repro.experiments.report import Table, ascii_series
from repro.experiments.runner import Experiment, cli


@dataclass
class MethodSample:
    time: float
    phase: str            # 'weak-1' | 'strong' | 'weak-2'
    duration: float       # sim time to execute the reserve method
    quality: int          # unseen remote updates at method start


@dataclass
class Fig5Result:
    samples: List[MethodSample] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["phase", "methods", "mean time", "max time", "mean unseen", "max unseen"],
            title="FIG5 — per-phase method execution time and data quality",
            notes=[
                ascii_series(self.series("duration"), label="method time  "),
                ascii_series(self.series("quality"), label="unseen updates"),
            ],
        )
        for phase in ("weak-1", "strong", "weak-2"):
            chosen = [s for s in self.samples if s.phase == phase]
            if not chosen:
                continue
            durs = np.array([s.duration for s in chosen])
            quals = np.array([s.quality for s in chosen])
            t.add_row(
                phase, len(chosen),
                float(durs.mean()), float(durs.max()),
                float(quals.mean()), int(quals.max()),
            )
        return t

    def series(self, what: str) -> List[float]:
        return [getattr(s, what) for s in self.samples]


def run_fig5(
    n_agents: int = 10,
    ops_per_phase: int = 10,
    seed: int = 0,
    think_time: float = 1.0,
    inter_op_gap: float = 5.0,
) -> Fig5Result:
    """Run the three-phase WEAK -> STRONG -> WEAK experiment.

    All agents serve the same flight block (fully conflicting).  The
    observed agent is ``ta-000``; the others generate the remote updates
    whose visibility the quality metric tracks.
    """
    database = generate_flight_database(5, seed=seed)
    airline = build_airline_system(database, strict_wire=False)
    groups = make_agent_groups(n_agents, n_conflicting=n_agents)
    agents = [
        airline.add_travel_agent(f"ta-{i:03d}", served, mode=Mode.WEAK)
        for i, served in enumerate(groups)
    ]
    probe = QualityProbe(airline.directory)
    result = Fig5Result()
    flight = groups[0][0]
    kernel = airline.kernel

    def agent_script(index: int, agent, cm):
        observed = index == 0
        yield cm.start()
        yield cm.init_image()
        for phase, mode in (
            ("weak-1", Mode.WEAK), ("strong", Mode.STRONG), ("weak-2", Mode.WEAK),
        ):
            if cm.mode is not mode:
                yield cm.set_mode(mode)
            for _ in range(ops_per_phase):
                t0 = kernel.now
                # The "reserve tickets" method under the current mode:
                # weak works on the local copy and pushes; strong
                # acquires exclusive ownership first (fresh data).
                yield cm.start_use_image()
                # Quality of the data *used during the execution*
                # (paper §5.2): sampled once the method holds its data.
                quality = probe.unseen(cm.view_id) if observed else 0
                agent.confirm_tickets(1, flight)
                if think_time:
                    yield ("sleep", think_time)
                cm.end_use_image()
                yield cm.push_image()
                if observed:
                    result.samples.append(
                        MethodSample(
                            time=t0,
                            phase=phase,
                            duration=kernel.now - t0,
                            quality=quality,
                        )
                    )
                yield ("sleep", inter_op_gap)
        yield cm.kill_image()

    run_all_scripts(
        airline.transport,
        [agent_script(i, agent, cm) for i, (agent, cm) in enumerate(agents)],
    )
    return result


def gates(result: Fig5Result) -> List[str]:
    """The paper's qualitative claims; returns violations."""
    problems = []
    by_phase = {
        phase: [s for s in result.samples if s.phase == phase]
        for phase in ("weak-1", "strong", "weak-2")
    }
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    weak_time = mean(
        [s.duration for s in by_phase["weak-1"] + by_phase["weak-2"]]
    )
    strong_time = mean([s.duration for s in by_phase["strong"]])
    if not strong_time > weak_time:
        problems.append(
            f"strong methods ({strong_time:.2f}) not slower than weak ({weak_time:.2f})"
        )
    # Strong phase: perfect data quality at every method start.
    strong_quality = [s.quality for s in by_phase["strong"]]
    # The first strong op may still observe pre-switch staleness.
    if any(q != 0 for q in strong_quality[1:]):
        problems.append(f"strong-phase quality not perfect: {strong_quality}")
    weak_quality = [s.quality for s in by_phase["weak-1"] + by_phase["weak-2"]]
    if max(weak_quality, default=0) == 0:
        problems.append("weak-phase quality never decayed (no unseen updates)")
    return problems


EXPERIMENT = Experiment("fig5_adaptability", run_fig5, seeded=True, gates=gates)

if __name__ == "__main__":
    cli(EXPERIMENT)
