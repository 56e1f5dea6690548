"""FIG6 — flexibility: data quality with vs without pull triggers.

Paper §5.2 (Flexibility): "ten conflicting travel agents in weak mode,
with and without triggers ...  The upper graph represents a travel
agent which explicitly pulls the current data before executing four
methods.  The lower plot represents the same travel agent that uses a
time-based pull trigger in addition to explicit calls.  However, the
cost of the improved data quality is an increased number of messages
(116 - no triggers versus 182 - with triggers)."

Our reproduction: one observed agent performs a timeline of method
calls, explicitly pulling before every third one; the trigger variant
adds a periodic time-based pull trigger.  We report the per-method-call
unseen-update series for both variants and the total message counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apps.airline.app_spec import build_airline_system
from repro.apps.airline.workload import generate_flight_database, make_agent_groups
from repro.core.modes import Mode
from repro.core.quality import QualityProbe
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
from repro.experiments.report import Table, ascii_series
from repro.experiments.runner import Experiment, cli


@dataclass
class VariantResult:
    label: str
    quality_series: List[Tuple[float, int]] = field(default_factory=list)
    total_messages: int = 0


@dataclass
class Fig6Result:
    without_triggers: VariantResult
    with_triggers: VariantResult

    def table(self) -> Table:
        variants = (self.without_triggers, self.with_triggers)
        t = Table(
            ["variant", "messages", "mean unseen", "max unseen"],
            title="FIG6 — pull triggers: data quality vs message cost",
            notes=[
                ascii_series([q for _, q in v.quality_series],
                             label=f"{v.label:<22}")
                for v in variants
            ],
        )
        for v in variants:
            quals = [q for _, q in v.quality_series]
            t.add_row(
                v.label, v.total_messages,
                sum(quals) / len(quals) if quals else 0.0,
                max(quals, default=0),
            )
        return t


def _run_variant(
    use_trigger: bool,
    n_agents: int,
    n_methods: int,
    explicit_pull_every: int,
    trigger_period: float,
    method_gap: float,
    seed: int,
) -> VariantResult:
    database = generate_flight_database(5, seed=seed)
    airline = build_airline_system(database, strict_wire=False)
    groups = make_agent_groups(n_agents, n_conflicting=n_agents)
    flight = groups[0][0]

    # The time-based pull trigger: fires at every poll once the clock
    # is running (the paper's Fig 3 uses the same shape, "(t > 1500)").
    # The poll period *is* the trigger period.
    triggers = TriggerSet(pull="t > 0") if use_trigger else None
    observed_agent, observed_cm = airline.add_travel_agent(
        "ta-000", groups[0], mode=Mode.WEAK,
        triggers=triggers, trigger_poll_period=trigger_period,
    )
    writers = [
        airline.add_travel_agent(f"ta-{i:03d}", served, mode=Mode.WEAK)
        for i, served in enumerate(groups[1:], start=1)
    ]
    probe = QualityProbe(airline.directory)
    variant = VariantResult(
        label="with pull trigger" if use_trigger else "explicit pulls only"
    )
    kernel = airline.kernel

    def observed_script():
        yield observed_cm.start()
        yield observed_cm.init_image()
        for i in range(n_methods):
            if i % explicit_pull_every == 0:
                yield observed_cm.pull_image()  # the paper's explicit call
            yield observed_cm.start_use_image()
            variant.quality_series.append(
                (kernel.now, probe.unseen(observed_cm.view_id))
            )
            observed_agent.confirm_tickets(1, flight)
            observed_cm.end_use_image()
            yield observed_cm.push_image()
            yield ("sleep", method_gap)
        yield observed_cm.kill_image()

    def writer_script(agent, cm):
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
        [observed_script()] + [writer_script(a, cm) for a, cm in writers],
    )
    variant.total_messages = airline.stats.total
    return variant


def run_fig6(
    n_agents: int = 10,
    n_methods: int = 12,
    explicit_pull_every: int = 3,
    trigger_period: float = 5.0,
    method_gap: float = 10.0,
    seed: int = 0,
) -> Fig6Result:
    common = dict(
        n_agents=n_agents,
        n_methods=n_methods,
        explicit_pull_every=explicit_pull_every,
        trigger_period=trigger_period,
        method_gap=method_gap,
        seed=seed,
    )
    return Fig6Result(
        without_triggers=_run_variant(use_trigger=False, **common),
        with_triggers=_run_variant(use_trigger=True, **common),
    )


def gates(result: Fig6Result) -> List[str]:
    problems = []
    no_t = result.without_triggers
    with_t = result.with_triggers
    if not with_t.total_messages > no_t.total_messages:
        problems.append(
            f"triggers did not cost messages "
            f"({with_t.total_messages} <= {no_t.total_messages})"
        )
    mean = lambda v: (
        sum(q for _, q in v.quality_series) / len(v.quality_series)
        if v.quality_series else 0.0
    )
    if not mean(with_t) < mean(no_t):
        problems.append(
            f"triggers did not improve quality "
            f"(mean unseen {mean(with_t):.2f} vs {mean(no_t):.2f})"
        )
    return problems


EXPERIMENT = Experiment("fig6_flexibility", run_fig6, seeded=True, gates=gates)

if __name__ == "__main__":
    cli(EXPERIMENT)
