"""Benchmark FIG4: message counts for Flecc vs time-sharing vs multicast.

The paper's experiment uses 100 agents with the conflict group swept
10..100.  The benchmark sweeps a reduced population (30 agents, step
10) per iteration and checks the qualitative shape; run

    python -m repro.experiments.fig4_efficiency

for the paper-scale table.
"""

import pytest

from repro.baselines.common import ProtocolName
from repro.experiments.fig4_efficiency import _run_point, gates, run_fig4

N_AGENTS = 30


def test_fig4_full_sweep(benchmark):
    result = benchmark(run_fig4, n_agents=N_AGENTS, step=10)
    assert gates(result) == []
    fl = result.messages[ProtocolName.FLECC.value]
    mc = result.messages[ProtocolName.MULTICAST.value]
    # At full conflict, Flecc converges to the application-oblivious max.
    assert fl[-1] == pytest.approx(mc[-1], rel=0.05)


@pytest.mark.parametrize("protocol", list(ProtocolName))
def test_fig4_single_point(benchmark, protocol):
    """Per-protocol cost at the mid-sweep point (15/30 conflicting)."""
    total = benchmark(
        _run_point,
        protocol,
        n_agents=N_AGENTS,
        n_conflicting=15,
        ops_per_agent=1,
        seed=0,
        stagger=2.0,
    )
    assert total > 0
