"""Benchmark FIG5: the WEAK -> STRONG -> WEAK adaptability experiment.

Each iteration runs the paper's 10-agent three-phase workload and
verifies the trade-off shape (strong slower with perfect quality).
"""

from repro.experiments.fig5_adaptability import gates, run_fig5


def test_fig5_three_phases(benchmark):
    result = benchmark(run_fig5, n_agents=10, ops_per_phase=6)
    assert gates(result) == []
    assert len(result.samples) == 18  # 6 observed methods per phase
