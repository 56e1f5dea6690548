"""Benchmark FIG1: the three-domain deployment scenario (paper Figure 1).

Each iteration runs the full pipeline: PSF planning, deployment, WAN
coherence workload, and the consistency check.
"""

from repro.experiments.fig1_deployment import gates, run_fig1


def test_fig1_three_domains(benchmark):
    result = benchmark(run_fig1, ops_per_domain=3)
    assert gates(result) == []
    assert result.reservations_made == 6
