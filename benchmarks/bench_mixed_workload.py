"""Benchmark EXT1: the browse/buy mixed workload from the paper's intro."""

from repro.experiments.mixed_workload import gates, run_ext1


def test_ext1_browse_buy_mix(benchmark):
    result = benchmark(run_ext1, buy_fractions=(0.0, 0.5), n_clients=6, n_ops=4)
    assert gates(result) == []
    (f0, m0, _, l0), (f1, m1, _, l1) = result.points
    assert l0 == l1 == 0
    assert m1 > m0
