"""Benchmark FIG6: quality triggers — message cost vs data quality.

Each iteration runs both variants (explicit pulls only / plus a
time-based pull trigger) and verifies the paper's direction: triggers
cost messages and buy quality (paper reported 116 vs 182 messages).
"""

from repro.experiments.fig6_flexibility import gates, run_fig6


def test_fig6_trigger_tradeoff(benchmark):
    result = benchmark(run_fig6, n_agents=10, n_methods=10)
    assert gates(result) == []
    assert (
        result.with_triggers.total_messages
        > result.without_triggers.total_messages
    )
