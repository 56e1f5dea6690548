"""Experiment harness: one module per paper figure, plus ablations.

Every module exposes a ``run_*`` function returning a structured result
and declares itself as an :class:`~repro.experiments.runner.Experiment`;
the engine in :mod:`repro.experiments.runner` gives each the same
command line, record and ``--check`` gate evaluation::

    python -m repro.experiments.fig2_trace
    python -m repro.experiments.fig4_efficiency
    python -m repro.experiments.fig5_adaptability
    python -m repro.experiments.fig6_flexibility
    python -m repro.experiments.ablations

The corresponding pytest-benchmark wrappers live in ``benchmarks/``.
See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.experiments.report import Table, ascii_series

__all__ = ["Table", "ascii_series"]
