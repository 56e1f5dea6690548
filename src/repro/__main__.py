"""Command-line entry: list and run the paper's experiments.

Usage::

    python -m repro                    # list experiments
    python -m repro fig4               # run one (fuzzy name match; its own flags follow)
    python -m repro all --jobs 2       # run everything, save results/ (runner flags follow)
"""

from __future__ import annotations

import sys

from repro.experiments.runner import cli, registry


def forward(argv: list[str]) -> int:
    """Hand the command line to the experiment CLI; returns the exit status."""
    experiments = registry()
    target = argv[0].lower() if argv else ""
    if target == "all":
        cli(argv=argv[1:])
        return 0
    matches = [exp for name, exp in experiments.items() if target in name]
    if argv and matches:
        for exp in matches:
            cli(exp, argv=argv[1:])
        return 0
    if argv:
        print(f"no experiment matches {target!r}; try one of:")
    else:
        print(__doc__)
        print("available experiments:")
    for name in experiments:
        print(f"  {name}")
    return 1 if argv else 0


if __name__ == "__main__":
    raise SystemExit(forward(sys.argv[1:]))
