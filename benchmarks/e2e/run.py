"""Script entry point: ``python3 benchmarks/e2e/run.py --workload ...``.

Puts the checkout root and ``src/`` on ``sys.path`` (the driver runs
this file directly, with no ``PYTHONPATH``) and hands over to
:func:`benchmarks.e2e.cli.main`.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
