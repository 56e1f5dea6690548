"""Plain-text reporting for experiment results (tables and series).

The paper reports line charts; a terminal reproduction prints the same
series as aligned columns plus a coarse ASCII sparkline so trends are
visible in CI logs without plotting dependencies.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


class Table:
    """Fixed-column ASCII table."""

    def __init__(
        self, columns: Sequence[str], title: str = "", notes: Sequence[str] = ()
    ) -> None:
        self.title = title
        self.columns = list(columns)
        self.notes = list(notes)  # lines printed under the rows
        self.rows: List[List[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def format(self) -> str:
        cells = [self.columns] + [
            [self._fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines += ["", *self.notes]
        return "\n".join(lines)

    @staticmethod
    def _fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.2f}"
        return str(v)

    def __str__(self) -> str:
        return self.format()


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


_BARS = " ▁▂▃▄▅▆▇█"


def ascii_series(
    values: Iterable[float], width: Optional[int] = None, label: str = ""
) -> str:
    """One-line sparkline for a numeric series."""
    vals = list(values)
    if not vals:
        return f"{label} (empty)"
    if width is not None and len(vals) > width:
        # Downsample by block means.
        block = len(vals) / width
        vals = [
            sum(vals[int(i * block):int((i + 1) * block) or 1])
            / max(1, len(vals[int(i * block):int((i + 1) * block)]))
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        bar = _BARS[1] * len(vals)
    else:
        bar = "".join(
            _BARS[1 + int((v - lo) / (hi - lo) * (len(_BARS) - 2))] for v in vals
        )
    prefix = f"{label} " if label else ""
    return f"{prefix}[{bar}] min={lo:.3g} max={hi:.3g}"
