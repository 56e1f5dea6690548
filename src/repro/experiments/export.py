"""Export recorded experiment results to CSV for downstream plotting.

Each exporter reads the ``result`` document of one record the runner
wrote (``results/<name>.json``) and writes one tidy CSV (long format:
one observation per row), the shape pandas/R/gnuplot consume directly.
Nothing is re-run here::

    python -m repro.experiments.runner   # results/<name>.json
    python -m repro.experiments.export   # results/csv/*.csv from them
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The experiments recorded as a list of ``points`` rows, and the CSV
#: columns of each row.
POINT_COLUMNS: Dict[str, List[str]] = {
    "abl2_trigger_period": ["pull_period", "messages", "mean_unseen"],
    "abl4_centralization": [
        "views", "centralized_functions", "decentralized_functions",
    ],
    "abl5_rw_semantics": [
        "read_fraction", "rw_aware_messages", "write_only_messages",
    ],
    "abl6_loss_tolerance": ["loss_rate", "retries", "messages", "all_committed"],
    "ext1_mixed_workload": [
        "buy_fraction", "messages", "browser_invalidations", "lost_sales",
    ],
}


def _write(path: Path, header: List[str], rows: List[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_fig4(doc: Dict[str, Any], path: Path) -> Path:
    rows = [
        [protocol, k, msgs]
        for protocol, series in doc["messages"].items()
        for k, msgs in zip(doc["conflicting_sweep"], series)
    ]
    return _write(path, ["protocol", "conflicting_agents", "messages"], rows)


def export_fig5(doc: Dict[str, Any], path: Path) -> Path:
    rows = [
        [s["time"], s["phase"], s["duration"], s["quality"]]
        for s in doc["samples"]
    ]
    return _write(path, ["time", "phase", "method_duration", "unseen_updates"], rows)


def export_fig6(doc: Dict[str, Any], path: Path) -> Path:
    rows = [
        [variant["label"], t, q, variant["total_messages"]]
        for variant in (doc["without_triggers"], doc["with_triggers"])
        for t, q in variant["quality_series"]
    ]
    return _write(
        path, ["variant", "time", "unseen_updates", "total_messages"], rows
    )


def export_points(name: str, doc: Dict[str, Any], path: Path) -> Path:
    return _write(path, POINT_COLUMNS[name], doc["points"])


def export_scalar_ablations(
    abl1: Dict[str, Any], abl3: Dict[str, Any], path: Path
) -> Path:
    return _write(
        path,
        ["ablation", "variant", "messages"],
        [
            ["abl1", "conservative-static", abl1["messages_conservative"]],
            ["abl1", "dynamic-properties", abl1["messages_dynamic"]],
            ["abl3", "coarse-granularity", abl3["messages_coarse"]],
            ["abl3", "fine-granularity", abl3["messages_fine"]],
        ],
    )


def export_all(
    results_dir: str = "results", out_dir: Optional[str] = None
) -> List[Path]:
    """Write every CSV from the records in ``results_dir`` (to its
    ``csv/`` subdirectory unless ``out_dir`` says otherwise); returns
    the written paths."""
    records = Path(results_dir)
    out = Path(out_dir) if out_dir else records / "csv"

    def result(name: str) -> Dict[str, Any]:
        return json.loads((records / f"{name}.json").read_text())["result"]

    written = [
        export_fig4(result("fig4_efficiency"), out / "fig4_efficiency.csv"),
        export_fig5(result("fig5_adaptability"), out / "fig5_adaptability.csv"),
        export_fig6(result("fig6_flexibility"), out / "fig6_flexibility.csv"),
    ]
    written += [
        export_points(name, result(name), out / f"{name}.csv")
        for name in POINT_COLUMNS
    ]
    written.append(export_scalar_ablations(
        result("abl1_static_vs_dynamic"), result("abl3_granularity"),
        out / "abl_scalars.csv",
    ))
    return written


if __name__ == "__main__":
    for p in export_all():
        print(p)
