"""The result document: shared header, one schema, tables, ``--compare``."""

from __future__ import annotations

import os
import platform
import re
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .spec import (
    END_TO_END,
    OPEN_ZIPF_RATE,
    PER_LAYER,
    RUN_SECONDS,
    SLICES,
    WARMUP_S,
    workload_names,
)

SCHEMA = "flecc-bench-e2e/1"
ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _git(*args: str) -> Optional[str]:
    # Ceiling: never walk up out of the checkout looking for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], env=env, timeout=10,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def header(seed: int, seconds: float, transport: str,
           op_sleep_ms: float = 0.0) -> Dict[str, Any]:
    """Machine fingerprint + run parameters every result carries."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "warmup_s": min(WARMUP_S, seconds / 2),
        "slices": SLICES,
        "transport": transport,
        "open_zipf_rate": OPEN_ZIPF_RATE,
        "canonical": (seconds == RUN_SECONDS and transport == "aio"
                      and not op_sleep_ms),
        "configs": {},
    }


def validate(doc: Dict[str, Any]) -> List[str]:
    """Schema problems of a result document (empty = valid)."""
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, not {SCHEMA!r}")
    head = doc.get("header", {})
    for key in ("commit", "dirty", "python", "platform", "cpu_count",
                "loadavg_start", "seed", "seconds", "warmup_s", "slices",
                "transport", "open_zipf_rate", "canonical", "configs"):
        if key not in head:
            problems.append(f"header lacks {key!r}")
    expected = {
        "end_to_end": {m.name: m.unit for m in END_TO_END},
        "per_layer": {name: unit for name, unit, *_ in PER_LAYER},
    }
    for name, section in doc.get("workloads", {}).items():
        if name not in workload_names():
            problems.append(f"unknown workload {name!r}")
        for key in ("correct", "attempted", "failed", "violations"):
            if key not in section:
                problems.append(f"{name} lacks {key!r}")
        for group, units in expected.items():
            metrics = section.get(group)
            if metrics is None:
                continue   # that run (traced or untraced) was not made
            if set(metrics) != set(units):
                problems.append(
                    f"{name}.{group}: metrics differ from spec: "
                    f"{sorted(set(metrics) ^ set(units))}"
                )
            for metric, entry in metrics.items():
                if not _NAME.match(metric):
                    problems.append(f"bad metric name {metric!r}")
                if entry.get("unit") != units.get(metric):
                    problems.append(f"{name}.{metric}: unit {entry.get('unit')!r}")
                if not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{name}.{metric}: value {entry.get('value')!r}")
    return problems


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, entry in metrics.items():
        line = f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}"
        slices = entry.get("slices")
        if slices:
            line += f"   [{min(slices):.4f} .. {max(slices):.4f}] n={len(slices)}"
        if "raw" in entry:
            line += f"   raw {entry['raw']:.4f}"
        print(line)


def print_budget(name: str, per_layer: Dict[str, Dict[str, Any]]) -> None:
    """The layer budget: rows + unaccounted sum to the op's wall time."""
    print(f"layer budget, {name} (share of op wall time)")
    total = 0.0
    for metric, entry in per_layer.items():
        if metric.endswith(".share") or metric == "budget.unaccounted_share":
            total += entry["value"]
            print(f"  {metric:<42} {entry['value']:>8.2%}")
    print(f"  {'sum':<42} {total:>8.2%}")


def print_summary(doc: Dict[str, Any]) -> None:
    """Workload x end-to-end metric, at reference speed (raw beneath)."""
    names = [m.name for m in END_TO_END]
    print(f"{'workload':<24}" + "".join(f"{n:>15}" for n in names))
    for name, section in doc["workloads"].items():
        metrics = section.get("end_to_end")
        if not metrics:
            continue
        print(f"{name:<24}"
              + "".join(f"{metrics[n]['value']:>15.4f}" for n in names))
        print(f"{'  raw':<24}" + "".join(
            f"{metrics[n]['raw']:>15.4f}" if "raw" in metrics[n] else " " * 15
            for n in names))


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _worsening(metric: Any, parent: float, current: float) -> float:
    """Relative change in the *worse* direction (negative = improved)."""
    if not parent:
        return 0.0
    change = (current - parent) / abs(parent)
    return change if metric.better == "lower" else -change


def _spread(entry: Dict[str, Any]) -> float:
    slices = entry.get("slices") or [entry["value"]]
    mid = sorted(slices)[len(slices) // 2]
    return (max(slices) - min(slices)) / abs(mid) if mid else 0.0


def _separated(metric: Any, parent: Dict[str, Any], current: Dict[str, Any]
               ) -> int:
    """+1: every current slice reads worse than every parent slice,
    -1: every one reads better, 0: the slices overlap."""
    p = parent.get("slices") or [parent["value"]]
    c = current.get("slices") or [current["value"]]
    if metric.better == "higher":
        p, c = [-x for x in p], [-x for x in c]
    if min(c) > max(p):
        return 1
    if max(c) < min(p):
        return -1
    return 0


def compare(parent: Dict[str, Any], current: Dict[str, Any]
            ) -> Tuple[List[Tuple[str, str, float, float, float, str]], bool]:
    """Rows ``(workload, metric, parent, current, worsening, verdict)`` for
    every workload both documents hold, and whether any is ``worse``.

    ``worse``: the value moved past the metric's bound in the bad
    direction.  When either side's slice spread is wider than the bound
    the reading is ``unresolved`` instead — unless the two sides' slices
    do not overlap at all, which settles it one way or the other.
    """
    rows = []
    for name, section in current.get("workloads", {}).items():
        before = parent.get("workloads", {}).get(name, {}).get("end_to_end")
        after = section.get("end_to_end")
        if not before or not after:
            continue
        for metric in END_TO_END:
            p, c = before[metric.name], after[metric.name]
            delta = _worsening(metric, p["value"], c["value"])
            noisy = max(_spread(p), _spread(c)) > metric.bound
            apart = _separated(metric, p, c)
            if delta > metric.bound:
                verdict = "worse" if not noisy or apart > 0 else "unresolved"
            else:
                verdict = "unresolved" if noisy and apart >= 0 else "ok"
            rows.append((name, metric.name, p["value"], c["value"], delta,
                         verdict))
    return rows, any(r[-1] == "worse" for r in rows)


def print_compare(rows: List[Tuple[str, str, float, float, float, str]]) -> None:
    print(f"{'workload':<24} {'metric':<14} {'parent':>12} {'current':>12} "
          f"{'ratio':>8} {'worse by':>9}  verdict")
    for name, metric, parent, current, delta, verdict in rows:
        ratio = current / parent if parent else float("nan")
        print(f"{name:<24} {metric:<14} {parent:>12.4f} {current:>12.4f} "
              f"{ratio:>7.3f}x {delta:>+8.1%}  {verdict}")
