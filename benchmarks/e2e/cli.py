"""Command line: the full benchmark, or one run under the driver's contract.

    PYTHONPATH=src python -m benchmarks.e2e --seed N [--only W] [--quick]
        [--transport tcp] [--compare PARENT.json] [--result CURRENT.json]

runs every workload (untraced, then traced) each in a fresh subprocess,
prints every metric by name with its unit, and writes
``benchmarks/e2e/out/result.json``.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is one such subprocess: it prints its metrics, then, as the last line
of standard output, the JSON object the driver's contract asks for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import report
from .report import OUT_DIR
from .spec import RUN_SECONDS, split_workload, workload_names

QUICK_SECONDS = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"timed window per run (canonical: {RUN_SECONDS})")
    p.add_argument("--workload", choices=workload_names(),
                   help="run this one workload in this process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 = the traced, per-layer run")
    p.add_argument("--only", action="append", choices=workload_names(),
                   help="full run: restrict to these workloads")
    p.add_argument("--quick", action="store_true",
                   help=f"{QUICK_SECONDS} s windows; results non-canonical")
    p.add_argument("--transport", choices=("aio", "tcp"), default="aio",
                   help="tcp: ad-hoc, non-canonical re-run of the .stock legs "
                        "on the threaded backend")
    p.add_argument("--compare", metavar="PARENT.json",
                   help="compare against this result; exit 1 on any 'worse'")
    p.add_argument("--result", metavar="CURRENT.json",
                   help="with --compare: compare this result, run nothing")
    p.add_argument("--inject-op-sleep-ms", type=float, default=0.0,
                   help="self-test hook: sleep inside every op's use step")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else RUN_SECONDS
    if args.workload:
        return _one_run(args)
    if args.result:
        doc = json.loads(Path(args.result).read_text())
    else:
        doc = _full_run(args)
    report.print_summary(doc)
    failed = [n for n, w in doc["workloads"].items() if not w["correct"]]
    if failed:
        print(f"INCORRECT: {failed}")
    worse = False
    if args.compare:
        parent = json.loads(Path(args.compare).read_text())
        rows, worse = report.compare(parent, doc)
        report.print_compare(rows)
    return 1 if failed or worse else 0


def _header(args: argparse.Namespace) -> Dict[str, Any]:
    return report.header(args.seed, args.seconds, args.transport,
                         args.inject_op_sleep_ms)


def _one_run(args: argparse.Namespace) -> int:
    # Imported here so `--help` and `--compare --result` need no src/.
    from .runner import run_workload

    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        transport=args.transport, op_sleep_ms=args.inject_op_sleep_ms,
        out_dir=OUT_DIR,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}.run{args.trace}.json").write_text(json.dumps(
        {"schema": report.SCHEMA, "header": _header(args),
         "workload": args.workload,
         "trace": bool(args.trace), "run": run}, indent=1))
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    report.print_metrics(f"{args.workload}: {kind} metrics", run["metrics"])
    if args.trace:
        report.print_budget(args.workload, run["metrics"])
    print(f"  ops attempted {run['attempted']}, failed {run['failed']}; "
          f"{run['diagnostics']}")
    for violation in run["violations"]:
        print(f"  VIOLATION: {violation}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": max(run["attempted"], 1),
        "failed": run["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in run["metrics"].items()},
    }))
    return 0 if run["correct"] else 1


def _full_run(args: argparse.Namespace) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "schema": report.SCHEMA,
        "header": _header(args),
        "workloads": {},
    }
    names = args.only or [
        n for n in workload_names()
        if args.transport == "aio" or n.endswith(".stock")
    ]
    for name in names:
        section: Dict[str, Any] = {
            "correct": True, "attempted": 0, "failed": 0, "violations": [],
            "end_to_end": None, "per_layer": None, "diagnostics": {},
        }
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            run = _child(args, name, trace)
            section[group] = run["metrics"]
            section["correct"] &= run["correct"]
            section["violations"] += run["violations"]
            section["diagnostics"].update(run["diagnostics"])
            if not trace:
                section["attempted"] = run["attempted"]
                section["failed"] = run["failed"]
                doc["header"]["configs"][split_workload(name)[2]] = run["knobs"]
        doc["workloads"][name] = section
    problems = report.validate(doc)
    if problems:
        raise SystemExit(f"result document invalid: {problems}")
    path = OUT_DIR / "result.json"
    path.write_text(json.dumps(doc, indent=1))
    print(f"wrote {path.relative_to(report.ROOT)}"
          + ("" if doc["header"]["canonical"] else "  (NON-CANONICAL run)"))
    return doc


def _child(args: argparse.Namespace, name: str, trace: int) -> Dict[str, Any]:
    """One workload run in a fresh interpreter; its output passes through."""
    cmd: List[str] = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--transport", args.transport,
        "--inject-op-sleep-ms", str(args.inject_op_sleep_ms),
    ]
    path = OUT_DIR / f"{name}.run{trace}.json"
    path.unlink(missing_ok=True)   # never read a previous run's document
    done = subprocess.run(cmd, cwd=report.ROOT, timeout=300, text=True,
                          stdout=subprocess.PIPE)
    # All but the last line, which is the driver contract's JSON object.
    print("\n".join(done.stdout.rstrip("\n").split("\n")[:-1]), flush=True)
    if done.returncode not in (0, 1) or not path.exists():
        raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
    return json.loads(path.read_text())["run"]
