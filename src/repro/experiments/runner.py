"""The experiment engine: declaration, registry, record, gates, CLI.

An experiment module states what it *is* — an :class:`Experiment`
named ``EXPERIMENT`` (``ablations`` states a tuple ``EXPERIMENTS``)
beside its workload — and this module owns everything else: parsing
the command line, splitting the suite into tasks and running them,
building and writing the record, evaluating the declared gates and the
exit status.

Every run, through any front door, yields the same record::

    {"schema": "flecc-experiment/1", "experiment": name,
     "header": {"commit", "dirty", "python", "platform", "cpu_count",
                "params", "seed"},
     "wall_seconds": float,
     "gates": {"declared": bool, "problems": [str]},
     "result": summarize(result) if declared else the result as JSON}

``results/<name>.json`` and ``BENCH_<x>.json`` are that record at two
paths.  Front doors::

    python -m repro.experiments.runner                  # everything, in-process
    python -m repro.experiments.runner --jobs 4         # on 4 worker processes
    python -m repro.experiments.runner --only chaos --check --out /tmp/r
    python -m repro.experiments.runner --only abl1_static_vs_dynamic --seeds 0 1 2
    python -m repro.experiments.chaos --check           # one module, its own flags

``--check`` turns any gate violation into exit status 1; without it
violations are reported and recorded, not fatal.  The suite runs as
tasks — a whole experiment, or one point of a sweep declared as a
:class:`ShardSpec` — in this process at ``--jobs 1`` (the default) and
on a :mod:`multiprocessing` pool above that; either way each record is
merged, judged and written in one place, so ``--jobs`` moves nothing
but ``wall_seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import multiprocessing
import os
import platform
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.message import reset_message_ids

SCHEMA = "flecc-experiment/1"

#: The modules that declare experiments.  The registry lists their
#: declarations in this order: figures, ablations, extension, sweeps.
MODULES: Tuple[str, ...] = (
    "fig1_deployment", "fig2_trace", "fig4_efficiency", "fig5_adaptability",
    "fig6_flexibility", "ablations", "mixed_workload", "chaos", "delta_sweep",
    "wire_sweep", "shard_sweep", "scale_sweep", "durability_sweep",
    "dm_profile", "dm_sched",
)


@dataclass(frozen=True)
class Param:
    """One per-experiment command-line flag.

    Its value reaches ``run`` as the keyword named after the flag
    (``--max-cms`` -> ``max_cms``).  A ``False`` default makes a
    switch; any other flag takes an int.
    """

    flag: str
    default: Any = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class ShardSpec:
    """A sweep declared as independent points.

    ``points(**kw)`` returns picklable point descriptors;
    ``run_point(point, **kw)`` computes one point's partial result;
    ``merge(points, partials, **kw)`` assembles the experiment's result.
    Each receives the run's keywords (``kw``) and takes what it needs.
    The spec is itself the experiment's ``run``: calling it is their
    composition, and the suite runs each point as its own task.
    """

    points: Callable[..., List[Any]]
    run_point: Callable[..., Any]
    merge: Callable[..., Any]

    def __call__(self, **kwargs: Any) -> Any:
        points = self.points(**kwargs)
        partials = [self.run_point(p, **kwargs) for p in points]
        return self.merge(points, partials, **kwargs)


@dataclass(frozen=True)
class Experiment:
    """What an experiment module states about itself.

    ``run(**params)`` is the workload — a function, or a
    :class:`ShardSpec`.  ``seeded`` says ``run`` takes a ``seed``
    keyword (what ``--seeds`` sweeps).  ``summarize(result)`` turns the
    result into the document that is recorded and gated; without it the
    result itself is.  ``gates(summary)`` returns the violated
    acceptance conditions, one string each.  ``out`` is where the
    module's own command line writes its record by default.

    Calling the experiment runs it with every declared parameter at its
    default unless a keyword overrides it.
    """

    name: str
    run: Callable[..., Any]
    params: Tuple[Param, ...] = ()
    seeded: bool = False
    summarize: Optional[Callable[[Any], Dict[str, Any]]] = None
    gates: Optional[Callable[[Any], List[str]]] = None
    out: Optional[str] = None

    @property
    def shard(self) -> Optional[ShardSpec]:
        return self.run if isinstance(self.run, ShardSpec) else None

    def __call__(self, **overrides: Any) -> Any:
        return self.run(**{**run_kwargs(self), **overrides})


def registry() -> Dict[str, Experiment]:
    """Every declared experiment by name, collected from :data:`MODULES`."""
    found: Dict[str, Experiment] = {}
    for stem in MODULES:
        module = importlib.import_module(f"repro.experiments.{stem}")
        declared = getattr(module, "EXPERIMENTS", None) or (module.EXPERIMENT,)
        found.update((exp.name, exp) for exp in declared)
    return found


def capped_ramp(ramp: Sequence[int], top: Optional[int]) -> List[int]:
    """An ascending ramp cut off at ``top``, ``top`` itself the last point
    (the ``--max-*`` flags of the CI smokes)."""
    if top is None:
        return list(ramp)
    return [n for n in ramp if n < top] + [top]


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of experiment results to JSON."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        # Deterministic JSON for unordered collections: a sorted list
        # (sets used to fall through to str(), losing the elements).
        vals = [_jsonable(v) for v in obj]
        try:
            return sorted(vals)
        except TypeError:  # mixed element types: total order via repr
            return sorted(vals, key=repr)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "sequence"):  # TraceLog
        return [f"{a}:{e}" for a, e in obj.sequence()]
    return str(obj)


def point_doc(point: Any, **digits: int) -> Dict[str, Any]:
    """A sweep point as JSON, the named float fields (or dicts of floats)
    rounded to the given digits — what ``summarize`` records per point."""
    doc = _jsonable(point)
    for name, n in digits.items():
        value = doc[name]
        doc[name] = (
            {k: round(v, n) for k, v in value.items()}
            if isinstance(value, dict) else round(value, n)
        )
    return doc


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _machine() -> Dict[str, Any]:
    """Commit and machine fingerprint, once per process.  No load average
    or timestamp: two runs of one commit on one box record equal headers."""
    root = Path(__file__).resolve().parents[3]

    def git(*args: str) -> Optional[str]:
        # Ceiling: never walk up out of the checkout looking for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        try:
            out = subprocess.run(
                ["git", "-C", str(root), *args], env=env, timeout=10,
                capture_output=True, text=True, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def run_kwargs(exp: Experiment, seed: Optional[int] = None) -> Dict[str, Any]:
    """The keywords a default run passes: every declared parameter at
    its default, plus ``seed`` when a seed sweep names one."""
    kwargs = {p.dest: p.default for p in exp.params}
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def judge(exp: Experiment, result: Any) -> Tuple[Any, List[str]]:
    """(the recorded ``result`` document, the gate violations)."""
    summary = exp.summarize(result) if exp.summarize else result
    problems = list(exp.gates(summary)) if exp.gates else []
    return _jsonable(summary), problems


def make_record(
    exp: Experiment,
    kwargs: Dict[str, Any],
    elapsed: float,
    result_json: Any,
    problems: List[str],
) -> Dict[str, Any]:
    """The one persisted record (suite and module runs)."""
    return {
        "schema": SCHEMA,
        "experiment": exp.name,
        "header": {
            **_machine(),
            "params": {p.dest: kwargs[p.dest] for p in exp.params},
            "seed": kwargs.get("seed"),
        },
        "wall_seconds": round(elapsed, 3),
        "gates": {"declared": exp.gates is not None, "problems": problems},
        "result": result_json,
    }


def save_record(record: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")


def record_key(name: str, seed: Optional[int] = None) -> str:
    """Output-file stem for one (experiment, swept seed) run."""
    return name if seed is None else f"{name}.seed{seed}"


def _timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """``fn``'s value and its wall seconds, from a fresh message-id
    space: output never depends on what ran before in the process."""
    reset_message_ids()
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def execute(
    exp: Experiment, kwargs: Dict[str, Any], show: bool = False
) -> Dict[str, Any]:
    """Run one experiment in this process and build its record."""
    result, elapsed = _timed(exp.run, **kwargs)
    result_json, problems = judge(exp, result)
    if show:
        table = getattr(result, "table", None)
        print(table() if callable(table) else result)
        if isinstance(result_json, dict):
            for key, value in result_json.items():
                if key not in ("description", "command") and not isinstance(
                    value, (list, dict)
                ):
                    print(f"  {key}: {value}")
    return make_record(exp, kwargs, elapsed, result_json, problems)


def enforce(records: Sequence[Dict[str, Any]], check: bool) -> None:
    """Report every gate verdict; under ``--check`` a violation is exit 1."""
    failed = False
    for record in records:
        gates = record["gates"]
        if gates["problems"]:
            failed = True
            print(f"{record['experiment']}: GATE VIOLATIONS:",
                  *gates["problems"], sep="\n  ")
        elif gates["declared"]:
            print(f"{record['experiment']}: gates OK")
    if failed and check:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def seeds_for(exp: Experiment, seeds: Optional[Sequence[int]]) -> List[Optional[int]]:
    """The seed sweep for one experiment (``[None]`` = default run)."""
    return list(seeds) if seeds and exp.seeded else [None]


def resolve_names(only: Optional[Sequence[str]]) -> List[str]:
    """Validate ``--only`` selections against the registry (keeps registry order)."""
    names = list(registry())
    if not only:
        return names
    unknown = [n for n in only if n not in names]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from: {', '.join(names)}"
        )
    return [n for n in names if n in set(only)]


#: One unit of suite work, picklable: ``(name, seed, point)`` — the
#: index of one point of a sharded sweep, or None for a whole run.
Task = Tuple[str, Optional[int], Optional[int]]


def _run_task(task: Task) -> Tuple[Task, float, Any]:
    """Run one task: ``(task, seconds, payload)``.  A whole run's payload
    is its judged ``(result document, gate violations)``; a point's is
    its partial result, judged once the sweep is merged."""
    name, seed, index = task
    exp = registry()[name]
    kwargs = run_kwargs(exp, seed)
    key = record_key(name, seed)
    if index is None:
        print(f"running {key} ...", flush=True)
        result, elapsed = _timed(exp.run, **kwargs)
        return task, elapsed, judge(exp, result)
    points = exp.shard.points(**kwargs)
    print(f"running {key} point {index + 1}/{len(points)} ...", flush=True)
    partial, elapsed = _timed(exp.shard.run_point, points[index], **kwargs)
    return task, elapsed, partial


def _settle(
    exp: Experiment,
    seed: Optional[int],
    outcomes: Dict[Task, Tuple[float, Any]],
    out_dir: str,
) -> Dict[str, Any]:
    """Merge (a sweep), judge, record and write one finished run.
    A sweep's ``wall_seconds`` is its points' summed cost plus the merge."""
    kwargs = run_kwargs(exp, seed)
    if exp.shard is None:
        elapsed, (result_json, problems) = outcomes[(exp.name, seed, None)]
    else:
        points = exp.shard.points(**kwargs)
        done = [outcomes[(exp.name, seed, i)] for i in range(len(points))]
        merged, elapsed = _timed(
            exp.shard.merge, points, [partial for _, partial in done], **kwargs
        )
        elapsed += sum(seconds for seconds, _ in done)
        result_json, problems = judge(exp, merged)
    record = make_record(exp, kwargs, elapsed, result_json, problems)
    key = record_key(exp.name, seed)
    save_record(record, Path(out_dir) / f"{key}.json")
    print(f"  done {key} in {record['wall_seconds']}s", flush=True)
    return record


def build_tasks(runs: Sequence[Tuple[str, Optional[int]]]) -> List[Task]:
    """The tasks of these (name, seed) runs: one per point of a sharded
    sweep, one per other run.  Points come first, so the long sweeps
    start before the short whole runs and a pool drains evenly."""
    experiments = registry()
    point_tasks: List[Task] = []
    whole_tasks: List[Task] = []
    for name, seed in runs:
        exp = experiments[name]
        if exp.shard is None:
            whole_tasks.append((name, seed, None))
        else:
            n = len(exp.shard.points(**run_kwargs(exp, seed)))
            point_tasks.extend((name, seed, i) for i in range(n))
    return point_tasks + whole_tasks


def run_suite(
    names: Optional[Sequence[str]] = None,
    out_dir: str = "results",
    jobs: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> List[Dict[str, Any]]:
    """Run experiments as tasks and write each record to ``out_dir``.

    Tasks run in this process at ``jobs=1`` and on ``jobs`` worker
    processes above that.  Returns the records ordered by (experiment,
    seed)."""
    experiments = registry()
    runs = [
        (name, seed)
        for name in resolve_names(names)
        for seed in seeds_for(experiments[name], seeds)
    ]
    tasks = build_tasks(runs)
    pending = Counter(task[:2] for task in tasks)
    outcomes: Dict[Task, Tuple[float, Any]] = {}
    records: Dict[Tuple[str, Optional[int]], Dict[str, Any]] = {}
    # spawn: a worker must not inherit the threads (aio loops, the log
    # thread) of whatever ran in this process before.
    pool = multiprocessing.get_context("spawn").Pool(jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        each = pool.imap_unordered if pool else map
        for task, elapsed, payload in each(_run_task, tasks):
            outcomes[task] = (elapsed, payload)
            run = task[:2]
            pending[run] -= 1
            if not pending[run]:
                records[run] = _settle(experiments[run[0]], run[1], outcomes, out_dir)
    return [records[run] for run in runs]


def cli(
    exp: Optional[Experiment] = None, argv: Optional[Sequence[str]] = None
) -> List[Dict[str, Any]]:
    """The one command line.

    Given an experiment, it is that module's front door: the flags it
    declares, ``--out FILE`` if it has a default output and ``--check``
    if it declares gates; the result is printed.  Given none, it is the
    suite runner over the registry.
    """
    parser = argparse.ArgumentParser(
        description=(
            f"Run {exp.name}" if exp
            else "Run the paper's experiments and save results/<name>.json"
        ),
    )
    if exp is None:
        parser.add_argument(
            "--only", action="append", metavar="NAME",
            help="run only this experiment (repeatable)",
        )
        parser.add_argument(
            "--out", default="results", metavar="DIR",
            help="output directory (default: results)",
        )
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes; 1 = in this process (default)",
        )
        parser.add_argument(
            "--seeds", type=int, nargs="+", metavar="SEED",
            help="seed sweep: run each seeded experiment once per seed",
        )
    elif exp.out:
        parser.add_argument(
            "--out", default=exp.out, metavar="FILE",
            help=f"output JSON path (default: {exp.out})",
        )
    for param in exp.params if exp else ():
        if param.default is False:
            parser.add_argument(param.flag, action="store_true", help=param.help)
        else:
            parser.add_argument(
                param.flag, type=int, default=param.default, metavar="N",
                help=f"{param.help} (default: {param.default})".lstrip(),
            )
    if exp is None or exp.gates:
        parser.add_argument(
            "--check", action="store_true",
            help="exit non-zero when a declared gate fails",
        )
    args = parser.parse_args(argv)
    if exp is not None:
        kwargs = {p.dest: getattr(args, p.dest) for p in exp.params}
        records = [execute(exp, kwargs, show=True)]
        if exp.out:
            save_record(records[0], Path(args.out))
            print(f"wrote {args.out}")
    elif args.jobs < 1:
        parser.error("--jobs must be >= 1")
    else:
        records = run_suite(args.only, args.out, jobs=args.jobs, seeds=args.seeds)
    enforce(records, check=getattr(args, "check", False))
    return records


if __name__ == "__main__":
    # Hand over to the canonical module: experiment modules import
    # ``repro.experiments.runner``, and their declarations should be
    # instances of its classes, not of this ``__main__`` copy's.
    from repro.experiments.runner import cli as _cli

    _cli()
