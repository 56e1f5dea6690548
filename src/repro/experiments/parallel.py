"""Parallel experiment engine: fan runs across worker processes.

The serial runner executes every experiment back to back in one
process.  This engine decomposes the suite into independent *tasks* —
whole experiments, one per requested seed, and (for experiments that
declare a shard spec) individual sweep points — and executes
them on a :mod:`multiprocessing` pool.  Results are merged and written
by the parent, ordered by (experiment name, seed), so a parallel run
produces byte-for-byte the same ``results/*.json`` as a serial run
except for the ``wall_seconds`` timing field.

Determinism contract: every task starts from a fresh message-id space
(:func:`~repro.net.message.reset_message_ids`), experiments derive all
randomness from their explicit seeds, and each sweep point builds its
own transport — so task results do not depend on which process ran
them or in what order.

Use via the runner CLI::

    python -m repro.experiments.runner --jobs 4
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import runner as runner_mod
from repro.net.message import reset_message_ids


# A task is a picklable tuple:
#   ("whole", name, seed)         - run the experiment end to end
#   ("shard", name, seed, index)  - run one sweep point of a sharded one
Task = Tuple[Any, ...]


def _run_task(task: Task) -> Tuple[Task, float, Any]:
    """Worker entry: execute one task, return (task, elapsed, payload).

    A whole experiment's payload is its judged ``(result document, gate
    violations)``; a shard's is the point's partial result, judged by
    the parent once merged.
    """
    exp = runner_mod.registry()[task[1]]
    kwargs = runner_mod.run_kwargs(exp, task[2])
    reset_message_ids()
    t0 = time.perf_counter()
    if task[0] == "whole":
        payload = runner_mod.judge(exp, exp.run(**kwargs))
    else:
        payload = exp.shard.run_point(
            exp.shard.points()[task[3]], kwargs.get("seed")
        )
    return task, time.perf_counter() - t0, payload


def build_tasks(
    names: Sequence[str], seeds: Optional[Sequence[int]]
) -> List[Task]:
    """Decompose the requested runs into worker tasks (shards first,
    so the long sweep points start before the short whole experiments
    and the pool drains evenly)."""
    experiments = runner_mod.registry()
    shard_tasks: List[Task] = []
    whole_tasks: List[Task] = []
    for name in names:
        exp = experiments[name]
        for seed in runner_mod.seeds_for(exp, seeds):
            if exp.shard is not None:
                shard_tasks.extend(
                    ("shard", name, seed, i)
                    for i in range(len(exp.shard.points()))
                )
            else:
                whole_tasks.append(("whole", name, seed))
    return shard_tasks + whole_tasks


def _merge_records(
    tasks: List[Task], outcomes: Dict[Task, Tuple[float, Any]]
) -> List[Tuple[str, Dict[str, Any]]]:
    """Fold task payloads into (file stem, record), ordered by (name, seed)."""
    experiments = runner_mod.registry()
    runs: Dict[Tuple[str, Optional[int]], List[Task]] = {}
    for task in tasks:
        runs.setdefault((task[1], task[2]), []).append(task)
    records = []
    for (name, seed) in sorted(runs, key=lambda k: (k[0], k[1] is not None, k[1])):
        exp = experiments[name]
        kwargs = runner_mod.run_kwargs(exp, seed)
        group = runs[(name, seed)]
        if group[0][0] == "whole":
            elapsed, (result_json, problems) = outcomes[group[0]]
        else:
            ordered = sorted(group, key=lambda t: t[3])
            # wall_seconds = summed point cost (the serial-equivalent time);
            # the field is excluded from result comparisons either way.
            elapsed = sum(outcomes[t][0] for t in ordered)
            result_json, problems = runner_mod.judge(exp, exp.shard.merge(
                exp.shard.points(), [outcomes[t][1] for t in ordered],
                kwargs.get("seed"),
            ))
        records.append((
            runner_mod.record_key(name, seed),
            runner_mod.make_record(exp, kwargs, elapsed, result_json, problems),
        ))
    return records


def run_parallel(
    names: Optional[Sequence[str]] = None,
    out_dir: str = "results",
    jobs: int = 2,
    seeds: Optional[Sequence[int]] = None,
) -> List[Dict[str, Any]]:
    """Run the requested experiments on ``jobs`` worker processes.

    Falls back to the serial path for ``jobs <= 1``.  Returns the
    result records sorted by (experiment name, seed), having written
    each to ``out_dir`` exactly as the serial runner would.
    """
    resolved = runner_mod.resolve_names(names)
    if jobs <= 1:
        return runner_mod.run_serial(resolved, out_dir, seeds=seeds)
    tasks = build_tasks(resolved, seeds)
    outcomes: Dict[Task, Tuple[float, Any]] = {}
    with multiprocessing.Pool(processes=jobs) as pool:
        for task, elapsed, payload in pool.imap_unordered(_run_task, tasks):
            outcomes[task] = (elapsed, payload)
            if task[0] == "whole":
                print(
                    f"done {runner_mod.record_key(task[1], task[2])} "
                    f"({elapsed:.3f}s)",
                    flush=True,
                )
    records = _merge_records(tasks, outcomes)
    for key, record in records:
        runner_mod.save_record(record, Path(out_dir) / f"{key}.json")
    return [record for _, record in records]
