"""The suite's one task path at any --jobs: task decomposition, and the
same records in this process as on a worker pool."""

import json
from pathlib import Path

from repro.baselines.common import ProtocolName
from repro.experiments.fig4_efficiency import (
    Fig4Result,
    merge_fig4,
    sweep_points,
)
from repro.experiments.runner import build_tasks, registry, run_suite


def _load_without_timing(out_dir):
    records = {}
    for path in sorted(Path(out_dir).glob("*.json")):
        d = json.loads(path.read_text())
        d.pop("wall_seconds")
        records[path.name] = d
    return records


def test_serial_and_parallel_results_identical(tmp_path):
    # shard_sweep declares a shard spec (and records simulated time
    # only): its record is reassembled from per-point task results.
    names = ["fig2_trace", "abl1_static_vs_dynamic", "shard_sweep"]
    run_suite(names, tmp_path / "serial")
    run_suite(names, tmp_path / "parallel", jobs=2)
    serial = _load_without_timing(tmp_path / "serial")
    parallel = _load_without_timing(tmp_path / "parallel")
    assert serial.keys() == parallel.keys()
    assert serial == parallel


def test_parallel_seed_sweep_matches_serial(tmp_path):
    names = ["abl1_static_vs_dynamic"]
    run_suite(names, tmp_path / "serial", seeds=[0, 1])
    run_suite(names, tmp_path / "parallel", jobs=2, seeds=[0, 1])
    serial = _load_without_timing(tmp_path / "serial")
    parallel = _load_without_timing(tmp_path / "parallel")
    assert set(serial) == {
        "abl1_static_vs_dynamic.seed0.json",
        "abl1_static_vs_dynamic.seed1.json",
    }
    assert serial == parallel


def test_jobs_one_runs_the_same_tasks_in_process(tmp_path, capsys):
    records = run_suite(["dm_sched", "fig2_trace"], tmp_path, jobs=1)
    # Registry order, whichever task finished first.
    assert [r["experiment"] for r in records] == ["fig2_trace", "dm_sched"]
    assert (tmp_path / "fig2_trace.json").exists()
    out = capsys.readouterr().out
    # The sweep ran point by point, and its record was merged once.
    assert "running dm_sched point 3/3" in out
    assert out.count("done dm_sched") == 1


def test_build_tasks_shards_fig4_and_orders_shards_first():
    tasks = build_tasks([("fig2_trace", None), ("fig4_efficiency", None)])
    shard_tasks = [t for t in tasks if t[2] is not None]
    whole_tasks = [t for t in tasks if t[2] is None]
    assert len(shard_tasks) == len(sweep_points())  # 3 protocols x 10 points
    assert whole_tasks == [("fig2_trace", None, None)]
    # Long sweep shards are queued before the short whole experiments.
    assert tasks[: len(shard_tasks)] == shard_tasks


def test_shard_specs_cover_fig4():
    assert registry()["fig4_efficiency"].shard is not None


def test_merge_fig4_reassembles_serial_result_shape():
    points = sweep_points(n_agents=30, step=10)
    partials = list(range(len(points)))
    result = merge_fig4(points, partials)
    assert isinstance(result, Fig4Result)
    assert result.n_agents == 30
    assert result.conflicting_sweep == [10, 20, 30]
    assert list(result.messages) == [p.value for p in ProtocolName]
    # Partial i belongs to point i: protocol-major, sweep-minor.
    assert result.messages[ProtocolName.FLECC.value] == [0, 1, 2]
    assert result.messages[ProtocolName.MULTICAST.value] == [6, 7, 8]
