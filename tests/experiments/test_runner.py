"""Tests for the experiment runner's persistence layer and CLI."""

import json
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core.messages import TraceLog
from repro.experiments.runner import (
    Experiment,
    _jsonable,
    cli,
    execute,
    registry,
    resolve_names,
    save_record,
)


@dataclass
class FakeResult:
    count: int
    series: List[float] = field(default_factory=list)
    labels: Dict[str, str] = field(default_factory=dict)


def test_jsonable_handles_dataclasses_and_containers():
    out = _jsonable(FakeResult(3, [1.0, 2.5], {"a": "b"}))
    assert out == {"count": 3, "series": [1.0, 2.5], "labels": {"a": "b"}}


def test_jsonable_handles_trace_logs():
    log = TraceLog()
    log.record(1.0, "dir", "REGISTER")
    assert _jsonable(log) == ["dir:REGISTER"]


def test_jsonable_emits_sets_as_sorted_lists():
    """Regression: sets used to be stringified ("{'b', 'a'}")."""
    assert _jsonable({"x": {"b", "a", "c"}}) == {"x": ["a", "b", "c"]}
    assert _jsonable(frozenset({3, 1, 2})) == [1, 2, 3]


def test_jsonable_sorts_mixed_type_sets_deterministically():
    out = _jsonable({2, "a", 1})
    assert sorted(out, key=repr) == out
    assert set(out) == {2, "a", 1}


def test_jsonable_handles_nested_sets_in_dataclasses():
    @dataclass
    class WithSet:
        members: frozenset

    assert _jsonable(WithSet(frozenset({"y", "x"}))) == {"members": ["x", "y"]}


def test_jsonable_falls_back_to_str():
    class Weird:
        def __repr__(self):
            return "<weird>"

    assert _jsonable({"x": Weird()}) == {"x": "<weird>"}


def test_run_and_save_writes_json(tmp_path):
    record = execute(Experiment("fake", lambda: FakeResult(7)), {})
    save_record(record, tmp_path / "fake.json")
    assert record["experiment"] == "fake"
    assert record["wall_seconds"] >= 0
    on_disk = json.loads((tmp_path / "fake.json").read_text())
    assert on_disk["result"]["count"] == 7


def test_cli_runs_selected_experiment(tmp_path, capsys):
    records = cli(argv=["--only", "fig2_trace", "--out", str(tmp_path)])
    assert [r["experiment"] for r in records] == ["fig2_trace"]
    assert (tmp_path / "fig2_trace.json").exists()
    assert "running fig2_trace" in capsys.readouterr().out


def test_cli_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        cli(argv=["--only", "no_such_experiment", "--out", str(tmp_path)])


def test_cli_rejects_bad_jobs(tmp_path):
    with pytest.raises(SystemExit):
        cli(argv=["--jobs", "0", "--out", str(tmp_path)])


def test_cli_seed_sweep_writes_per_seed_files(tmp_path):
    records = cli(
        argv=["--only", "fig2_trace", "--seeds", "0", "1", "--out", str(tmp_path)]
    )
    # fig2 is not seeded: the sweep collapses to one default run.
    assert len(records) == 1
    records = cli(
        argv=["--only", "abl1_static_vs_dynamic", "--seeds", "0", "1",
              "--out", str(tmp_path)]
    )
    assert [r["header"]["seed"] for r in records] == [0, 1]
    assert (tmp_path / "abl1_static_vs_dynamic.seed0.json").exists()
    assert (tmp_path / "abl1_static_vs_dynamic.seed1.json").exists()


def test_resolve_names_keeps_registry_order():
    assert resolve_names(["fig2_trace", "fig1_deployment"]) == [
        "fig1_deployment", "fig2_trace",
    ]
    assert resolve_names(None) == list(registry())


def test_registry_names_are_stable():
    expected = {
        "fig1_deployment", "fig2_trace", "fig4_efficiency",
        "fig5_adaptability", "fig6_flexibility",
        "abl1_static_vs_dynamic", "abl2_trigger_period",
        "abl3_granularity", "abl4_centralization",
        "abl5_rw_semantics", "abl6_loss_tolerance",
        "ext1_mixed_workload", "chaos", "delta_sweep", "wire_sweep",
        "shard_sweep", "scale_sweep", "durability_sweep", "dm_profile",
        "dm_sched",
    }
    assert set(registry()) == expected
