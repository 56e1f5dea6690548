"""The experiment engine's contract, checked once for every experiment:
declared flags reach ``run``, declared gates decide the exit status,
and every front door writes the one record."""

import dataclasses
import inspect
import json

import pytest

from repro.baselines.common import ProtocolName
from repro.experiments import delta_sweep, fig4_efficiency
from repro.experiments.runner import (
    SCHEMA,
    Experiment,
    Param,
    cli,
    registry,
)

HEADER_KEYS = {
    "commit", "dirty", "python", "platform", "cpu_count", "params", "seed",
}


def _recording(exp, calls):
    """``exp`` with its workload swapped for one that records its keywords."""
    return dataclasses.replace(
        exp, run=lambda **kw: calls.append(kw) or {"ok": True},
        summarize=None, gates=None, out=None,
    )


def _accepted(exp):
    """The keywords ``exp.run`` names — for a sweep, those any of its
    three functions names (``**_`` swallows the rest)."""
    spec = exp.shard
    fns = (spec.points, spec.run_point, spec.merge) if spec else (exp.run,)
    return {name for fn in fns for name in inspect.signature(fn).parameters}


# -- (a) parameters -----------------------------------------------------------

def test_stub_parameters_parse_and_reach_run():
    calls = []
    stub = Experiment(
        "stub", lambda **kw: calls.append(kw),
        params=(Param("--rounds", 5), Param("--max-cms"), Param("--full", False)),
    )
    cli(stub, argv=[])
    cli(stub, argv=["--rounds", "7", "--max-cms", "120", "--full"])
    assert calls == [
        {"rounds": 5, "max_cms": None, "full": False},
        {"rounds": 7, "max_cms": 120, "full": True},
    ]
    with pytest.raises(SystemExit):  # --out and --check are not declared
        cli(stub, argv=["--check"])


@pytest.mark.parametrize("name", list(registry()))
def test_every_declared_parameter_parses_and_reaches_run(name):
    exp = registry()[name]
    accepted = _accepted(exp)
    assert {p.dest for p in exp.params} <= set(accepted)
    assert not exp.seeded or "seed" in accepted
    calls = []
    argv = []
    for p in exp.params:
        argv += [p.flag] if p.default is False else [p.flag, "3"]
    cli(_recording(exp, calls), argv=argv)
    assert calls == [
        {p.dest: True if p.default is False else 3 for p in exp.params}
    ]


# -- (b) gates ----------------------------------------------------------------

def test_failing_gate_is_exit_1_with_check_and_recorded_without(tmp_path, capsys):
    out = tmp_path / "bench.json"
    stub = Experiment(
        "stub", lambda: {"speedup": 1.2},
        gates=lambda doc: [f"speedup {doc['speedup']}x (need >= 2x)"],
        out=str(out),
    )
    [record] = cli(stub, argv=[])  # reported, not fatal, without --check
    assert record["gates"] == {
        "declared": True, "problems": ["speedup 1.2x (need >= 2x)"],
    }
    assert json.loads(out.read_text()) == record
    assert "need >= 2x" in capsys.readouterr().out
    out.unlink()
    with pytest.raises(SystemExit) as exit_info:
        cli(stub, argv=["--check"])
    assert exit_info.value.code == 1
    assert json.loads(out.read_text())["gates"]["problems"]  # still written
    passing = dataclasses.replace(stub, gates=lambda doc: [])
    [record] = cli(passing, argv=["--check"])
    assert record["gates"] == {"declared": True, "problems": []}


def test_delta_sweep_check_fails_on_a_doctored_result(tmp_path):
    result = delta_sweep.run_delta_sweep(sweep=((256, 4), (128, 128)), rounds=4)
    argv = ["--check", "--out", str(tmp_path / "delta.json")]
    healthy = dataclasses.replace(
        delta_sweep.EXPERIMENT, run=lambda rounds: result
    )
    cli(healthy, argv=argv)
    result.points[0].messages_identical = False
    with pytest.raises(SystemExit) as exit_info:
        cli(healthy, argv=argv)
    assert exit_info.value.code == 1


def test_runner_check_fails_when_fig4_loses_the_papers_shape(
    tmp_path, monkeypatch
):
    flat = fig4_efficiency.Fig4Result(
        n_agents=20, conflicting_sweep=[10, 20],
        messages={
            ProtocolName.FLECC.value: [500, 400],       # shrinks, above multicast
            ProtocolName.TIME_SHARING.value: [100, 100],
            ProtocolName.MULTICAST.value: [300, 300],
        },
    )
    monkeypatch.setattr(
        fig4_efficiency, "EXPERIMENT",
        dataclasses.replace(
            fig4_efficiency.EXPERIMENT, run=lambda: flat
        ),
    )
    argv = ["--only", "fig4_efficiency", "--out", str(tmp_path)]
    [record] = cli(argv=argv)
    assert "flecc above multicast at k=10" in record["gates"]["problems"]
    assert "flecc does not grow with conflict-set size" in record["gates"]["problems"]
    with pytest.raises(SystemExit) as exit_info:
        cli(argv=argv + ["--check"])
    assert exit_info.value.code == 1


# -- (c) the record -----------------------------------------------------------

def test_records_carry_schema_header_and_gates(tmp_path):
    cli(argv=["--only", "fig2_trace", "--only", "dm_sched", "--check",
              "--out", str(tmp_path)])
    for name, gated in (("fig2_trace", False), ("dm_sched", True)):
        record = json.loads((tmp_path / f"{name}.json").read_text())
        assert record["schema"] == SCHEMA
        assert record["experiment"] == name
        assert set(record["header"]) == HEADER_KEYS
        assert record["header"]["cpu_count"] >= 1
        assert record["gates"] == {"declared": gated, "problems": []}
        assert record["wall_seconds"] >= 0
    assert record["header"]["params"] == {"groups": 16, "seed": 1234}
    assert record["header"]["seed"] == 1234
    assert record["result"]["speedup_unbounded"] >= 2.0  # the summary, gated


def test_module_and_runner_write_the_same_record(tmp_path):
    [by_module] = cli(
        registry()["shard_sweep"], argv=["--out", str(tmp_path / "bench.json")]
    )
    [by_runner] = cli(argv=["--only", "shard_sweep", "--out", str(tmp_path)])
    on_disk = json.loads((tmp_path / "bench.json").read_text())
    assert on_disk == by_module
    for record in (by_module, by_runner):
        record.pop("wall_seconds")
    assert by_module == by_runner


# -- (e) the registry ---------------------------------------------------------

def test_registry_keeps_the_twenty_names_in_order():
    assert list(registry()) == [
        "fig1_deployment", "fig2_trace", "fig4_efficiency",
        "fig5_adaptability", "fig6_flexibility",
        "abl1_static_vs_dynamic", "abl2_trigger_period",
        "abl3_granularity", "abl4_centralization",
        "abl5_rw_semantics", "abl6_loss_tolerance",
        "ext1_mixed_workload", "chaos", "delta_sweep", "wire_sweep",
        "shard_sweep", "scale_sweep", "durability_sweep", "dm_profile",
        "dm_sched",
    ]
