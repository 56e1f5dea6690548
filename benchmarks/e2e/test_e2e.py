"""Self-test of the benchmark: ``python -m pytest benchmarks/e2e -q``.

Short real-socket runs of every workload; no performance assertions.
"""

from __future__ import annotations

import copy
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.airline.flights import (
    extract_from_database,
    merge_into_database,
)
from repro.apps.airline.travel_agent import TravelAgent, attach_cache_manager
from repro.core.system import FleccSystem, run_all_scripts

from . import cli, gates, report, spec
from .driver import Load
from .inputs import make_inputs
from .runner import run_workload
from .stack import Stack, timed_setup
from .tracing import Tracer, TracingTransport, read_jsonl

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _inputs(shape_name: str, seed: int = 5, horizon: float = 4.0):
    return make_inputs(shape_name, spec.SHAPES[shape_name], seed, horizon)


# -- the contract -----------------------------------------------------------

def test_benchmark_json_is_the_spec_and_within_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for group in ("workloads", "end_to_end", "per_layer")
             for e in doc[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + spec.WARMUP_S) < 3420


def test_every_prediction_names_a_real_metric_and_workload():
    metrics = {m.name for m in spec.END_TO_END}
    shapes = {n.split(".")[0] for n in spec.workload_names()}
    for name, _unit, better, moves in spec.PER_LAYER:
        assert better in ("lower", "higher")
        for metric, workload in moves:
            assert metric in metrics, (name, metric)
            assert workload in spec.workload_names() or (
                workload.endswith(".*") and workload[:-2] in shapes
            ), (name, workload)


# -- inputs -----------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    a, b, c = (_inputs("open_zipf", s) for s in (7, 7, 8))
    assert (a.picks, a.buys, a.arrival_s, a.arrival_view) == \
        (b.picks, b.buys, b.arrival_s, b.arrival_view)
    assert a.picks != c.picks and a.arrival_s != c.arrival_s
    assert {f.number: f.to_cell() for f in a.database().flights.values()} == \
        {f.number: f.to_cell() for f in b.database().flights.values()}
    # Same offered load for every seed: `open_rate` arrivals each second.
    assert sum(1 for t in a.arrival_s if t < 1.0) == spec.OPEN_ZIPF_RATE
    # ... and the same sharing pattern: the two hottest views are views
    # 0 and 2, and view 1, which shares with view 0, is PARTNER_GAP ranks
    # colder, whatever the seed.
    for inputs in (a, c):
        by_heat = [v for v, _ in Counter(inputs.arrival_view).most_common()]
        assert by_heat[:2] == [0, 2] and 1 not in by_heat[:8]


def test_nothing_in_src_knows_a_workload_name():
    needle = re.compile("|".join(spec.SHAPES))
    for path in (ROOT / "src").rglob("*.py"):
        assert not needle.search(path.read_text()), path


# -- every workload, both configurations --------------------------------------

@pytest.mark.parametrize("name", spec.workload_names())
def test_workload_runs_clean_untraced(name, tmp_path):
    run = run_workload(name, seed=3, seconds=1.0, trace=False,
                       out_dir=tmp_path)
    assert run["violations"] == [] and run["correct"]
    assert run["failed"] == 0 and run["attempted"] > 0
    assert list(run["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(v["value"] > 0 for v in run["metrics"].values())
    assert report.validate(_doc(run, name)) == []
    assert not list(tmp_path.glob("wal-*")), "WAL scratch must be removed"


@pytest.mark.parametrize("name", ["hot_pairs.composed", "weak_readmix.stock"])
def test_traced_run_budget_sums_and_spans_carry_op_ids(name, tmp_path):
    run = run_workload(name, seed=3, seconds=2.0, trace=True, out_dir=tmp_path)
    assert run["violations"] == []
    m = {k: v["value"] for k, v in run["metrics"].items()}
    assert list(m) == [n for n, *_ in spec.PER_LAYER]
    assert all(NAME.match(k) for k in m)
    rows = sum(m[f"{layer}.share"] for layer in spec.LAYERS)
    assert rows + m["budget.unaccounted_share"] == pytest.approx(1.0)
    assert 0.2 < m["budget.accounted_share"] <= 1.0
    assert 0 < m["budget.trace_overhead_ratio"] < 1.5
    assert m["driver.fail_ratio"] == 0
    spans = read_jsonl(tmp_path / f"{name}.trace.jsonl")
    by_id = {s["id"]: s for s in spans}
    assert {s["layer"] for s in spans} <= set(spec.LAYERS)
    handled = [s for s in spans if (s["layer"], s["name"]) ==
               ("directory", "handle")]
    assert handled and sum(s["op_id"] >= 0 for s in handled) > 0.9 * len(handled)
    for s in spans[:2000]:   # a child lies inside its parent, same thread
        parent = by_id.get(s["parent"])
        if parent:
            assert parent["start_ns"] <= s["start_ns"]
            assert s["end_ns"] <= parent["end_ns"]
            assert parent["thread"] == s["thread"]
    if name.endswith(".composed"):
        assert m["durability.recover_ms"] > 0 and m["router.send_us"] > 0
        assert m["reliability.acks_per_op"] > 0
    else:
        assert m["durability.append_us"] == m["router.send_us"] == 0


def test_msgs_per_op_matches_the_sim_transport_count(tmp_path):
    """Fig 4's metric: logical messages per op on disjoint slices."""
    inputs = _inputs("disjoint_push")
    system = FleccSystem("sim", inputs.database(), extract_from_database,
                         merge_into_database)
    agent = TravelAgent("ta0000", inputs.slices[0])
    cm = attach_cache_manager(system, agent, mode="strong")
    counted = {}

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        cm.end_use_image()
        before = system.transport.stats.total
        for _ in range(20):
            yield cm.start_use_image()
            agent.confirm_tickets(1, inputs.slices[0][0])
            cm.end_use_image()
            yield cm.push_image()
        counted["per_op"] = (system.transport.stats.total - before) / 20

    run_all_scripts(system.transport, [script()])
    system.close()
    for name in ("disjoint_push.stock", "disjoint_push.composed"):
        run = run_workload(name, seed=3, seconds=2.0, trace=True,
                           out_dir=tmp_path)
        measured = run["metrics"]["transport.msgs_per_op"]["value"]
        assert measured == pytest.approx(counted["per_op"], rel=0.02), name


# -- wrappers only when traced ------------------------------------------------

@pytest.mark.parametrize("config", spec.CONFIGS)
def test_untraced_stack_has_no_wrapper_anywhere(config, tmp_path):
    bare = Stack(config, _inputs("hot_pairs"), tmp_path / "a")
    traced = Stack(config, _inputs("hot_pairs"), tmp_path / "b",
                   tracer=Tracer(capacity=16))
    try:
        def wrapped(stack):
            found = [type(t).__name__ for t in stack.transport_chain()
                     if isinstance(t, TracingTransport)]
            for cm in stack.cms:
                found += [k for k in vars(cm) if k in (
                    "push_image", "pull_image", "start_use_image",
                    "end_use_image")]
            found += [k for k in vars(stack.transport_chain()[0])
                      if k == "send"]
            for dm in stack.shards:
                found += ["profiler"] if dm.profiler is not None else []
                if dm.durability is not None:
                    found += [k for k in vars(dm.durability)
                              if k in ("append", "sync")]
            return found

        assert wrapped(bare) == [] and not bare.traced_transports
        assert bare.cms[0].extract_from_view.__module__.startswith("repro.")
        assert wrapped(traced)
    finally:
        bare.close()
        traced.close()


# -- the gates fire -----------------------------------------------------------

def _short_run(name, tmp_path):
    shape, shape_name, config = spec.split_workload(name)
    inputs = make_inputs(shape_name, shape, 11, 2.0)
    stack, _ = timed_setup(config, inputs, tmp_path / "wal", "aio")
    load = Load(stack, inputs)
    load.run(0.2, 0.5, 1)
    return stack, load


def test_weak_views_take_turns_two_ops_in_flight(tmp_path):
    stack, load = _short_run("weak_readmix.stock", tmp_path)
    stack.close()
    assert spec.SHAPES["weak_readmix"].in_flight == 2
    due, done, _ok = load.ops().T
    # A view's next op is due the instant the previous one is done, so an
    # end sorts before a start at the same time.
    in_flight = peak = 0
    for _t, delta in sorted([(t, 1) for t in due] + [(t, -1) for t in done]):
        in_flight += delta
        peak = max(peak, in_flight)
    assert peak == 2
    turns = [v.k for v in load.views]
    # Near-equal, not equal: a push in flight lets the other op's turn
    # go round the remaining views more than once.
    assert min(turns) >= 0.8 * max(turns) > 0


def test_strong_gate_fires_on_a_corrupted_primary_copy(tmp_path):
    stack, load = _short_run("hot_pairs.composed", tmp_path)
    try:
        assert gates.check_strong(stack, load) == []
        stack.db.flights["FL0000"].seats_available += 1   # resurrect a seat
        problems = gates.check_strong(stack, load)
        assert len(problems) == 1 and "FL0000" in problems[0]
    finally:
        stack.close()


def test_weak_gate_fires_on_divergence_and_on_seats_coming_back(tmp_path):
    stack, load = _short_run("weak_readmix.stock", tmp_path)
    try:
        assert gates.check_weak(stack, load) == []
        # An unversioned edit of the primary copy: no pull will ship it.
        stack.db.flights["FL0003"].price += 1.0
        load.seat_increases = 2
        problems = gates.check_weak(stack, load)
        assert any("gain seats" in p for p in problems)
        assert sum("diverged on FL0003" in p for p in problems) == \
            spec.SHAPES["weak_readmix"].group
    finally:
        stack.close()


def test_recovery_gate_fires_on_a_write_the_log_never_saw(tmp_path):
    stack, _load = _short_run("disjoint_push.composed", tmp_path)
    try:
        problems, numbers = gates.check_recovery(stack)
        assert problems == [] and numbers["recover_ms"] > 0
        stack.db.flights["FL0000"].seats_available -= 5   # bypasses the WAL
        problems, _ = gates.check_recovery(stack)
        assert problems and "differs on 1 of" in problems[0]
    finally:
        stack.close()


# -- --compare ----------------------------------------------------------------

def _doc(run, name="disjoint_push.stock"):
    return {"schema": report.SCHEMA,
            "header": report.header(3, 1.0, "aio"),
            "workloads": {name: {**run, "end_to_end": run["metrics"],
                                 "per_layer": None}}}


def test_compare_self_is_clean_and_an_injected_sleep_is_worse(tmp_path, capsys):
    name = "disjoint_push.stock"
    base = _doc(run_workload(name, 3, 1.5, False, out_dir=tmp_path))
    p50 = base["workloads"][name]["end_to_end"]["op_p50_ms"]["value"]
    slow = _doc(run_workload(name, 3, 1.5, False, out_dir=tmp_path,
                             op_sleep_ms=0.3 * p50))
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "slow.json").write_text(json.dumps(slow))
    rows, worse = report.compare(base, base)
    assert not worse and {r[-1] for r in rows} <= {"ok", "unresolved"}
    assert cli.main(["--compare", str(tmp_path / "base.json"),
                     "--result", str(tmp_path / "base.json")]) == 0
    assert cli.main(["--compare", str(tmp_path / "base.json"),
                     "--result", str(tmp_path / "slow.json")]) == 1
    rows, worse = report.compare(base, slow)
    verdicts = {r[1]: r[-1] for r in rows}
    assert worse and verdicts["op_p50_ms"] == "worse"
    assert "op_p50_ms" in capsys.readouterr().out


def test_compare_calls_a_noisy_reading_unresolved():
    entry = {"value": 10.0, "unit": "ms", "slices": [10.0] * 5}
    metrics = {m.name: dict(entry) for m in spec.END_TO_END}
    parent = {"workloads": {"w": {"end_to_end": metrics}}}
    current = copy.deepcopy(parent)
    noisy = current["workloads"]["w"]["end_to_end"]["op_p50_ms"]
    noisy.update(value=12.0, slices=[8.0, 9.0, 12.0, 14.0, 15.0])
    clean = current["workloads"]["w"]["end_to_end"]["op_p90_ms"]
    clean.update(value=14.0, slices=[13.9, 14.0, 14.0, 14.1, 14.0])
    better = current["workloads"]["w"]["end_to_end"]["cpu_ms_per_op"]
    better.update(value=5.0, slices=[3.0, 4.0, 5.0, 6.0, 7.0])
    verdicts = {r[1]: r[-1] for r in report.compare(parent, current)[0]}
    assert verdicts["op_p50_ms"] == "unresolved"   # +20% but slices overlap
    assert verdicts["op_p90_ms"] == "worse"        # +40%, tight slices
    assert verdicts["cpu_ms_per_op"] == "ok"       # wide, but all better
    assert verdicts["setup_s"] == "ok"
