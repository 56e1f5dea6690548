"""The dm_sched experiment: scheduler legs, parity gates, acceptance.

One small-burst run (module-scoped) backs the structural assertions;
the gate logic is additionally exercised against a doctored payload so
every failure path is covered without re-running the sweep.
"""

import copy

import pytest

from repro.experiments import dm_sched as dms
from repro.experiments.runner import registry, run_kwargs

GROUPS = 8


@pytest.fixture(scope="module")
def result():
    return dms.run_dm_sched(groups=GROUPS, seed=99)


@pytest.fixture(scope="module")
def payload(result):
    return dms.bench_payload(result)


def test_runs_all_three_legs(result):
    assert [(p.leg, p.concurrent_rounds) for p in result.points] == list(
        dms.LEGS
    )
    assert all(p.n_groups == GROUPS for p in result.points)


def test_serial_leg_never_overlaps(result):
    serial = result.points[0]
    assert serial.leg == "serial"
    assert serial.concurrent_rounds_hwm == 1
    assert serial.rounds_overlapped == 0


def test_concurrent_legs_overlap_and_win(payload):
    assert payload["speedup_unbounded"] >= 2.0
    assert payload["speedup_bounded4"] >= 2.0
    assert payload["unbounded_hwm"] >= GROUPS  # all waits overlapped
    bounded = next(
        p for p in payload["points"] if p["leg"] == "bounded4"
    )
    assert bounded["concurrent_rounds_hwm"] == 4  # the bound held


def test_legs_agree_on_messages_and_state(payload):
    assert payload["leg_counts_identical"]
    assert payload["leg_state_identical"]
    assert payload["invariants_ok"]


def test_queue_wait_measured_on_serial_leg(result):
    serial = result.points[0]
    assert serial.queue_wait_count > 0
    assert serial.queue_wait_mean_us > 0


def test_randomized_parity_converges(payload):
    par = payload["randomized_parity"]
    assert par["seed"] == 99
    assert par["state_identical"]
    assert par["counts_identical"]
    assert par["conflicts_identical"]
    assert par["invariants_ok"]


def test_randomized_parity_other_seed():
    par = dms.randomized_parity(seed=7, n_groups=4, batches=6)
    assert par["state_identical"] and par["counts_identical"]
    assert par["conflicts_identical"] and par["invariants_ok"]


def test_acceptance_passes_on_real_run(payload):
    assert dms.gates(payload) == []


def test_acceptance_catches_violations(payload):
    bad = copy.deepcopy(payload)
    bad["speedup_unbounded"] = 1.5
    bad["serial_hwm"] = 2
    bad["unbounded_hwm"] = 1
    bad["leg_counts_identical"] = False
    bad["leg_state_identical"] = False
    bad["invariants_ok"] = False
    bad["randomized_parity"]["state_identical"] = False
    bad["randomized_parity"]["counts_identical"] = False
    bad["randomized_parity"]["conflicts_identical"] = False
    bad["randomized_parity"]["invariants_ok"] = False
    problems = dms.gates(bad)
    assert len(problems) == 10
    bad2 = copy.deepcopy(payload)
    bad2["n_groups"] = 4
    assert any("conflict groups" in p for p in dms.gates(bad2))


def test_sweep_point_roundtrip(result):
    points = dms.sweep_points(GROUPS)
    assert points == [(leg, limit, GROUPS) for leg, limit in dms.LEGS]
    partial = dms.run_sweep_point(points[-1], seed=99)
    assert partial.leg == "unbounded"
    assert partial.by_type == result.points[-1].by_type
    assert partial.state_digest == result.points[-1].state_digest


def test_registered_with_runner_and_parallel_engine():
    declared = registry()["dm_sched"]
    assert declared.seeded
    points = declared.shard.points(**run_kwargs(declared))
    assert [p[:2] for p in points] == list(dms.LEGS)
