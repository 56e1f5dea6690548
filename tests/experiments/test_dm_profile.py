"""The dm_profile experiment: one leg, golden parity, acceptance gates.

One short-ramp run (module-scoped) backs the structural assertions; the
gate logic is additionally exercised against a doctored payload so the
failure paths are covered without a 10k-view run in CI.
"""

import copy

import pytest

from repro.experiments import dm_profile as dmp
from repro.experiments.runner import cli, registry, run_kwargs

# The two smallest pinned points: every one has a golden to be held to.
RAMP = (100, 300)


@pytest.fixture(scope="module")
def result():
    return dmp.run_dm_profile(ramp=RAMP)


@pytest.fixture(scope="module")
def payload(result):
    return dmp.bench_payload(result)


def test_runs_one_leg_over_the_ramp(result):
    assert [p.n_views for p in result.points] == list(RAMP)


def test_every_point_carries_a_profile(result):
    for p in result.points:
        assert p.ops > 0
        assert p.pure_op_us > 0
        assert p.churn_cycle_us > 0
        assert set(p.pure_phases_us) == set(dmp.OP_PHASES)


def test_conflict_parity_on_every_point(result):
    assert all(p.conflict_parity for p in result.points)


def test_index_counters_tick_on_every_point(result):
    for p in result.points:
        assert p.index_candidates > 0


def test_points_agree_with_the_golden_on_messages_and_state(result):
    for p in result.points:
        digest, by_type = dmp.GOLDEN_POINTS[p.n_views]
        assert p.by_type == by_type
        assert p.state_digest == digest


def test_fig4_system_parity(result):
    assert result.fig4_state_identical
    assert result.fig4_counts_identical
    assert result.fig4_by_type  # the reference counts are recorded


def test_table_renders(result):
    text = str(result.table())
    assert "DM PROFILE" in text
    assert all(str(n) in text for n in RAMP)


def test_bench_payload_shape(payload):
    assert payload["ramp_top"] == max(RAMP)
    assert payload["ramp_bottom"] == min(RAMP)
    assert payload["conflict_parity"] is True
    assert payload["golden_points"] == len(RAMP)
    assert payload["golden_counts_identical"] is True
    assert payload["golden_state_identical"] is True
    assert len(payload["points"]) == len(RAMP)
    for key in ("pure_growth", "churn_growth"):
        assert isinstance(payload[key], float), key


def test_acceptance_passes_below_gate_top(payload):
    # Parity gates apply at any ramp; the perf gates stay disarmed
    # below GATE_TOP, so a healthy tiny run is clean.
    assert payload["ramp_top"] < dmp.GATE_TOP
    assert dmp.gates(payload) == []


def test_acceptance_flags_parity_break(payload):
    bad = copy.deepcopy(payload)
    bad["conflict_parity"] = False
    bad["golden_state_identical"] = False
    problems = dmp.gates(bad)
    assert any("brute-force reference" in p for p in problems)
    assert any("end state differs from the golden" in p for p in problems)


@pytest.mark.parametrize("doctor", [
    lambda digest, by_type: ("0" * 40, by_type),
    lambda digest, by_type: (digest, {**by_type, "INVALIDATE": 0}),
], ids=["digest", "census"])
def test_check_exits_1_when_a_point_leaves_the_golden(
    monkeypatch, tmp_path, doctor
):
    # The run is healthy; the golden is moved away from it instead.
    golden = dict(dmp.GOLDEN_POINTS)
    golden[100] = doctor(*golden[100])
    monkeypatch.setattr(dmp, "GOLDEN_POINTS", golden)
    argv = ["--max-views", "100", "--out", str(tmp_path / "bench.json")]
    [record] = cli(dmp.EXPERIMENT, argv=argv)
    assert len(record["gates"]["problems"]) == 1
    with pytest.raises(SystemExit) as exit_info:
        cli(dmp.EXPERIMENT, argv=argv + ["--check"])
    assert exit_info.value.code == 1


def test_acceptance_arms_perf_gates_at_full_ramp(payload):
    bad = copy.deepcopy(payload)
    bad["ramp_top"] = dmp.GATE_TOP
    bad["view_ratio"] = 100.0
    bad["pure_growth"] = 80.0   # needs <= 0.5 * view_ratio
    bad["churn_growth"] = 50.0  # needs <= max(8, 0.1 * view_ratio)
    problems = dmp.gates(bad)
    assert len(problems) == 2
    assert any("sub-linear" in p for p in problems)
    assert any("conflict degree" in p for p in problems)


def test_good_perf_numbers_clear_the_armed_gates(payload):
    good = copy.deepcopy(payload)
    good["ramp_top"] = dmp.GATE_TOP
    good["view_ratio"] = 100.0
    good["pure_growth"] = 2.0
    good["churn_growth"] = 3.0
    assert dmp.gates(good) == []


def test_sweep_shards_reassemble_the_serial_result(result):
    points = dmp.sweep_points(RAMP, full=False, max_views=None)
    assert points == list(RAMP)
    partials = [dmp.run_sweep_point(p) for p in points]
    merged = dmp.merge_dm_profile(points, partials)
    assert [p.n_views for p in merged.points] == points
    assert merged.fig4_counts_identical == result.fig4_counts_identical


def test_registered_with_runner_and_parallel_engine():
    declared = registry()["dm_profile"]
    assert declared.shard.points(**run_kwargs(declared)) == list(dmp.DEFAULT_RAMP)
