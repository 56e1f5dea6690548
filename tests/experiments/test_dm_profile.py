"""The dm_profile experiment: A/B legs, parity checks, acceptance gates.

One tiny-ramp run (module-scoped) backs the structural assertions; the
gate logic is additionally exercised against a doctored payload so the
failure paths are covered without a 10k-view run in CI.
"""

import copy

import pytest

from repro.experiments import dm_profile as dmp
from repro.experiments.runner import registry

RAMP = (20, 40)


@pytest.fixture(scope="module")
def result():
    return dmp.run_dm_profile(ramp=RAMP)


@pytest.fixture(scope="module")
def payload(result):
    return dmp.bench_payload(result)


def test_runs_both_legs_over_the_ramp(result):
    assert len(result.points) == len(dmp.LEGS) * len(RAMP)
    seen = {(p.leg, p.n_views) for p in result.points}
    assert seen == {(leg, n) for leg in dmp.LEGS for n in RAMP}


def test_every_point_carries_a_profile(result):
    for p in result.points:
        assert p.ops > 0
        assert p.pure_op_us > 0
        assert p.churn_cycle_us > 0
        assert set(p.pure_phases_us) == set(dmp.OP_PHASES)


def test_conflict_parity_on_every_point(result):
    assert all(p.conflict_parity for p in result.points)


def test_index_counters_split_by_leg(result):
    for p in result.points:
        if p.leg == "indexed":
            assert p.index_candidates > 0
        else:
            assert p.index_candidates == 0
            assert p.scoped_invalidations == 0


def test_legs_agree_on_messages_and_state(result):
    by_key = {(p.leg, p.n_views): p for p in result.points}
    for n in RAMP:
        indexed, brute = by_key[("indexed", n)], by_key[("brute", n)]
        assert indexed.by_type == brute.by_type
        assert indexed.state_digest == brute.state_digest


def test_fig4_system_parity(result):
    assert result.fig4_state_identical
    assert result.fig4_counts_identical
    assert result.fig4_by_type  # the reference counts are recorded


def test_table_renders(result):
    text = str(result.table())
    assert "DM PROFILE" in text
    assert "indexed" in text and "brute" in text


def test_bench_payload_shape(payload):
    assert payload["ramp_top"] == max(RAMP)
    assert payload["ramp_bottom"] == min(RAMP)
    assert payload["conflict_parity"] is True
    assert payload["leg_counts_identical"] is True
    assert payload["leg_state_identical"] is True
    assert len(payload["points"]) == len(dmp.LEGS) * len(RAMP)
    for key in (
        "speedup_at_top", "churn_speedup_at_top",
        "indexed_pure_growth", "brute_pure_growth",
        "indexed_churn_growth", "brute_churn_growth",
    ):
        assert isinstance(payload[key], float), key


def test_acceptance_passes_below_gate_top(payload):
    # Parity gates apply at any ramp; the perf gates stay disarmed
    # below GATE_TOP, so a healthy tiny run is clean.
    assert payload["ramp_top"] < dmp.GATE_TOP
    assert dmp.gates(payload) == []


def test_acceptance_flags_parity_break(payload):
    bad = copy.deepcopy(payload)
    bad["conflict_parity"] = False
    bad["leg_state_identical"] = False
    problems = dmp.gates(bad)
    assert any("brute-force recomputation" in p for p in problems)
    assert any("different end state" in p for p in problems)


def test_acceptance_arms_perf_gates_at_full_ramp(payload):
    bad = copy.deepcopy(payload)
    bad["ramp_top"] = dmp.GATE_TOP
    bad["view_ratio"] = 100.0
    bad["speedup_at_top"] = 1.0        # needs >= 5x
    bad["indexed_pure_growth"] = 80.0  # needs <= 0.5 * view_ratio
    bad["indexed_churn_growth"] = 50.0  # needs <= max(8, 0.1 * view_ratio)
    problems = dmp.gates(bad)
    assert len(problems) == 3
    assert any("need >= 5x" in p for p in problems)
    assert any("sub-linear" in p for p in problems)
    assert any("conflict degree" in p for p in problems)


def test_good_perf_numbers_clear_the_armed_gates(payload):
    good = copy.deepcopy(payload)
    good["ramp_top"] = dmp.GATE_TOP
    good["view_ratio"] = 100.0
    good["speedup_at_top"] = 9.0
    good["indexed_pure_growth"] = 2.0
    good["indexed_churn_growth"] = 3.0
    assert dmp.gates(good) == []


def test_sweep_shards_reassemble_the_serial_result(result):
    points = dmp.sweep_points(RAMP)
    assert len(points) == len(dmp.LEGS) * len(RAMP)
    partials = [dmp.run_sweep_point(p) for p in points]
    merged = dmp.merge_dm_profile(points, partials)
    assert [(p.leg, p.n_views) for p in merged.points] == points
    assert merged.fig4_counts_identical == result.fig4_counts_identical


def test_registered_with_runner_and_parallel_engine():
    spec = registry()["dm_profile"].shard
    assert len(spec.points()) == len(dmp.LEGS) * len(dmp.DEFAULT_RAMP)
