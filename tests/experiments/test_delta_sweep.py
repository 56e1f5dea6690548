"""The delta sweep's acceptance properties (ISSUE acceptance criteria)."""

import copy

from repro.experiments.delta_sweep import bench_payload, gates, run_delta_sweep


def _sweep():
    # Small but representative: one low-locality point (large view, few
    # dirty cells) and one all-dirty parity point.
    return run_delta_sweep(sweep=((256, 4), (128, 128)), rounds=4)


def test_low_locality_payload_reduction_at_least_5x():
    result = _sweep()
    low = next(p for p in result.points if p.dirty_per_round < p.n_cells)
    assert low.bytes_reduction >= 5.0
    assert low.cells_skipped > low.cells_sent


def test_all_dirty_parity_within_5_percent():
    result = _sweep()
    parity = next(p for p in result.points if p.dirty_per_round >= p.n_cells)
    ratio = parity.delta_bytes_per_pull / parity.full_bytes_per_pull
    assert 0.95 <= ratio <= 1.05


def test_delta_and_full_runs_identical_state_and_messages():
    """Fig-4 logical message counts and the final component state must
    be identical between the delta and full-image runs at every point."""
    result = _sweep()
    assert all(p.state_identical for p in result.points)
    assert all(p.messages_identical for p in result.points)


def test_every_pull_was_served_as_a_delta():
    result = _sweep()
    for p in result.points:
        assert p.pulls == p.rounds
        assert p.images_delta == p.pulls
        assert p.delta_serves == p.pulls
        assert p.images_full == 2  # the two init snapshots
        assert p.slice_index_hits > 0


def test_merge_hooks_receive_only_the_cells_that_differ():
    for p in _sweep().points:
        expected = 2 * p.n_cells + p.rounds * p.dirty_per_round
        assert p.full_merged_cells == p.delta_merged_cells == expected


def test_bench_payload_shape():
    payload = bench_payload(_sweep())
    assert payload["low_locality_bytes_reduction"] >= 5.0
    assert abs(payload["all_dirty_bytes_ratio"] - 1.0) <= 0.05
    assert payload["all_points_state_identical"]
    assert payload["all_points_messages_identical"]
    assert len(payload["points"]) == 2


def test_gates_pass_on_the_sweep_and_fire_on_each_violation():
    """The thresholds the tests above assert are the declared gates, so
    the CI step's ``--check`` can fail."""
    payload = bench_payload(_sweep())
    assert gates(payload) == []

    def broken(edit):
        doc = copy.deepcopy(payload)
        edit(doc)
        return gates(doc)

    assert "message counts differ" in broken(
        lambda d: d["points"][0].update(messages_identical=False))[0]
    assert "end state differs" in broken(
        lambda d: d["points"][1].update(state_identical=False))[0]
    assert "need >= 5.0x" in broken(
        lambda d: d.update(low_locality_bytes_reduction=4.9))[0]
    assert "within 1 +- 0.05" in broken(
        lambda d: d.update(all_dirty_bytes_ratio=1.06))[0]
    assert "no all-dirty point" in broken(
        lambda d: d.update(all_dirty_bytes_ratio=None))[0]
    assert "served as deltas" in broken(
        lambda d: d["points"][0].update(images_delta=3))[0]
    assert "the cells that differ" in broken(
        lambda d: d["points"][0].update(full_merged_cells=7 * 256))[0]
