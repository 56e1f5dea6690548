"""The wire sweep's acceptance properties (ISSUE acceptance criteria)."""

import pytest

from repro.experiments.runner import registry
from repro.experiments.wire_sweep import (
    bench_payload,
    gates,
    run_wire_sweep,
)


@pytest.fixture(scope="module")
def result():
    # Small but representative: the PUSH-heavy all-dirty point and a
    # large-view low-locality delta point, plus a tiny fig4 workload.
    return run_wire_sweep(
        sweep=((48, 48), (256, 4)), rounds=3, agents=6
    )


@pytest.fixture(scope="module")
def payload(result):
    return bench_payload(result)


def test_binary_reduction_at_least_2x_on_push_heavy_point(result):
    push_heavy = next(
        p for p in result.points if p.dirty_per_round >= p.n_cells
    )
    assert push_heavy.reduction["binary"] >= 2.0


def test_zlib_reduction_at_least_3x_on_delta_point(result):
    delta_point = next(
        p for p in result.points if p.dirty_per_round < p.n_cells
    )
    assert delta_point.reduction["binary+zlib"] >= 3.0
    # Compression actually fired there (the big INIT_DATA snapshots).
    assert delta_point.frames_compressed["binary+zlib"] > 0
    assert delta_point.bytes_saved_compression["binary+zlib"] > 0


def test_json_run_never_compresses(result):
    for p in result.points:
        assert p.frames_compressed["json"] == 0
        assert p.bytes_saved_compression["json"] == 0


def test_state_messages_and_decodes_identical_across_codecs(result):
    for p in result.points:
        assert p.state_identical
        assert p.messages_identical
        assert p.decoded_identical


def test_fig4_workload_identical_across_codecs(result):
    fig4 = result.fig4
    assert fig4 is not None
    assert fig4.state_identical and fig4.messages_identical
    assert fig4.decoded_identical
    # Same logical traffic, fewer bytes.
    counts = set(fig4.total_messages.values())
    assert len(counts) == 1
    assert fig4.payload_bytes["binary"] < fig4.payload_bytes["json"]


def test_delta_parity_preserved_under_every_codec(result):
    for p in result.points:
        for codec, identical in p.delta_messages_identical.items():
            assert identical, f"delta on/off counts differ under {codec}"
    push_heavy = next(
        p for p in result.points if p.dirty_per_round >= p.n_cells
    )
    for codec, ratio in push_heavy.delta_vs_full_payload_ratio.items():
        # All-dirty: deltas carry the whole slice, so payload parity
        # holds (within DeltaImage framing overhead) under every codec.
        assert 0.9 <= ratio <= 1.3, (codec, ratio)


def test_control_frame_point_records_what_the_segment_floor_rests_on(result, payload):
    c = result.control
    frames = c.frames
    assert c.splits_identical and c.sub_messages == 4  # four PULL_REQs
    assert set(frames) == {"dict", "native"}
    for forms in frames.values():
        assert set(forms) == {"raw", "deflated"}
        # Deflate does shrink a control frame — inside one segment, so
        # it saves bytes and no packet.
        assert forms["deflated"]["bytes"] < forms["raw"]["bytes"] < c.segment_bytes
        assert all(m["encode_us"] > 0 and m["decode_us"] > 0 for m in forms.values())
    assert frames["native"]["raw"]["bytes"] < frames["dict"]["raw"]["bytes"]
    assert c.stored_by_default
    assert payload["control_frame"]["frames"] == frames
    assert "one control flush" in result.table()
    bad = dict(payload, control_frame=dict(payload["control_frame"],
                                           splits_identical=False))
    assert any("control-frame" in p for p in gates(bad))


def test_bench_payload_shape_and_acceptance(payload):
    assert payload["all_points_state_identical"] is True
    assert payload["all_points_messages_identical"] is True
    assert payload["all_points_decoded_identical"] is True
    assert payload["push_heavy_reduction_binary"] >= 2.0
    assert payload["delta_point_reduction_zlib"] >= 3.0
    assert set(payload["delta_parity_by_codec"]) == {
        "json", "binary", "binary+zlib"
    }
    assert payload["fig4"]["messages_identical"] is True
    assert gates(payload) == []


def test_check_acceptance_flags_failures(payload):
    bad = dict(payload)
    bad["push_heavy_reduction_binary"] = 1.5
    bad["all_points_state_identical"] = False
    problems = gates(bad)
    assert any("1.5x < 2x" in p for p in problems)
    assert any("end state" in p for p in problems)


def test_registered_in_runner():
    assert registry()["wire_sweep"].run is run_wire_sweep
