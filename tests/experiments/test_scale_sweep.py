"""The scale sweep's acceptance properties (ISSUE acceptance criteria).

The full 10k ramp is a nightly/manual run; the tier-1 suite exercises a
small ramp end to end (real sockets) plus the pure-logic pieces —
budgets, payload shape, acceptance gates — at zero socket cost.
"""

import pytest

from repro.experiments import scale_sweep
from repro.experiments.scale_sweep import (
    DEFAULT_RAMP,
    FULL_RAMP,
    GOLDEN_PARITY,
    ScaleSweepResult,
    bench_payload,
    gates,
    point_budget,
    run_scale_sweep,
    sweep_points,
)


@pytest.fixture(scope="module")
def result():
    # Small but end-to-end: two ramp points and the paired point on real
    # sockets, plus the sim/aio golden-parity replay in the merge step.
    return run_scale_sweep(ramp=(20, 60), cycles=2)


def test_all_small_points_sustain(result):
    assert len(result.points) == 3
    for p in result.points:
        assert p.sustainable, (p.transport, p.n_cms, p.reason)
        assert p.errors == 0
        assert p.elapsed_s < p.budget_s


def test_paired_point_is_directory_bound_and_sustains(result):
    paired = [p for p in result.points if p.transport == "aio+paired"]
    assert len(paired) == 1
    p = paired[0]
    # Rides at the ramp's smallest size, rounded to an even fleet.
    assert p.n_cms == 20
    assert p.sustainable, p.reason
    # Pair contention forces real revocation rounds: each acquire after
    # the first in a pair costs an INVALIDATE/ACK exchange, so this
    # point moves more messages per CM than the disjoint points.
    disjoint_aio = next(
        q for q in result.points if q.transport == "aio" and q.n_cms == 20
    )
    assert p.messages > disjoint_aio.messages


def test_aio_coalesces_and_bounds_queues(result):
    aio = [p for p in result.points if p.transport == "aio"]
    for p in aio:
        # The concurrent burst shares flushes and exercises the queue.
        assert p.coalesced_ratio > 0.0
        assert 0 < p.send_queue_hwm <= 2 * p.n_cms + 1024
        # At benchmark scale the envelope wrapping pays: fewer wire
        # frames than logical messages.
        assert p.frames < p.messages


def test_latency_percentiles_are_recorded(result):
    for p in result.points:
        assert p.acquire_p99_s >= p.acquire_p50_s > 0.0


def test_three_transport_parity(result):
    """sim and aio both reproduce the census frozen from the last
    three-way run (the third leg, threaded TCP, is since deleted)."""
    assert result.parity_state_identical
    assert result.parity_counts_identical
    # The census that travels with the payload is the frozen three-way one.
    assert result.parity_by_type == GOLDEN_PARITY["by_type"]


def test_bench_payload_shape_and_acceptance(result):
    payload = bench_payload(result)
    assert payload["ramp_top"] == 60
    assert payload["aio_max_sustainable_cms"] == 60
    assert len(payload["points"]) == 3
    for point in payload["points"]:
        assert {"transport", "n_cms", "sustainable", "acquire_p99_s",
                "frames_per_sec", "coalesced_ratio",
                "backpressure_stalls"} <= set(point)
    assert gates(payload) == []


def test_point_budget_is_bounded():
    assert point_budget(10, 2) == 60.0          # floor
    assert point_budget(100000, 2) == 600.0     # cap
    # Quadratic mid-range: 3k CMs needs ~190 s measured, budget > that.
    assert 190.0 < point_budget(3000, 2) < 600.0


def test_point_over_budget_reports_the_unfinished_cms(monkeypatch):
    """The budget is one deadline over every CM's script: one too short
    for the fleet leaves CMs unfinished, and the point says how many."""
    monkeypatch.setattr(scale_sweep, "point_budget", lambda n_cms, cycles: 0.0)
    point = scale_sweep.run_sweep_point(("aio", 20, 2))
    assert not point.completed and not point.sustainable
    assert point.budget_s == 0.0
    unfinished = int(point.reason.split(" of ")[0])
    assert 0 < unfinished <= 20
    assert point.reason == f"{unfinished} of 20 CMs unfinished after 0s budget"


def test_sweep_points_cover_ramp_and_paired_point():
    pts = sweep_points((100, 1000), cycles=2, full=False, max_cms=None)
    assert pts == [("aio", 100, 2), ("aio", 1000, 2), ("aio+paired", 100, 2)]
    assert set(FULL_RAMP) - set(DEFAULT_RAMP) == {10000}


def test_check_acceptance_flags_failures():
    base = bench_payload(ScaleSweepResult(points=[]))
    assert gates(base) == []
    base["parity_state_identical"] = False
    base["parity_counts_identical"] = False
    problems = gates(base)
    assert any("end states differ" in p for p in problems)
    assert any("message counts differ" in p for p in problems)

    def point(transport, n_cms):
        return {"transport": transport, "n_cms": n_cms, "sustainable": False,
                "reason": "wrong end state in 3 cells"}

    # Any point up to the default ramp's top must sustain, the
    # directory-bound paired point included.
    ramped = bench_payload(ScaleSweepResult(points=[]))
    ramped["points"] = [point("aio", DEFAULT_RAMP[-1]), point("aio+paired", 20)]
    problems = gates(ramped)
    assert any("aio point (3000 CMs) not sustainable" in p for p in problems)
    assert any("aio+paired point (20 CMs) not sustainable" in p for p in problems)

    # The --full 10k point records how far the box gets; it is no gate.
    ramped["points"] = [point("aio", FULL_RAMP[-1])]
    assert gates(ramped) == []
