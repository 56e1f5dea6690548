"""The chaos experiment's acceptance properties."""

import copy

from repro.experiments.chaos import (
    MAX_ZERO_LOSS_OVERHEAD,
    bench_payload,
    gates,
    run_chaos,
)


def test_chaos_acceptance_at_ten_percent_drop_seed_zero():
    """10% drop + 5% duplicate at seed 0: the run completes with zero
    lost committed writes and the sublayer visibly did repair work."""
    result = run_chaos(loss_rates=(0.0, 0.1), seed=0)
    clean, lossy = result.points
    assert clean.lost_writes == 0 and lossy.lost_writes == 0
    assert lossy.drop_rate == 0.1 and lossy.duplicate_rate == 0.05
    assert lossy.retransmits > 0
    assert lossy.duplicates_suppressed > 0
    assert lossy.injected_drops > 0


def test_chaos_zero_loss_parity_with_raw_transport():
    """Faults off: the reliable run's logical message profile matches
    the raw transport message for message; ACK overhead is wire-only."""
    result = run_chaos(loss_rates=(0.0,), seed=0)
    assert result.parity_ok
    assert result.faultless_acks > 0  # overhead exists, reported separately
    [clean] = result.points
    assert clean.retransmits == 0 and clean.duplicates_suppressed == 0
    assert clean.wire_frames > clean.logical_messages
    # Every message is acknowledged, several to a vector.
    assert clean.acks_sent == clean.logical_messages
    assert clean.ack_frames == result.faultless_acks < clean.acks_sent
    assert clean.wire_frames == clean.logical_messages + clean.ack_frames


def test_chaos_deterministic_per_seed():
    a = run_chaos(loss_rates=(0.1,), seed=3)
    b = run_chaos(loss_rates=(0.1,), seed=3)
    assert bench_payload(a) == bench_payload(b)


def test_chaos_overhead_grows_with_loss():
    result = run_chaos(loss_rates=(0.0, 0.2), seed=0)
    clean, lossy = result.points
    assert lossy.overhead_ratio > clean.overhead_ratio


def test_chaos_dm_restart_recovery_accounting():
    """A mid-run directory kill/restart must lose nothing: the run
    converges to the crash-free run's primary copy, and a post-run
    crash+wipe recovery reproduces it from the durable lineage alone."""
    result = run_chaos(loss_rates=(0.0,), seed=0)
    d = result.dm_restart
    assert d is not None
    assert d.dm_crashes == 1 and d.dm_restarts == 1
    assert d.lost_writes == 0
    assert d.state_parity and d.recovered_parity
    # Recovery accounting lands in MessageStats: the mid-run restart
    # plus the final recovery check.
    assert d.recoveries == 2
    assert d.cells_replayed > 0
    payload = bench_payload(result)
    assert payload["dm_restart"]["recovered_parity"]


def test_check_gates_pass_on_the_sweep_and_fire_on_each_violation():
    payload = bench_payload(run_chaos(loss_rates=(0.0, 0.1), seed=0))
    assert gates(payload) == []
    assert payload["points"][0]["overhead_ratio"] <= MAX_ZERO_LOSS_OVERHEAD

    def broken(edit):
        doc = copy.deepcopy(payload)
        edit(doc)
        return gates(doc)

    assert "writes lost" in broken(
        lambda d: d["points"][1].update(lost_writes=1))[0]
    assert "undelivered" in broken(
        lambda d: d["points"][1].update(undelivered=2))[0]
    assert "differs from raw" in broken(
        lambda d: d.update(parity_with_raw_transport_at_zero_loss=False))[0]
    assert "wire frames per logical" in broken(
        lambda d: d["points"][0].update(overhead_ratio=2.0))[0]
    assert "recovered_parity" in broken(
        lambda d: d["dm_restart"].update(recovered_parity=False))[0]
    assert "no zero-loss leg" in broken(lambda d: d["points"].pop(0))[0]

