"""The shard sweep's acceptance properties (ISSUE acceptance criteria)."""

import pytest

from repro.experiments.shard_sweep import (
    bench_payload,
    gates,
    run_shard_sweep,
)


@pytest.fixture(scope="module")
def result():
    # Small but decisive: the 1-vs-4 shard-local pair carries the
    # speedup gate, the spanning pair the worst-case bracket.
    return run_shard_sweep(shards=(1, 4), rounds=3)


def test_shard_local_throughput_scales(result):
    local = {p.n_shards: p for p in result.points if p.workload == "shard-local"}
    assert local[4].rounds_per_sec >= 2.0 * local[1].rounds_per_sec
    # Same logical work at every shard count.
    assert local[4].ops == local[1].ops


def test_shard_local_latency_improves(result):
    local = {p.n_shards: p for p in result.points if p.workload == "shard-local"}
    assert local[4].acquire_p99 < local[1].acquire_p99
    assert local[4].acquire_p50 <= local[1].acquire_p50


def test_shard_local_workload_never_crosses_shards(result):
    for p in result.points:
        if p.workload == "shard-local":
            assert p.cross_shard_rounds == 0
            assert p.router_fanouts == 0


def test_spanning_workload_fans_out(result):
    span = {p.n_shards: p for p in result.points if p.workload == "spanning"}
    assert span[4].cross_shard_rounds > 0
    assert span[4].router_fanouts > 0
    assert span[1].cross_shard_rounds == 0


def test_n1_plane_is_identical_to_unsharded(result):
    assert result.n1_state_identical
    assert result.n1_messages_identical


def test_bench_payload_passes_acceptance(result):
    payload = bench_payload(result)
    assert payload["local_speedup_4_shards"] >= 2.0
    assert gates(payload) == []
