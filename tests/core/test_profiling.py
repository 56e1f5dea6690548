"""The directory op-path profiler (PR 9) and its scale guarantees.

Covers the pure pieces (histograms, profiler arithmetic), the wiring (``profile=True`` through FleccSystem and the
sharded plane), and the two work-bound satellites: the lease-expiry
heap does per-expiry work — not per-tick registry scans — and
``check_invariants`` is driven by the exclusive set and the conflict
index, so both stay usable at thousands of registered views.
"""

import pytest

from repro.core import Mode
from repro.core.directory import DirectoryManager
from repro.core.profiling import PHASES, DirectoryProfiler, PhaseHistogram
from repro.core.property_set import PropertySet
from repro.core.sharding import ShardedFleccSystem
from repro.experiments.dm_profile import _vid
from repro.net.sim_transport import SimTransport
from repro.sim import SimKernel
from repro.testing import (
    Agent,
    BareDirectory,
    ProtocolFixture,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    pair_group_props,
)


# -- PhaseHistogram ------------------------------------------------------


def test_histogram_basic_stats():
    h = PhaseHistogram()
    for ns in (100, 200, 400):
        h.record(ns)
    assert h.count == 3
    assert h.total_ns == 700
    assert h.mean_ns == pytest.approx(700 / 3)
    assert h.max_ns == 400


def test_histogram_negative_and_zero_clamp():
    h = PhaseHistogram()
    h.record(0)
    h.record(-5)  # clock skew paranoia: clamped, never a crash
    assert h.count == 2
    assert h.total_ns == 0
    assert h.percentile_ns(0.5) == 0


def test_histogram_huge_sample_lands_in_top_bucket():
    h = PhaseHistogram()
    h.record(1 << 60)
    assert h.buckets[PhaseHistogram.NBUCKETS - 1] == 1


def test_histogram_percentile_brackets_samples():
    h = PhaseHistogram()
    for _ in range(99):
        h.record(1000)
    h.record(1_000_000)
    p50, p99 = h.percentile_ns(0.50), h.percentile_ns(0.99)
    # Power-of-two buckets: good to a factor of two around the sample.
    assert 500 <= p50 <= 2047
    assert p99 <= 2047 < h.max_ns


def test_histogram_merge_accumulates():
    a, b = PhaseHistogram(), PhaseHistogram()
    a.record(100)
    b.record(300)
    a.merge(b)
    assert a.count == 2
    assert a.total_ns == 400
    assert a.max_ns == 300
    d = a.as_dict()
    assert d["count"] == 2 and d["total_ns"] == 400


# -- DirectoryProfiler ---------------------------------------------------


def test_profiler_records_and_totals():
    p = DirectoryProfiler()
    p.record("conflict", 100)
    p.record("serve", 50)
    p.note_op()
    assert p.ops == 1
    assert p.total_ns() == 150
    assert p.total_ns("conflict") == 100
    assert p.total_ns("conflict", "serve", "missing") == 150


def test_profiler_total_excludes_wal_inside_commit():
    p = DirectoryProfiler()
    p.record("commit", 1000)  # includes the WAL append...
    p.record("wal", 400)      # ...also recorded on its own
    assert p.total_ns() == 1000          # not double-counted
    assert p.total_ns("wal") == 400      # explicit ask still works
    lone = DirectoryProfiler()
    lone.record("wal", 400)              # no commit phase recorded
    assert lone.total_ns() == 400


def test_profiler_merge_folds_phases_and_ops():
    a, b = DirectoryProfiler(), DirectoryProfiler()
    a.record("serve", 10)
    a.note_op()
    b.record("serve", 20)
    b.record("commit", 5)
    b.note_op()
    a.merge(b)
    assert a.ops == 2
    assert a.phases["serve"].count == 2
    assert a.phases["commit"].count == 1


def test_profiler_summary_names_phases():
    p = DirectoryProfiler()
    p.record("conflict", 1500)
    text = p.summary()
    assert "conflict" in text and "ops" in text


def test_profiler_as_dict_orders_canonical_phases_first():
    p = DirectoryProfiler()
    p.record("zz-custom", 1)
    for phase in reversed(PHASES):
        p.record(phase, 1)
    keys = list(p.as_dict())
    assert keys[: len(PHASES)] == list(PHASES)
    assert keys[-1] == "zz-custom"


# -- wiring: system / directory / sharded plane --------------------------


def test_directory_profiles_real_lifecycle():
    fx = ProtocolFixture(profile=True)
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] += 1
        cm.end_use_image()
        yield cm.kill_image()

    fx.run_scripts(script())
    prof = fx.system.directory.profiler
    assert prof is not None
    assert prof.ops >= 2  # init + acquire
    for phase in ("register", "conflict", "serve", "commit"):
        assert phase in prof.phases, phase


def test_profiling_off_by_default():
    fx = ProtocolFixture()
    assert fx.system.directory.profiler is None


def test_sharded_plane_merges_shard_profiles():
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    store = Store({"k00": 0, "k01": 1})
    system = ShardedFleccSystem(
        transport, store, extract_from_object, merge_into_object,
        n_shards=2, extract_cells=extract_cells, profile=True,
    )
    agent = Agent()
    cm = system.add_view(
        "v1", agent, PropertySet(), extract_from_view, merge_into_view,
    )

    def script():
        yield cm.start()
        yield cm.init_image()

    from repro.core.system import run_all_scripts

    run_all_scripts(transport, [script()])
    merged = system.plane.merged_profile()
    assert merged is not None
    assert merged.ops >= sum(
        dm.profiler.ops for dm in system.plane.shards
    ) == merged.ops
    assert "register" in merged.phases


def test_sharded_plane_without_profiling_returns_none():
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    system = ShardedFleccSystem(
        transport, Store({"k00": 0}), extract_from_object, merge_into_object,
        n_shards=2, extract_cells=extract_cells,
    )
    assert system.plane.merged_profile() is None


# -- work bounds at scale ------------------------------------------------

N_SCALE = 2000  # large enough that an O(V) or O(V^2) slip times out


def _settle(h, sim_seconds=1.0):
    """Deliver in-flight messages without draining the event queue.

    With leases armed the sweep timer re-schedules itself while views
    exist, so ``kernel.run()`` with no horizon would never go idle;
    a bounded run delivers traffic (latency 0.01) and stops.
    """
    h.kernel.run(until=h.transport.now() + sim_seconds)


def _lease_harness(n_views, lease_duration):
    h = BareDirectory()
    h.dm.lease_duration = lease_duration
    for i in range(n_views):
        h.register(_vid(i), pair_group_props(i))
    _settle(h)
    return h


def test_idle_lease_ticks_do_no_per_view_work():
    """A sweep tick before any lease expires inspects the heap head and
    stops: zero pops, no matter how many views are registered."""
    h = _lease_harness(N_SCALE, lease_duration=100.0)
    assert len(h.dm._lease_heap) == N_SCALE
    # Run three half-lease ticks' worth of sim time while every lease
    # is still current (renewed by the registration traffic at t~0).
    h.kernel.run(until=h.transport.now() + 99.0)
    assert h.dm.counters["lease_heap_pops"] == 0
    assert len(h.dm.views) == N_SCALE
    h.dm.close()


def test_expiry_work_is_per_expired_view_not_per_tick():
    """Each pop is either a genuine eviction or one stale-entry re-push
    (lazy deletion) — bounded by expiry events, not tick count x V."""
    h = _lease_harness(N_SCALE, lease_duration=100.0)
    # One view stays alive by renewing; everyone else goes silent.
    alive = _vid(0)
    for _ in range(4):
        h.kernel.run(until=h.transport.now() + 60.0)
        h.pull(alive)
        _settle(h)
    # Every silent view expired exactly once; the live view cost at
    # most one lazy re-push per sweep that caught its stale entry.
    assert len(h.dm.views) == 1 and alive in h.dm.views
    assert h.dm.counters["leases_expired"] == N_SCALE - 1
    pops = h.dm.counters["lease_heap_pops"]
    assert pops <= N_SCALE - 1 + 8, pops
    assert h.dm._lease_heaped == {alive}
    h.dm.close()


def test_renewals_never_grow_the_heap():
    h = _lease_harness(50, lease_duration=100.0)
    for _ in range(5):
        for i in range(50):
            h.pull(_vid(i))
        _settle(h)
    assert len(h.dm._lease_heap) == 50  # one entry per view, renewals free
    h.dm.close()


def test_check_invariants_cost_tracks_exclusive_degree():
    """At N views with no exclusive owner the invariant check touches
    nothing; with one owner it evaluates only that owner's conflict
    neighborhood — never O(V^2) pairs."""
    h = BareDirectory()
    for i in range(N_SCALE):
        h.register(_vid(i), pair_group_props(i))
    h.drain()
    dm = h.dm
    evals0 = dm.policy.dynamic_evals
    dm.check_invariants()  # no exclusive views: zero conflict work
    assert dm.policy.dynamic_evals == evals0
    # One owner, made through the flag writer.
    dm._set_activity(dm.views[_vid(0)], True, True)
    dm.check_invariants()
    evals = dm.policy.dynamic_evals - evals0
    assert evals <= 4, evals  # the owner's pair neighborhood only
    dm.close()


def test_activity_sets_follow_direct_flag_mutation():
    h = BareDirectory()
    h.register(_vid(0), pair_group_props(0))
    h.drain()
    rec = h.dm.views[_vid(0)]
    h.dm._set_activity(rec, True, True)
    assert h.dm.active_views() == [_vid(0)]
    assert h.dm.exclusive_views() == [_vid(0)]
    h.dm._set_activity(rec, True, False)
    assert rec.active and not rec.exclusive
    assert h.dm.exclusive_views() == []
    h.dm._release(_vid(0))
    assert h.dm.active_views() == []
    h.dm.close()
