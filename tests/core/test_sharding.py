"""Sharded directory plane: router, parity, cross-shard rounds.

The load-bearing guarantees under test (placement itself — one owner
per key, restart stability — is held in ``test_placement_hypothesis``):

- ``n_shards=1`` is message-identical to the unsharded system (same
  sends, same order, same ids, same bytes);
- a spanning property set run across N shards converges to exactly the
  state a single-shard run of the same workload produces (the
  cross-shard conflict rounds lose no updates).

The planes here are given the equal-count cut explicitly: a plane that
places keys itself would re-cut it off the spanning footprints at the
first data request and put every view on one shard
(``test_placement_cut``).
"""

import pytest

from repro.core import FleccSystem, ShardedFleccSystem
from repro.core import messages as M
from repro.core.sharding import KeyRangePartitioner
from repro.core.system import run_all_scripts
from repro.net import Message, SimTransport
from repro.net.message import reset_message_ids
from repro.sim import SimKernel
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)


# -- workload helpers --------------------------------------------------------

CELLS = [f"k{i:02d}" for i in range(8)]


def _build(n_shards, cells=CELLS, record=None):
    reset_message_ids()
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    if record is not None:
        def recorder(msg):
            record.append((msg.msg_type, msg.src, msg.dst, msg.msg_id))
            return "deliver"
        transport.fault_policy = recorder
    store = Store({c: i for i, c in enumerate(cells)})
    if n_shards is None:  # the unsharded reference system
        system = FleccSystem(
            transport, store, extract_from_object, merge_into_object,
            extract_cells=extract_cells,
        )
    else:
        system = ShardedFleccSystem(
            transport, store, extract_from_object, merge_into_object,
            n_shards=n_shards,
            partitioner=KeyRangePartitioner.from_keys(cells, n_shards),
            extract_cells=extract_cells,
        )
    return transport, store, system


def _contended_scripts(system, cells=CELLS, rounds=3):
    """Two strong-mode views over the same spanning slice, interleaved."""
    agents = {}
    for vid, bump in (("v1", 1), ("v2", 10)):
        agent = Agent()
        agents[vid] = (agent, bump)
        system.add_view(vid, agent, props_for(cells), extract_from_view,
                        merge_into_view, mode="strong")

    def script(cm, agent, bump):
        yield cm.start()
        yield cm.init_image()
        for _ in range(rounds):
            yield cm.start_use_image()
            for c in cells:
                agent.local[c] = agent.local.get(c, 0) + bump
            cm.end_use_image()
            yield ("sleep", 5.0)
        yield cm.kill_image()

    return [
        script(system.cache_managers[vid], agent, bump)
        for vid, (agent, bump) in agents.items()
    ]


def _fig4_scripts(system, cells=CELLS):
    """The Fig-4-style mixed workload: a strong writer, a weak reader
    with pull/push, and a second strong view contending at the end."""
    writer, reader, late = Agent(), Agent(), Agent()
    system.add_view("writer", writer, props_for(cells), extract_from_view,
                    merge_into_view, mode="strong")
    system.add_view("reader", reader, props_for(cells), extract_from_view,
                    merge_into_view, mode="weak")
    system.add_view("late", late, props_for(cells), extract_from_view,
                    merge_into_view, mode="strong")
    cms = system.cache_managers

    def write_script():
        cm = cms["writer"]
        yield cm.start()
        yield cm.init_image()
        for r in range(2):
            yield cm.start_use_image()
            for c in cells:
                writer.local[c] += 1
            cm.end_use_image()
            yield ("sleep", 10.0)
        yield cm.kill_image()

    def read_script():
        cm = cms["reader"]
        yield cm.start()
        yield cm.init_image()
        # Stay registered through both strong sessions (their rounds
        # invalidate this weak copy), then pull/push once the writers
        # are quiescent — a weak push *racing* a strong session is
        # last-writer-wins and its winner legitimately depends on op
        # interleaving, which sharding changes.
        yield ("sleep", 30.0)
        yield cm.pull_image()
        reader.local[cells[0]] += 100
        yield cm.push_image()
        yield cm.kill_image()

    def late_script():
        cm = cms["late"]
        yield ("sleep", 12.0)
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        late.local[cells[-1]] += 1000
        cm.end_use_image()
        yield cm.kill_image()

    return [write_script(), read_script(), late_script()], (writer, reader, late)


# -- N=1 parity --------------------------------------------------------------


def test_single_shard_is_message_identical_to_unsharded():
    """The acceptance bar for n_shards=1: same final state AND the same
    message sequence — every send, in order, with the same type, source,
    destination, and message id — and therefore the same wire bytes."""
    seq_plain, seq_sharded = [], []

    transport, store, system = _build(None, record=seq_plain)
    scripts, _ = _fig4_scripts(system)
    run_all_scripts(transport, scripts)
    system.close()
    plain_state = dict(store.cells)
    plain_stats = transport.stats

    transport2, store2, system2 = _build(1, record=seq_sharded)
    scripts2, _ = _fig4_scripts(system2)
    run_all_scripts(system2.transport, scripts2)
    system2.close()

    assert store2.cells == plain_state
    assert seq_sharded == seq_plain
    assert transport2.stats.total == plain_stats.total
    assert transport2.stats.by_type == plain_stats.by_type
    assert transport2.stats.bytes_sent == plain_stats.bytes_sent
    assert transport2.stats.bytes_by_type == plain_stats.bytes_by_type


def test_single_shard_contended_parity():
    transport, store, system = _build(None)
    run_all_scripts(transport, _contended_scripts(system))
    system.close()

    transport2, store2, system2 = _build(1)
    run_all_scripts(system2.transport, _contended_scripts(system2))
    system2.close()

    assert store2.cells == store.cells
    assert transport2.stats.by_type == transport.stats.by_type


def test_single_shard_uses_original_directory_address():
    transport, _store, system = _build(1)
    assert system.plane.addresses == ["dir"]
    # The shard's address is the directory address, so forwarding a
    # request to "its shard" retargets nothing.
    assert system.plane.router.shard_addresses == ["dir"]
    system.close()


# -- cross-shard conflict rounds ---------------------------------------------


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_spanning_views_converge_like_single_shard(n_shards):
    """A/B: the same contended spanning workload, one shard vs many —
    the cross-shard rounds must lose no update and double-apply none."""
    transport, store, system = _build(1)
    run_all_scripts(system.transport, _contended_scripts(system))
    system.close()
    reference = dict(store.cells)

    transport_n, store_n, system_n = _build(n_shards)
    run_all_scripts(system_n.transport, _contended_scripts(system_n))
    counters = system_n.plane.counters
    system_n.plane.check_invariants()
    system_n.close()

    assert store_n.cells == reference
    # The spanning slice genuinely fans out and the revoked view's dirty
    # cells get re-homed to the shards the asking shard does not own.
    assert counters["router_fanouts"] > 0
    assert counters["cross_shard_rounds"] > 0
    assert counters["synthesized_pushes"] > 0


def test_fig4_workload_converges_across_shards():
    transport, store, system = _build(1)
    scripts, _ = _fig4_scripts(system)
    run_all_scripts(system.transport, scripts)
    system.close()
    reference = dict(store.cells)

    transport4, store4, system4 = _build(4)
    scripts4, _ = _fig4_scripts(system4)
    run_all_scripts(system4.transport, scripts4)
    system4.close()
    assert store4.cells == reference


def test_shard_local_views_never_fan_out_data_ops():
    """Views whose property sets map to a single shard run their rounds
    entirely shard-local: no data-op fan-out, no cross-shard rounds."""
    # Two shards over k00..k07 cut at k04: each DiscreteSet slice below
    # enumerates keys of one range only.
    transport, store, system = _build(2)
    assert system.plane.partitioner.splits == ["k04"]
    lo, hi = Agent(), Agent()
    system.add_view("lo", lo, props_for(CELLS[:4]), extract_from_view,
                    merge_into_view, mode="strong")
    system.add_view("hi", hi, props_for(CELLS[4:]), extract_from_view,
                    merge_into_view, mode="strong")

    def script(cm, agent, keys):
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        for k in keys:
            agent.local[k] = agent.local.get(k, 0) + 1
        cm.end_use_image()
        yield cm.kill_image()

    run_all_scripts(system.transport, [
        script(system.cache_managers["lo"], lo, []),
        script(system.cache_managers["hi"], hi, []),
    ])
    counters = system.plane.counters
    system.close()
    assert counters["cross_shard_rounds"] == 0
    assert counters["router_fanouts"] == 0
    assert counters["shard_local_rounds"] > 0


# -- plane-wide accounting ---------------------------------------------------


def test_plane_counters_include_router_and_shards():
    transport, store, system = _build(2)
    run_all_scripts(system.transport, _contended_scripts(system))
    counters = system.plane.counters
    system.close()
    for key in ("cross_shard_rounds", "shard_local_rounds", "router_fanouts",
                "rounds", "commits", "registers"):
        assert key in counters
    # Shard counters are summed across the plane: both views registered
    # on both shards (spanning slice) -> 2 registrations per shard.
    assert counters["registers"] == 4


def test_registered_views_union_and_unregister():
    transport, store, system = _build(2)
    a = Agent()
    system.add_view("solo", a, props_for(CELLS), extract_from_view,
                    merge_into_view, mode="weak")
    cm = system.cache_managers["solo"]

    def script():
        yield cm.start()
        assert system.plane.registered_views() == ["solo"]
        yield cm.init_image()
        yield cm.kill_image()

    run_all_scripts(system.transport, [script()])
    assert system.plane.registered_views() == []
    system.close()


def test_router_error_to_a_vanished_view_is_a_recorded_drop():
    """The router's refusals reach cache managers through the one local
    hand-off, so one addressed to an endpoint that is gone is counted
    as a drop, like a merged reply or a held revocation would be."""
    _, _, system = _build(n_shards=2)
    router = system.plane.router
    before = router.stats.dropped
    router.send(Message(M.PUSH, "cm:gone", router.directory_address,
                        {"view_id": "gone"}))
    assert router.stats.dropped == before + 1
