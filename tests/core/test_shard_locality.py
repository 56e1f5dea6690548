"""Shard-local by default: a plane built with no partitioner keeps a
conflict group's rounds on one shard.

The liveness cases are strong views sharing runs of flights.  A plane
that places keys itself re-cuts its split points off the registered
footprints at the first data request (``test_placement_cut.py``), so
the cases that need a run to straddle a split point pass today's
equal-count cut explicitly (``KeyRangePartitioner.from_keys``): there
the run spans two shards.  A spanning acquire takes its shards in
ascending index, so any number of them, on any split points, on any
scheduler setting, must finish with the single-dict outcome: one seat
gone per reserve.
"""

import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline.flights import (
    extract_cells_from_database,
    extract_from_database,
    flight_index_property,
    merge_into_database,
    seat_conflict_resolver,
)
from repro.apps.airline.travel_agent import (
    TravelAgent,
    attach_cache_manager,
    extract_from_agent,
    lifecycle,
    merge_into_agent,
)
from repro.apps.airline.workload import (
    generate_flight_database,
    reserve_operations,
)
from repro.core import messages as M
from repro.core.durability import DurabilitySpec
from repro.core.sharding import KeyRangePartitioner, ShardedFleccSystem
from repro.core.system import run_all_scripts
from repro.errors import ProtocolError
from repro.net.aio_transport import AioTcpTransport
from repro.net.reliability import ReliableTransport
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
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

CAPACITY = 1000
OPS = 50


def _airline(n_flights, partitioner=None, transport=None, n_shards=4,
             **options):
    db = generate_flight_database(
        n_flights, seed=0, capacity_range=(CAPACITY, CAPACITY)
    )
    system = ShardedFleccSystem(
        transport or SimTransport(SimKernel(), default_latency=1.0), db,
        extract_from_database, merge_into_database, n_shards=n_shards,
        partitioner=partitioner,
        conflict_resolver=seat_conflict_resolver,
        extract_cells=extract_cells_from_database,
        **options,
    )
    return db, system


def _reserve_all(system, db, slices, n_ops, think_time=0.0):
    """One STRONG agent per slice, ``n_ops`` one-seat reserves each
    (``think_time`` inside every critical section); returns the seats
    lost.  Raises if any op failed or a shard's invariants broke."""
    scripts = []
    for v, served in enumerate(slices):
        agent = TravelAgent(f"ta{v}", served)
        cm = attach_cache_manager(system, agent, mode="strong")
        ops = reserve_operations(served, n_ops, seed=3, agent_index=v)
        scripts.append(lifecycle(cm, agent, ops, think_time=think_time))
    run_all_scripts(system.transport, scripts)  # raises on any failed op
    system.plane.check_invariants()
    return sum(CAPACITY - f.seats_available for f in db.flights.values())


SLICE = [f"FL{i:04d}" for i in range(5)]


def _equal_count(n_flights, n_shards=4):
    """Today's equal-count cut of the flights, as an explicit partitioner."""
    return KeyRangePartitioner.from_keys(
        [f"FL{i:04d}" for i in range(n_flights)], n_shards
    )


def _contend(n_flights, n_views, partitioner=None):
    """``n_views`` STRONG agents all serving FL0000..FL0004, 50 reserve
    ops each with no think time; returns (seats lost, plane counters,
    the shards the views were routed to)."""
    db, system = _airline(n_flights, partitioner=partitioner)
    lost = _reserve_all(system, db, [SLICE] * n_views, OPS)
    counters = system.plane.counters
    footprint = sorted({system.plane.partitioner.shard_of(k) for k in SLICE})
    system.close()
    return lost, counters, footprint


def test_four_strong_views_on_one_slice_all_finish():
    """20 flights over 4 shards is one 5-flight slice per shard: the
    quad lives on shard 0 and runs the unsharded protocol there."""
    lost, counters, footprint = _contend(n_flights=20, n_views=4)
    assert lost == 4 * OPS
    assert footprint == [0]
    assert counters["router_fanouts"] == 0
    assert counters["cross_shard_rounds"] == 0
    assert counters["whole_plane_views"] == 0


def test_slice_straddling_a_split_point_spans_exactly_two_shards():
    """15 flights cut equal-count over 4 shards split at FL0003: the
    slice FL0000..FL0004 straddles it.  The cut promises adjacency, so a
    straddling slice costs two shards, not four, and stays correct."""
    lost, counters, footprint = _contend(
        n_flights=15, n_views=2, partitioner=_equal_count(15)
    )
    assert lost == 2 * OPS
    assert footprint == [0, 1]
    assert counters["cross_shard_rounds"] > 0
    assert counters["shard_local_rounds"] == 0


def test_four_strong_views_straddling_a_split_point():
    lost, _counters, footprint = _contend(
        n_flights=15, n_views=4, partitioner=_equal_count(15)
    )
    assert lost == 4 * OPS
    assert footprint == [0, 1]


@settings(deadline=None, max_examples=30)
@given(
    n_shards=st.integers(2, 4),
    slices=st.lists(
        st.tuples(st.integers(0, 11), st.integers(2, 8)),
        min_size=2, max_size=6,
    ),
    think_time=st.sampled_from([0.0, 1.5]),
    concurrent_rounds=st.sampled_from([1, 0]),
    coalesce_and_delta=st.booleans(),
)
def test_strong_views_on_random_split_points_all_finish(
    n_shards, slices, think_time, concurrent_rounds, coalesce_and_delta
):
    """2-6 strong views, each on a run of 2-8 of 16 flights starting
    anywhere, so runs straddle split points in every arrangement and
    overlap their neighbours' runs: every reserve completes and costs
    exactly one seat, as on one dict."""
    db, system = _airline(
        16, partitioner=_equal_count(16, n_shards), n_shards=n_shards,
        concurrent_rounds=concurrent_rounds,
        coalesce_rounds=coalesce_and_delta, delta=coalesce_and_delta,
    )
    flights = sorted(db.flights)
    served = [flights[start:start + width] for start, width in slices]
    try:
        lost = _reserve_all(system, db, served, 8, think_time=think_time)
    finally:
        system.close()
    assert lost == 8 * len(served)


def test_four_straddling_strong_views_on_the_composed_aio_stack(wal_root):
    """The composed configuration on real sockets: reliable delivery,
    binary+zlib frames, delta serves, coalesced and unbounded concurrent
    rounds, and a WAL behind every shard."""
    wire = AioTcpTransport(wrap_batches=True)
    top = ReliableTransport(wire)
    db, system = _airline(
        15, partitioner=_equal_count(15), transport=top,
        codec="binary+zlib", delta=True,
        coalesce_rounds=True, concurrent_rounds=0,
        durability=DurabilitySpec(wal_root, fsync="batch"),
    )
    try:
        lost = _reserve_all(system, db, [SLICE] * 4, OPS)
    finally:
        system.close()
        top.close()
        wire.close()
    assert lost == 4 * OPS


# -- the loud fallback ---------------------------------------------------------


def test_view_no_property_enumerates_spans_the_plane_loudly(caplog):
    """An interval property cannot be enumerated: the view still works,
    on every shard, and says so once."""
    db, system = _airline(20)
    agent = TravelAgent("by-index", [f"FL{i:04d}" for i in range(5)])
    cm = system.add_view(
        "by-index", agent, flight_index_property(0, 4),
        extract_from_agent, merge_into_agent, mode="weak",
    )

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.kill_image()

    with caplog.at_level(logging.WARNING, logger="repro.core.sharding"):
        run_all_scripts(system.transport, [script()])
    counters = system.plane.counters
    system.close()
    assert sorted(agent.local) == [f"FL{i:04d}" for i in range(5)]
    assert counters["whole_plane_views"] == 1
    warnings = [r for r in caplog.records if r.name == "repro.core.sharding"]
    assert len(warnings) == 1
    assert "by-index" in warnings[0].getMessage()
    assert "DiscreteSet" in warnings[0].getMessage()


def test_a_shard_error_inside_a_barrier_is_loud(caplog):
    """A shard that refuses its copy turns the merged reply into an
    ERROR, and the router says so once: the view, the request type and
    what the shard said."""
    shots = {"left": 0}

    def exploding_extract(store, props):
        if shots["left"]:
            shots["left"] -= 1
            raise RuntimeError("extract exploded")
        return extract_from_object(store, props)

    cells = [f"k{i}" for i in range(8)]
    # Today's equal-count cut, given explicitly: the footprint cut would
    # put the whole slice on one shard, and there would be no barrier.
    system = ShardedFleccSystem(
        SimTransport(SimKernel(), default_latency=1.0),
        Store({c: 0 for c in cells}), exploding_extract, merge_into_object,
        n_shards=2, partitioner=KeyRangePartitioner.from_keys(cells, 2),
        extract_cells=extract_cells,
    )
    cm = system.add_view("spanning", Agent(), props_for(cells),
                         extract_from_view, merge_into_view)

    def script():
        yield cm.start()
        shots["left"] = 1  # one shard's serve fails, the other's does not
        try:
            yield cm.init_image()
        except ProtocolError as exc:
            return str(exc)

    with caplog.at_level(logging.WARNING, logger="repro.core.sharding"):
        [refused] = run_all_scripts(system.transport, [script()])
    system.close()
    assert refused == "extract exploded"
    said = [r.getMessage() for r in caplog.records
            if r.name == "repro.core.sharding"]
    assert len(said) == 1
    assert "'spanning'" in said[0] and M.INIT_REQ in said[0]
    assert "extract exploded" in said[0]


def test_inferred_property_is_readable_on_the_partitioner():
    db, system = _airline(20)
    part = system.plane.partitioner
    assert isinstance(part, KeyRangePartitioner)
    assert part.partition_property is None
    fingerprint = part.fingerprint()
    agent = TravelAgent("ta", ["FL0005", "FL0006"])
    cm = attach_cache_manager(system, agent, mode="weak")

    def script():
        yield cm.start()
        yield cm.kill_image()

    run_all_scripts(system.transport, [script()])
    system.close()
    assert part.partition_property == "Flights"
    # A label only: lineage names hang off the fingerprint, and a
    # second plane over the same partitioner object still infers.
    assert part.fingerprint() == fingerprint
    _db, again = _airline(20, partitioner=part)
    assert again.plane.router.footprint(
        "tb", TravelAgent("tb", ["FL0018"]).properties()
    ) == [3]
    again.close()


# -- placement is durable state --------------------------------------------------


def _durable_plane(wal_root, store):
    return ShardedFleccSystem(
        SimTransport(SimKernel(), default_latency=1.0), store,
        extract_from_object, merge_into_object, n_shards=4,
        extract_cells=extract_cells,
        durability=DurabilitySpec(wal_root, fsync="always", snapshot_every=0),
    )


def test_whole_plane_restarts_from_its_manifest_after_the_component_grew(
    wal_root,
):
    """Every shard dies, the primary copy is wiped, and the component
    has *more* keys than when the plane first placed them: a rebuild
    must route by the manifest, not by a fresh cut, or every lineage on
    disk would be looked for under another shard's name."""
    cells = [f"k{i:02d}" for i in range(16)]
    store = Store({c: 0 for c in cells})
    system = _durable_plane(wal_root, store)
    agent = Agent()
    cm = system.add_view("v", agent, props_for(cells + ["k16", "k17"]),
                         extract_from_view, merge_into_view, mode="weak")

    def script():
        yield cm.start()
        yield cm.init_image()
        for i, c in enumerate(cells):
            agent.local[c] = 100 + i
        # New keys past the last split point: the component grows.
        agent.local["k16"] = 116
        agent.local["k17"] = 117
        yield cm.push_image()

    run_all_scripts(system.transport, [script()])
    # The split points as the first data request re-cut them.
    splits = list(system.plane.partitioner.splits)
    acked = dict(store.cells)
    assert acked["k17"] == 117 and acked["k00"] == 100
    for shard in range(4):
        system.plane.crash_shard(shard)
    store.cells.clear()
    # A grown component the placement must *not* be re-derived from.
    store.cells.update({f"a{i}": -1 for i in range(40)})

    rebuilt = _durable_plane(wal_root, store)
    assert rebuilt.plane.partitioner.splits == splits
    assert rebuilt.plane.router.recut is None  # placed: never re-cut
    assert [dm.durability.spec.name for dm in rebuilt.plane.shards] == \
        [dm.durability.spec.name for dm in system.plane.shards]
    assert {k: v for k, v in store.cells.items() if k.startswith("k")} == acked
    rebuilt.close()
