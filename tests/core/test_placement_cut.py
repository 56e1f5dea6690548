"""The footprint cut: a plane that places keys itself re-cuts its split
points once, at the first data request, where no registered view
straddles them.

Layouts are the benchmark's: ``views`` travel agents in groups of
``group`` sharing a run of ``slice_len`` flights, 4 shards.  Only the
64-flight groups of the read-mostly layout straddle an equal-count
split; there the cut moves, re-homes every view with one UNREGISTER,
and the pulls stop fanning out.  Everywhere else nothing moves.  The
cut is durable state: a rebuilt plane reads it back and never cuts
again, unless it was rebuilt before the cut was taken.
"""

import json
import logging
from collections import Counter

import pytest

from repro.apps.airline.flights import (
    extract_cells_from_database,
    extract_from_database,
    merge_into_database,
    seat_conflict_resolver,
)
from repro.apps.airline.travel_agent import TravelAgent, attach_cache_manager
from repro.apps.airline.workload import generate_flight_database
from repro.core import messages as M
from repro.core.durability import (
    DurabilitySpec,
    _load_snapshot,
    load_placement,
    store_placement,
)
from repro.core.sharding import KeyRangePartitioner, ShardedFleccSystem
from repro.core.system import run_all_scripts
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


def _flights(n):
    return [f"FL{i:04d}" for i in range(n)]


def _airline(views, group, slice_len, mode="weak"):
    """A 4-shard plane with no partitioner and the layout's agents
    attached (not yet started)."""
    n_flights = views // group * slice_len
    db = generate_flight_database(n_flights, seed=0, capacity_range=(100, 100))
    system = ShardedFleccSystem(
        SimTransport(SimKernel(), default_latency=1.0), db,
        extract_from_database, merge_into_database, n_shards=4,
        conflict_resolver=seat_conflict_resolver,
        extract_cells=extract_cells_from_database,
    )
    flights = _flights(n_flights)
    cms = [
        attach_cache_manager(
            system, TravelAgent(f"ta{v:04d}",
                                flights[v // group * slice_len:][:slice_len]),
            mode=mode,
        )
        for v in range(views)
    ]
    return system, flights, cms


def _start_then_pull(system, cms):
    """Every view registers first; then each takes an image and pulls.
    Returns what the data requests added to the plane's counters and to
    the wire's messages by type (registrations on the provisional cut
    may fan out)."""
    def start():
        for cm in cms:
            yield cm.start()

    def pull():
        for cm in cms:
            yield cm.init_image()
            yield cm.pull_image()

    def snap():
        return (Counter(system.plane.counters),
                Counter(system.plane.router.stats.by_type))

    run_all_scripts(system.transport, [start()])
    counters, by_type = snap()
    run_all_scripts(system.transport, [pull()])
    counters_after, by_type_after = snap()
    return counters_after - counters, by_type_after - by_type


def test_weak_readmix_layout_moves_its_splits_and_serves_without_fanout(caplog):
    system, flights, cms = _airline(views=8, group=4, slice_len=64)
    part = system.plane.partitioner
    assert part.splits == ["FL0032", "FL0064", "FL0096"]  # provisional
    with caplog.at_level(logging.INFO, logger="repro.core.sharding"):
        served, sent = _start_then_pull(system, cms)
    system.plane.check_invariants()
    system.close()
    # [32, 64, 96] becomes [0, 64, 64]: each group on one shard.
    assert part.splits == ["FL0000", "FL0064", "FL0064"]
    assert served["router_fanouts"] == 0
    assert served["cross_shard_rounds"] == 0
    assert served["shard_local_rounds"] == 16
    assert served["views_rehomed"] == 8
    # Every view lost one shard, and gained none.
    assert sent[M.UNREGISTER] == 8 and sent[M.REGISTER] == 0
    said = [r for r in caplog.records if r.name == "repro.core.sharding"]
    assert [r.levelname for r in said] == ["INFO"]
    message = said[0].getMessage()
    assert "'FL0032', 'FL0064', 'FL0096'" in message
    assert "'FL0000', 'FL0064', 'FL0064'" in message
    assert "8 view(s) re-homed" in message and "ta0000" in message


@pytest.mark.parametrize("views, group, slice_len", [
    (8, 1, 5),      # disjoint_push
    (8, 2, 5),      # hot_pairs
    (256, 2, 5),    # open_zipf
])
def test_aligned_layouts_keep_the_equal_count_cut(views, group, slice_len):
    system, flights, cms = _airline(views, group, slice_len, mode="strong")
    equal = KeyRangePartitioner.from_keys(flights, 4).splits
    assert system.plane.partitioner.splits == equal
    served, sent = _start_then_pull(system, cms)
    counters = system.plane.counters
    system.close()
    assert system.plane.partitioner.splits == equal
    assert system.plane.router.recut is None
    assert counters["views_rehomed"] == 0
    assert counters["router_fanouts"] == 0
    assert sent[M.UNREGISTER] == sent[M.REGISTER] == 0


def test_a_view_registered_after_the_cut_is_placed_as_it_comes():
    """A run straddling a split after the cut spans two shards, and the
    cut does not run again."""
    system, flights, cms = _airline(views=8, group=4, slice_len=64)
    _start_then_pull(system, cms)
    part = system.plane.partitioner
    placed = list(part.splits)
    before = system.plane.counters["router_fanouts"]
    late = attach_cache_manager(
        system, TravelAgent("late", flights[60:68]), mode="weak"
    )

    def script():
        yield late.start()
        yield late.init_image()
        yield late.pull_image()

    run_all_scripts(system.transport, [script()])
    counters = system.plane.counters
    route = system.plane.router._views["late"]
    system.close()
    assert route.shards == [1, 3]   # FL0060 on shard 1, FL0064 on shard 3
    # Its REGISTER, INIT_REQ and PULL_REQ each fan out to both.
    assert counters["router_fanouts"] - before == 3
    assert counters["views_rehomed"] == 8
    assert part.splits == placed


# -- durability around the cut -----------------------------------------------

CELLS = [f"k{i:02d}" for i in range(16)]
GROUPS = {"a": CELLS[:8], "b": CELLS[:8], "c": CELLS[8:], "d": CELLS[8:]}
# Equal-count [4, 8, 12] straddles both 8-cell groups; the cut is [0, 8, 8].
PROVISIONAL, PLACED = ["k04", "k08", "k12"], ["k00", "k08", "k08"]


def _durable(wal_root, store, **view_options):
    system = ShardedFleccSystem(
        SimTransport(SimKernel(), default_latency=1.0), store,
        extract_from_object, merge_into_object, n_shards=4,
        extract_cells=extract_cells,
        durability=DurabilitySpec(wal_root, fsync="always", snapshot_every=0),
    )
    agents = {vid: Agent() for vid in GROUPS}
    cms = {
        vid: system.add_view(vid, agents[vid], props_for(cells),
                             extract_from_view, merge_into_view, mode="weak",
                             **view_options)
        for vid, cells in GROUPS.items()
    }
    return system, agents, cms


def _run(system, *steps):
    def script():
        for step in steps:
            yield step()

    run_all_scripts(system.transport, [script()])


def _start_all(system, cms):
    _run(system, *[cm.start for cm in cms.values()])


def _recover_all(system, cms):
    """The views' processes restarted with the plane: each re-registers
    (idempotently) and takes a full image, all at once."""
    def recover(cm):
        yield cm.recover()

    for cm in cms.values():
        cm.crash()
    run_all_scripts(system.transport, [recover(cm) for cm in cms.values()])


def _manifest(wal_root):
    return load_placement(DurabilitySpec(wal_root))


def _wipe(store, plane, shard):
    """What a killed shard process loses besides its WAL tail: the cells
    of its partition."""
    owns = plane._owns(shard)
    for key in [k for k in store.cells if owns(k)]:
        del store.cells[key]


def test_shard_restart_before_the_cut_recovers_every_registration(wal_root):
    store = Store({c: i for i, c in enumerate(CELLS)})
    initial = dict(store.cells)
    system, agents, cms = _durable(wal_root, store)
    _start_all(system, cms)
    plane = system.plane
    assert plane.partitioner.splits == PROVISIONAL
    before = [dm.registered_views() for dm in plane.shards]
    assert before == [["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"]]
    for shard in range(4):
        plane.crash_shard(shard)
        _wipe(store, plane, shard)
        plane.restart_shard(shard)
    assert [dm.registered_views() for dm in plane.shards] == before
    # The boot snapshots brought every partition back.
    assert dict(store.cells) == initial

    registered = plane.counters["router_fanouts"]
    _run(system, cms["a"].init_image, cms["c"].init_image)
    counters = plane.counters
    assert plane.partitioner.splits == PLACED
    assert counters["views_rehomed"] == 4
    assert counters["router_fanouts"] == registered
    assert [dm.registered_views() for dm in plane.shards] == \
        [[], ["a", "b"], [], ["c", "d"]]
    assert agents["a"].local == {c: initial[c] for c in CELLS[:8]}
    assert agents["c"].local == {c: initial[c] for c in CELLS[8:]}
    system.close()


def test_a_shard_down_at_the_first_data_request_keeps_the_equal_count_cut(
    wal_root,
):
    """Shard 0 holds k00-k03, which the cut would hand to shard 1; with
    it down they are not in memory to hand over, so nothing moves."""
    store = Store({c: i for i, c in enumerate(CELLS)})
    initial = dict(store.cells)
    # The request to the down shard is retransmitted until it is back.
    system, agents, cms = _durable(wal_root, store, request_timeout=4.0,
                                   max_retries=4)
    _start_all(system, cms)
    plane = system.plane
    plane.crash_shard(0)
    _wipe(store, plane, 0)
    system.transport.schedule(5.0, lambda: plane.restart_shard(0))
    _run(system, cms["a"].init_image, cms["c"].init_image)
    assert plane.partitioner.splits == PROVISIONAL
    assert plane.counters["views_rehomed"] == 0
    manifest = _manifest(wal_root)
    assert manifest["placed"] is True and manifest["splits"] == PROVISIONAL
    assert dict(store.cells) == initial
    assert agents["a"].local == {c: initial[c] for c in CELLS[:8]}
    system.close()


def test_whole_plane_rebuild_after_the_cut_reads_it_back(wal_root):
    store = Store({c: i for i, c in enumerate(CELLS)})
    system, agents, cms = _durable(wal_root, store)
    lineages = [dm.durability.spec.name for dm in system.plane.shards]
    assert _manifest(wal_root)["placed"] is False
    assert _manifest(wal_root)["lineages"] == lineages

    def write():
        agents["c"].local["k09"] = 900
        return cms["c"].push_image()

    _start_all(system, cms)
    _run(system, cms["c"].init_image, write)
    assert store.cells["k09"] == 900
    manifest = _manifest(wal_root)
    assert manifest["placed"] is True
    assert manifest["splits"] == PLACED
    # The lineages keep the names they were opened under.
    assert manifest["lineages"] == lineages
    assert manifest["fingerprint"] == KeyRangePartitioner(PLACED).fingerprint()
    acked = dict(store.cells)
    for shard in range(4):
        system.plane.crash_shard(shard)
    store.cells.clear()

    rebuilt, agents, cms = _durable(wal_root, store)
    plane = rebuilt.plane
    assert plane.partitioner.splits == PLACED
    assert [dm.durability.spec.name for dm in plane.shards] == lineages
    assert dict(store.cells) == acked            # the commit, and the rest
    assert plane.router.recut is None
    _recover_all(rebuilt, cms)
    _run(rebuilt, cms["c"].pull_image)
    assert plane.partitioner.splits == PLACED
    assert plane.counters["views_rehomed"] == 0
    assert plane.counters["router_fanouts"] == 0
    assert agents["c"].local["k09"] == 900
    rebuilt.close()


def test_rebuild_from_a_provisional_manifest_cuts_at_its_first_data_request(
    wal_root,
):
    store = Store({c: 0 for c in CELLS})
    system, _agents, cms = _durable(wal_root, store)
    lineages = [dm.durability.spec.name for dm in system.plane.shards]
    _start_all(system, cms)
    system.close()   # registered, never served
    assert _manifest(wal_root)["placed"] is False

    rebuilt, agents, cms = _durable(wal_root, store)
    plane = rebuilt.plane
    assert plane.partitioner.splits == PROVISIONAL
    assert [dm.durability.spec.name for dm in plane.shards] == lineages
    assert plane.router.recut is not None
    _recover_all(rebuilt, cms)
    assert plane.partitioner.splits == PLACED
    assert plane.counters["views_rehomed"] == 4
    # Only the four re-registrations, on the provisional cut, fanned out.
    assert plane.counters["router_fanouts"] == 4
    _run(rebuilt, cms["d"].pull_image)
    assert plane.counters["router_fanouts"] == 4
    assert json.loads(DurabilitySpec(wal_root).placement_path.read_text()) == {
        "splits": PLACED,
        "fingerprint": KeyRangePartitioner(PLACED).fingerprint(),
        "placed": True,
        "lineages": lineages,
    }
    assert sorted(agents["d"].local) == CELLS[8:]
    rebuilt.close()


def test_shards_that_gain_keys_at_the_cut_snapshot_them(wal_root):
    """Every shard snapshots its provisional partition at boot; the cut
    gives shards 1 and 3 four keys each, and they snapshot again before
    anything is served.  A shard that lost keys keeps them in its boot
    snapshot, and its recovery leaves them to their new owner, even
    after the new owner committed one."""
    store = Store({c: i for i, c in enumerate(CELLS)})
    system, agents, cms = _durable(wal_root, store)
    _start_all(system, cms)
    plane = system.plane

    def written():
        return [dm.durability.counters["snapshots_written"]
                for dm in plane.shards]

    def newest_images():
        images = []
        for dm in plane.shards:
            snap = max(dm.durability.spec.directory.glob("snap-*.bin"),
                       key=lambda p: int(p.stem.split("-")[1]))
            images.append(sorted(_load_snapshot(snap)["image"].keys()))
        return images

    assert written() == [1, 1, 1, 1]
    assert newest_images() == [CELLS[0:4], CELLS[4:8], CELLS[8:12], CELLS[12:]]

    def write():
        agents["c"].local["k09"] = 900
        return cms["c"].push_image()

    _run(system, cms["a"].init_image, cms["c"].init_image, write)
    assert plane.partitioner.splits == PLACED
    assert written() == [1, 2, 1, 2]
    assert newest_images() == [CELLS[0:4], CELLS[:8], CELLS[8:12], CELLS[8:]]
    registered = [dm.registered_views() for dm in plane.shards]
    assert registered == [[], ["a", "b"], [], ["c", "d"]]
    acked = dict(store.cells)
    assert acked["k09"] == 900
    for shard in range(4):
        plane.crash_shard(shard)
    store.cells.clear()
    # Shard 2's boot snapshot holds k09 = 9: restarted after shard 3,
    # it would overwrite the commit if recovery replayed it.
    for shard in reversed(range(4)):
        plane.restart_shard(shard)
    assert dict(store.cells) == acked
    assert [dm.registered_views() for dm in plane.shards] == registered
    system.close()


def test_a_manifest_written_before_the_cut_existed_counts_as_placed(wal_root):
    """No ``placed`` and no ``lineages``: the split points are final and
    the lineages are named by their fingerprint, as they always were."""
    spec = DurabilitySpec(wal_root)
    part = KeyRangePartitioner(PROVISIONAL)
    store_placement(spec, {"splits": PROVISIONAL,
                           "fingerprint": part.fingerprint()})
    store = Store({c: 0 for c in CELLS})
    system, _agents, cms = _durable(wal_root, store)
    plane = system.plane
    assert plane.router.recut is None
    assert [dm.durability.spec.name for dm in plane.shards] == [
        spec.for_shard(i, part.fingerprint()).name for i in range(4)
    ]
    _start_all(system, cms)
    _run(system, cms["a"].init_image)
    assert plane.partitioner.splits == PROVISIONAL   # straddled, but placed
    assert plane.counters["views_rehomed"] == 0
    assert "placed" not in _manifest(wal_root)
    system.close()
