"""Property tests for the default placement and the verified footprint.

Placement (``KeyRangePartitioner``): every key has exactly one owner,
owners are monotone in key order, and nothing about the routing depends
on the process.  The footprint cut (``from_footprints``) moves each
equal-count split to the nearest position no footprint straddles, and
keeps it where there is none.  Footprint (``ShardRouter.footprint``):
whatever the property set looks like, the shards a view is routed to
contain the owners of every key its slice holds — it may
over-approximate, never under.  Placement is durable state: a rebuilt
plane reads its split points back instead of cutting new ones.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscreteSet, Interval, Property, PropertySet
from repro.core.durability import DurabilitySpec
from repro.core.sharding import KeyRangePartitioner, ShardedDirectoryPlane
from repro.errors import ReproError
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
from repro.testing import Store, extract_from_object, merge_into_object

key = st.text(alphabet="abcdexyz019_", min_size=1, max_size=4)
keys = st.lists(key, min_size=1, max_size=40, unique=True)
n_shards = st.integers(min_value=1, max_value=8)


# -- placement -----------------------------------------------------------------


@given(keys, n_shards, st.lists(key | st.integers() | st.floats(allow_nan=False)))
def test_shard_of_is_total_and_monotone(population, n, probes):
    part = KeyRangePartitioner.from_keys(population, n)
    assert part.n_shards == n
    for probe in probes:
        assert 0 <= part.shard_of(probe) < n
    ordered = sorted(population + [p for p in probes if isinstance(p, str)])
    owners = [part.shard_of(k) for k in ordered]
    assert owners == sorted(owners)


@given(keys, n_shards)
def test_ranges_are_equal_count_to_within_one_key(population, n):
    part = KeyRangePartitioner.from_keys(population, n)
    sizes = [0] * n
    for k in population:
        sizes[part.shard_of(k)] += 1
    assert max(sizes) - min(sizes) <= 1


def test_shard_of_does_not_depend_on_the_process():
    """Same owners in a subprocess with a different PYTHONHASHSEED: the
    cut sorts strings and bisects, and never touches ``hash()``."""
    population = [f"FL{i:04d}" for i in range(37)] + ["zeta", "alpha", "Ω"]
    probe = population + ["", "FL", "FL0018x", "~"]
    code = (
        "import json, sys\n"
        "from repro.core.sharding import KeyRangePartitioner\n"
        "population, probe = json.load(sys.stdin)\n"
        "p = KeyRangePartitioner.from_keys(population, 5)\n"
        "print(json.dumps([p.splits, p.fingerprint(),"
        " [p.shard_of(k) for k in probe]]))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps([population, probe]),
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=src),
    )
    here = KeyRangePartitioner.from_keys(population, 5)
    assert json.loads(out.stdout) == [
        here.splits, here.fingerprint(), [here.shard_of(k) for k in probe],
    ]


def _spans(footprints):
    return [(min(fp), max(fp)) for fp in footprints if fp]


def _straddles(split, spans):
    """A footprint has keys on both sides of ``split``: some below it,
    some at or above it (``shard_of`` bisects right)."""
    return any(lo < split <= hi for lo, hi in spans)


def _nearest_allowed_cut(population, footprints, n):
    """The rule, by brute force over every position."""
    ordered = sorted(set(population))
    spans = _spans(footprints)
    allowed = [p for p in range(len(ordered))
               if not _straddles(ordered[p], spans)]
    if not allowed:
        return KeyRangePartitioner.from_keys(population, n).splits
    cut = []
    for i in range(1, n):
        e = i * len(ordered) // n
        cut.append(ordered[min(allowed, key=lambda p: (abs(p - e), p))])
    return cut


@st.composite
def populations_and_footprints(draw):
    """Keys plus footprints drawn from them, padded with values that are
    not keys (some sort below every key, so no position may be left):
    footprints overlap, nest and chain, so they often cannot all be
    separated."""
    population = draw(keys)
    value = st.sampled_from(population) | key | st.sampled_from(["", "0"])
    footprints = draw(st.lists(
        st.lists(value, min_size=1, max_size=6).map(set), max_size=8,
    ))
    return population, footprints, draw(n_shards)


@settings(deadline=None, max_examples=300)
@given(populations_and_footprints())
def test_footprint_cut_splits_where_no_footprint_straddles(case):
    population, footprints, n = case
    part = KeyRangePartitioner.from_footprints(population, footprints, n)
    assert part.n_shards == n
    ordered = sorted(population)
    owners = [part.shard_of(k) for k in ordered]
    assert all(0 <= o < n for o in owners)
    assert owners == sorted(owners)
    spans = _spans(footprints)
    if any(not _straddles(k, spans) for k in ordered):
        assert not any(_straddles(s, spans) for s in part.splits)
    else:
        assert part.splits == KeyRangePartitioner.from_keys(population, n).splits
    assert part.splits == _nearest_allowed_cut(population, footprints, n)


def test_footprint_cut_of_the_bench_shapes():
    """Positions among the sorted flights, 4 shards: only the 64-flight
    groups move (to [0, 64, 64]); runs of 5 already sit between splits."""
    def cut(views, group, slice_len):
        flights = [f"FL{i:04d}" for i in range(views // group * slice_len)]
        slices = [flights[v // group * slice_len:][:slice_len]
                  for v in range(views)]
        splits = KeyRangePartitioner.from_footprints(flights, slices, 4).splits
        return [flights.index(s) for s in splits]

    assert cut(8, 4, 64) == [0, 64, 64]          # weak_readmix
    assert cut(8, 1, 5) == [10, 20, 30]          # disjoint_push
    assert cut(8, 2, 5) == [5, 10, 15]           # hot_pairs
    assert cut(256, 2, 5) == [160, 320, 480]     # open_zipf


def test_footprint_cut_keeps_equal_count_when_nothing_is_allowed():
    population = ["b", "c", "d", "e"]
    # Reaches below the first key: every position is straddled.
    part = KeyRangePartitioner.from_footprints(population, [{"a", "e"}], 2)
    assert part.splits == ["d"]
    # Without the footprint nothing moves either.
    assert KeyRangePartitioner.from_footprints(population, [], 3).splits == \
        KeyRangePartitioner.from_keys(population, 3).splits


def test_footprint_cut_does_not_depend_on_the_process():
    """Same cut in a subprocess with another PYTHONHASHSEED: footprints
    arrive as sets, whose iteration order is salted per process."""
    population = [f"FL{i:04d}" for i in range(50)] + ["zeta", "Ω"]
    footprints = [[f"FL{i:04d}" for i in range(lo, lo + 12)]
                  for lo in (3, 11, 27, 30)] + [["zeta", "FL0049"]]
    code = (
        "import json, sys\n"
        "from repro.core.sharding import KeyRangePartitioner\n"
        "population, footprints = json.load(sys.stdin)\n"
        "p = KeyRangePartitioner.from_footprints(\n"
        "    population, [set(f) for f in footprints], 5)\n"
        "print(json.dumps([p.splits, p.fingerprint()]))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps([population, footprints]),
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONHASHSEED="977", PYTHONPATH=src),
    )
    here = KeyRangePartitioner.from_footprints(
        population, [set(f) for f in footprints], 5
    )
    assert here.splits != KeyRangePartitioner.from_keys(population, 5).splits
    assert json.loads(out.stdout) == [here.splits, here.fingerprint()]


def test_placement_needs_keys_and_sorted_splits():
    with pytest.raises(ReproError):
        KeyRangePartitioner.from_keys([], 4)
    with pytest.raises(ReproError):
        KeyRangePartitioner(["m", "c"])
    assert KeyRangePartitioner.from_keys([], 1).shard_of("anything") == 0


# -- footprint -------------------------------------------------------------------


@st.composite
def property_sets(draw, population):
    """DiscreteSet over (a subset of) the keys, optionally padded with
    values that are not keys; an Interval; a DiscreteSet whose values
    are not keys at all; combinations; nothing."""
    props = []
    kind = draw(st.sampled_from(["discrete", "interval", "none"]))
    if kind == "discrete":
        values = set(draw(st.lists(st.sampled_from(population), min_size=1)))
        values |= set(draw(st.lists(key | st.integers(), max_size=3)))
        props.append(Property("cells", DiscreteSet(values)))
    elif kind == "interval":
        props.append(Property("cells", Interval(0, 100)))
    if draw(st.booleans()):
        props.append(Property("region", DiscreteSet(
            draw(st.lists(st.sampled_from(["eu", "us", "ap"]), min_size=1))
        )))
    return PropertySet(props)


@settings(deadline=None, max_examples=60)
@given(st.data(), keys, st.integers(min_value=2, max_value=6))
def test_footprint_contains_the_owners_of_every_slice_key(data, population, n):
    store = Store({k: 0 for k in population})
    plane = ShardedDirectoryPlane(
        SimTransport(SimKernel()), store, extract_from_object,
        merge_into_object, n_shards=n,
    )
    try:
        props = data.draw(property_sets(population))
        footprint = plane.router.footprint("v", props)
        slice_keys = extract_from_object(store, props).keys()
        owners = {plane.partitioner.shard_of(k) for k in slice_keys}
        assert owners <= set(footprint)
        assert footprint == sorted(set(footprint))
        if plane.router.counters["whole_plane_views"]:
            assert footprint == list(range(n))
    finally:
        plane.close()


# -- the manifest ------------------------------------------------------------------


def _durable(root, store, n):
    return ShardedDirectoryPlane(
        SimTransport(SimKernel()), store, extract_from_object,
        merge_into_object, n_shards=n,
        durability=DurabilitySpec(root, fsync="off"),
    )


@settings(deadline=None, max_examples=20)
@given(keys, keys, st.integers(min_value=2, max_value=5))
def test_manifest_round_trip_survives_component_growth(population, grown, n):
    with tempfile.TemporaryDirectory() as root:
        store = Store({k: 0 for k in population})
        first = _durable(root, store, n)
        splits = list(first.partitioner.splits)
        fingerprint = first.partitioner.fingerprint()
        lineages = [dm.durability.spec.name for dm in first.shards]
        first.close()

        store.cells.update({k: 1 for k in grown})
        again = _durable(root, store, n)
        assert again.partitioner.splits == splits
        assert again.partitioner.fingerprint() == fingerprint
        assert [dm.durability.spec.name for dm in again.shards] == lineages
        again.close()

        with pytest.raises(ReproError, match="placed for"):
            _durable(root, store, n + 1)
        with pytest.raises(ReproError, match="placed for"):
            _durable(root, store, 1)


def test_damaged_manifest_fails_the_build(wal_root):
    store = Store({f"k{i}": 0 for i in range(8)})
    _durable(wal_root, store, 4).close()
    manifest = DurabilitySpec(wal_root).placement_path
    good = manifest.read_text()

    manifest.write_text(good.replace('"k2"', '"k3"'))
    with pytest.raises(ReproError, match="fingerprint"):
        _durable(wal_root, store, 4)
    manifest.write_text(good[: len(good) // 2])
    with pytest.raises(ReproError, match="unreadable"):
        _durable(wal_root, store, 4)
    manifest.write_text(good)
    _durable(wal_root, store, 4).close()
