"""Delta synchronization: version algebra, image equivalence, protocol A/B.

The load-bearing invariant everywhere: a full pull and a base-plus-delta
pull must land the receiver in the *same* state — delta synchronization
changes what crosses the wire, never what the protocol computes.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.airline import Flight, FlightDatabase, build_airline_system
from repro.core import Mode, VersionVector
from repro.core import messages as M
from repro.core.image import DeltaImage, ObjectImage
from repro.core.system import run_all_scripts
from repro.errors import ProtocolError
from repro.net import Message
from repro.net.codec import roundtrip

from tests.core.harness import ProtocolFixture, props_for


# -- version-vector delta algebra --------------------------------------------

vectors = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=20),
    max_size=4,
).map(VersionVector)


@given(vectors, vectors)
def test_diff_merge_roundtrip(a, base):
    """diff carries exactly what base is missing from a."""
    assert base.merge_max(a.diff(base)) == base.merge_max(a)


@given(vectors, vectors)
def test_diff_empty_iff_base_dominates(a, base):
    assert (len(a.diff(base)) == 0) == base.dominates(a)


@given(vectors, vectors)
def test_diff_entries_strictly_newer(a, base):
    d = a.diff(base)
    for key, n in d.items():
        assert n == a.get(key) > base.get(key)
    for key, n in a.items():
        if n > base.get(key):
            assert d.get(key) == n


@given(vectors, vectors, st.lists(st.sampled_from(["a", "b", "c", "e"])))
def test_ahead_of_keeps_the_given_keys_strictly_ahead(a, base, keys):
    assert a.ahead_of(base, keys) == [k for k in keys if a.get(k) > base.get(k)]


# -- image delta equivalence --------------------------------------------------

def _image(d):
    img = ObjectImage()
    for k, (value, version) in d.items():
        img.put(k, value, version=version)
    return img


images = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.tuples(st.integers(0, 99), st.integers(1, 10)),
    max_size=4,
).map(_image)


@given(images, images)
def test_full_pull_equals_base_plus_delta(base, full):
    """base ⊕ restrict_newer-delta ≡ base ⊕ full, under merge_newer."""
    delta = full.restrict_newer(base.versions)
    via_delta = base.copy()
    via_delta.merge_newer(delta)
    via_full = base.copy()
    via_full.merge_newer(full)
    assert via_delta == via_full


@given(images, images)
def test_restrict_newer_keeps_exactly_the_newer_cells(base, full):
    delta = full.restrict_newer(base.versions)
    for k in full.keys():
        newer = full.versions.get(k) > base.versions.get(k)
        assert (k in delta) == newer
        if newer:
            assert delta.get(k) == full.get(k)
            assert delta.versions.get(k) == full.versions.get(k)


def test_delta_image_codec_roundtrip():
    img = ObjectImage({"a": 1, "b": [2, 3]})
    img.versions.set("a", 4)
    img.versions.set("b", 7)
    delta = DeltaImage(img, base_seq=9, as_of=13, complete=False, slice_size=6)
    m2 = roundtrip(Message("PULL_DATA", "dir", "cm", {"image": delta}))
    assert m2.payload["image"] == delta
    assert m2.payload["image"].slice_size == 6


# -- protocol: delta on vs off must be indistinguishable ---------------------

_CELLS = {f"k{i:02d}": i for i in range(12)}


def _writer_reader_run(delta):
    fx = ProtocolFixture(store_cells=dict(_CELLS), delta=delta)
    keys = sorted(_CELLS)
    cm_w, aw = fx.add_agent("w", keys)
    cm_r, ar = fx.add_agent("r", keys)

    def writer():
        yield cm_w.start()
        yield cm_w.init_image()
        for i in range(3):
            yield ("sleep", 10.0)
            yield cm_w.start_use_image()
            aw.local[keys[i]] = 1000 + i
            aw.local[keys[-1]] = 2000 + i
            cm_w.end_use_image()
            yield cm_w.push_image()

    def reader():
        yield cm_r.start()
        yield cm_r.init_image()
        yield ("sleep", 15.0)
        for _ in range(3):
            yield cm_r.pull_image()
            yield ("sleep", 10.0)

    fx.run_scripts(writer(), reader())
    return fx, ar, cm_r


def test_delta_and_full_runs_are_identical():
    """Same workload, delta on vs off: byte-identical end state and the
    exact same logical message counts (the paper's Fig-4 economy)."""
    fx_d, ar_d, _ = _writer_reader_run(delta=True)
    fx_f, ar_f, _ = _writer_reader_run(delta=False)
    assert fx_d.store.cells == fx_f.store.cells
    assert ar_d.local == ar_f.local
    assert dict(fx_d.stats.by_type) == dict(fx_f.stats.by_type)


def test_delta_counters_and_image_accounting():
    fx, ar, cm_r = _writer_reader_run(delta=True)
    d = fx.system.directory
    assert d.counters["delta_serves"] >= 2
    assert cm_r.counters["delta_pulls"] >= 2
    assert cm_r.counters["delta_fallbacks"] == 0
    # Stats classified the serves: both complete snapshots (the two
    # inits) and deltas, with unchanged cells kept off the wire.
    assert fx.stats.images_full >= 2
    assert fx.stats.images_delta >= 2
    assert fx.stats.cells_skipped > 0
    # The reader still converged on the committed state.
    assert ar.local == fx.store.cells


def test_full_run_never_builds_deltas():
    fx, _, cm_r = _writer_reader_run(delta=False)
    assert fx.system.directory.counters["delta_serves"] == 0
    assert cm_r.counters["delta_pulls"] == 0
    assert fx.stats.images_delta == 0


def test_property_update_falls_back_to_complete_serve():
    """Changing the slice voids the delta base on both ends; the next
    pull must ship a complete snapshot of the new slice."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "z": 9}, delta=True)
    cm, agent = fx.add_agent("v", ["a", "b"])

    def setup():
        yield cm.start()
        yield cm.init_image()
        yield cm.pull_image()

    fx.run_scripts(setup())
    full_before = cm.counters["full_pulls"]

    def retarget():
        yield cm.update_properties(props_for(["a", "z"]))
        yield cm.pull_image()

    fx.run_scripts(retarget())
    assert cm.counters["full_pulls"] == full_before + 1
    assert agent.local["z"] == 9


def test_lost_base_triggers_one_shot_full_fallback():
    """A delta whose base the CM no longer holds is rejected and the CM
    re-pulls with an explicit full request — exactly once."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2}, delta=True)
    cm, agent = fx.add_agent("v", ["a", "b"])
    cm2, agent2 = fx.add_agent("w", ["a", "b"])

    def setup(c):
        yield c.start()
        yield c.init_image()

    fx.run_scripts(setup(cm), setup(cm2))

    def write():
        yield cm2.start_use_image()
        agent2.local["a"] = 77
        cm2.end_use_image()
        yield cm2.push_image()

    fx.run_scripts(write())

    def degraded_pull():
        # Simulate losing the accumulated base while keeping the cursor:
        # the directory will serve a delta the CM cannot apply.
        cm._synced = None
        yield cm.pull_image()

    fx.run_scripts(degraded_pull())
    assert cm.counters["delta_fallbacks"] == 1
    assert agent.local["a"] == 77


def _resolver_run(delta):
    fx = ProtocolFixture(
        store_cells={"a": 1},
        delta=delta,
        conflict_resolver=lambda key, current, pushed: current + pushed,
    )
    cm1, a1 = fx.add_agent("v1", ["a"])
    cm2, a2 = fx.add_agent("v2", ["a"])

    def setup(c):
        yield c.start()
        yield c.init_image()

    fx.run_scripts(setup(cm1), setup(cm2))

    def write(c, ag, value):
        yield c.start_use_image()
        ag.local["a"] = value
        c.end_use_image()
        yield c.push_image()

    # v2 commits first; v1 then pushes a conflicting write based on the
    # pre-v2 state — the resolver rewrites it at the directory.
    fx.run_scripts(write(cm2, a2, 5))
    fx.run_scripts(write(cm1, a1, 7))

    def pull(c):
        yield c.pull_image()

    fx.run_scripts(pull(cm1))
    fx.run_scripts(pull(cm1))  # a second pull must not regress the view
    return fx, a1


def test_resolver_rewritten_push_converges_under_delta():
    """Regression: when the conflict resolver rewrites a pushed cell,
    the pusher's seen-cursor must stay behind the new master version so
    the next delta pull ships the resolved value back — otherwise the
    view re-applies its own pre-resolution write forever."""
    fx_d, a1_d = _resolver_run(delta=True)
    assert fx_d.store.cells["a"] == 5 + 7
    assert a1_d.local["a"] == 5 + 7
    # Byte-identical end state with the full-image baseline.
    fx_f, a1_f = _resolver_run(delta=False)
    assert fx_f.store.cells == fx_d.store.cells
    assert a1_f.local == a1_d.local


def test_filtered_extract_degrades_to_full_serve():
    """Regression: a delta extract that fails to materialize every
    changed cell (stale slice index, or a filtering extract_cells hook)
    must degrade to a full serve instead of stamping the view as having
    seen updates it was never sent."""
    from repro.testing import extract_cells as base_extract_cells

    def filtering(store, props, keys):
        img = base_extract_cells(store, props, keys)
        img.cells.pop("b", None)  # never materializes cell "b"
        return img

    fx = ProtocolFixture(
        store_cells={"a": 1, "b": 2}, delta=True, extract_cells=filtering
    )
    cm_r, ar = fx.add_agent("r", ["a", "b"])
    cm_w, aw = fx.add_agent("w", ["a", "b"])

    def setup(c):
        yield c.start()
        yield c.init_image()

    fx.run_scripts(setup(cm_r), setup(cm_w))

    def write():
        yield cm_w.start_use_image()
        aw.local["a"] = 11
        aw.local["b"] = 22
        cm_w.end_use_image()
        yield cm_w.push_image()

    fx.run_scripts(write())

    def pull():
        yield cm_r.pull_image()

    fx.run_scripts(pull())
    d = fx.system.directory
    assert d.counters["delta_degraded"] >= 1
    # Both updates arrived — nothing was silently dropped.
    assert ar.local == {"a": 11, "b": 22}
    assert ar.local == fx.store.cells


def test_acquire_delta_fallback_is_regranted_without_a_round():
    """A GRANT delta the CM cannot apply triggers a full re-ACQUIRE;
    the directory serves the retry directly to the current exclusive
    holder instead of running a second conflict round."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2}, delta=True)
    cm, agent = fx.add_agent("v", ["a", "b"], mode="strong")
    cm2, _ = fx.add_agent("w", ["a", "b"])

    def setup(c):
        yield c.start()
        yield c.init_image()

    fx.run_scripts(setup(cm), setup(cm2))
    d = fx.system.directory

    def degraded_acquire():
        cm._synced = None  # lose the accumulated base, keep the cursor
        yield cm.start_use_image()
        cm.end_use_image()

    fx.run_scripts(degraded_acquire())
    assert cm.counters["delta_fallbacks"] == 1
    assert d.counters["regrants"] == 1
    assert cm.owner
    d.check_invariants()
    assert agent.local == fx.store.cells


def test_slice_index_hit_and_invalidation():
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "z": 9}, delta=True)
    cm, _ = fx.add_agent("v", ["a", "b"])

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    d = fx.system.directory
    builds = d.counters["slice_index_builds"]
    hits = d.counters["slice_index_hits"]
    assert d.slice_keys_of("v") == ["a", "b"]
    assert d.slice_keys_of("v") == ["a", "b"]
    assert d.counters["slice_index_builds"] == builds  # cached
    assert d.counters["slice_index_hits"] == hits + 2

    def retarget():
        yield cm.update_properties(props_for(["a", "z"]))

    fx.run_scripts(retarget())
    assert sorted(d.slice_keys_of("v")) == ["a", "z"]


def _refused_push(delta):
    """A weak view on {a: 1, b: 2} writes a = 666 and pushes; the merge
    hook raises on 666, so the directory answers the PUSH with ERROR."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2}, delta=delta)
    heal = fx.system.directory.merge_into_object

    def poisoned(store, image, props):
        if 666 in image.cells.values():
            raise RuntimeError("merge hook exploded")
        heal(store, image, props)

    fx.system.directory.merge_into_object = poisoned
    cm, agent = fx.add_agent("v", ["a", "b"])

    def write_and_push():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] = 666
        cm.end_use_image()
        try:
            yield cm.push_image()
        except ProtocolError as exc:
            return str(exc)

    [error] = fx.run_scripts(write_and_push())
    assert "merge hook exploded" in error
    assert fx.store.cells == {"a": 1, "b": 2}
    return fx, cm, agent, heal


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
def test_refused_push_stays_dirty_and_converges(delta):
    """A push the directory refuses is undone, not forgotten: its cells
    are dirty again (a retry commits them), and the delta base that had
    absorbed them is dropped, so a pull instead of a retry lands the view
    on the primary copy — never on the refused value."""
    fx, cm, agent, heal = _refused_push(delta)
    assert cm.has_dirty_data()
    fx.system.directory.merge_into_object = heal

    def retry():
        return (yield cm.push_image())

    assert fx.run_scripts(retry()) == [1]
    assert fx.store.cells == {"a": 666, "b": 2}

    fx, cm, agent, _ = _refused_push(delta)

    def pull():
        yield cm.pull_image()

    fx.run_scripts(pull())
    assert agent.local == fx.store.cells == {"a": 1, "b": 2}


# -- applying a served image: the merge hook gets only the cells that differ --

def _spy_on_merges(cm):
    """Record the keys of every image ``cm``'s merge hook receives."""
    merges = []
    hook = cm.merge_into_view

    def spy(view, image, props):
        merges.append(sorted(image.keys()))
        hook(view, image, props)

    cm.merge_into_view = spy
    return merges


def _started(fx, *cms):
    def start(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(*(start(cm) for cm in cms))


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
def test_pull_merges_only_the_cells_that_differ(delta):
    """Weak views ``w`` and ``r`` on {a: 1, b: 2, c: 3}: ``w`` pushes
    a = 10, ``r`` writes c = 99 without pushing and then pulls.  ``r``
    lands where a whole-slice apply would (its unpushed write reverted),
    while its merge hook receives only ``a`` and ``c``."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "c": 3}, delta=delta)
    cm_w, aw = fx.add_agent("w", ["a", "b", "c"])
    cm_r, ar = fx.add_agent("r", ["a", "b", "c"])
    merges = _spy_on_merges(cm_r)
    _started(fx, cm_w, cm_r)

    def write_and_push():
        yield cm_w.start_use_image()
        aw.local["a"] = 10
        cm_w.end_use_image()
        yield cm_w.push_image()

    def write_and_pull():
        yield cm_r.start_use_image()
        ar.local["c"] = 99
        cm_r.end_use_image()
        yield cm_r.pull_image()

    fx.run_scripts(write_and_push())
    fx.run_scripts(write_and_pull())
    assert ar.local == cm_r._base.cells == {"a": 10, "b": 2, "c": 3}
    assert merges == [["a", "b", "c"], ["a", "c"]]
    assert cm_r.counters["delta_pulls"] == (1 if delta else 0)


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
def test_pull_with_nothing_changed_calls_no_merge_hook(delta):
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2}, delta=delta)
    cm, agent = fx.add_agent("v", ["a", "b"])
    merges = _spy_on_merges(cm)
    _started(fx, cm)

    def pull():
        yield cm.pull_image()
        yield cm.pull_image()

    fx.run_scripts(pull())
    assert merges == [["a", "b"]]
    assert agent.local == cm._base.cells == {"a": 1, "b": 2}


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
def test_base_is_a_fresh_extract_after_every_kind_of_serve(delta):
    """The base an apply builds from one extract is the one a fresh
    extract reads, with the airline's ``Flight`` hooks: after an INIT, a
    (delta) pull, a complete pull and a GRANT."""
    flights = [f"FL{i:04d}" for i in range(1, 4)]
    airline = build_airline_system(
        FlightDatabase(
            [Flight(n, "NYC", "SFO", 100, 100, 250.0) for n in flights]
        ),
        delta=delta,
    )
    seller, cm_s = airline.add_travel_agent("seller", flights)
    reader, cm = airline.add_travel_agent("reader", flights)

    def run(*scripts):
        run_all_scripts(airline.transport, list(scripts))

    def fresh():
        assert cm._base == cm.extract_from_view(reader, cm.properties)
        assert {n: reader.local[n].to_cell() for n in flights} == {
            n: airline.database.flights[n].to_cell() for n in flights
        }

    def start(c):
        yield c.start()
        yield c.init_image()

    def sell(number):
        yield cm_s.start_use_image()
        seller.confirm_tickets(1, number)
        cm_s.end_use_image()
        yield cm_s.push_image()

    def pull():
        yield cm.pull_image()

    def use():
        yield cm.set_mode(Mode.STRONG)
        yield cm.start_use_image()
        cm.end_use_image()

    run(start(cm_s), start(cm))
    fresh()
    run(sell(flights[0]))
    run(pull())
    fresh()
    assert cm.counters["delta_pulls"] == (1 if delta else 0)
    run(sell(flights[1]))
    cm._drop_delta_base()
    full_pulls = cm.counters["full_pulls"]
    run(pull())
    fresh()
    assert cm.counters["full_pulls"] == full_pulls + (1 if delta else 0)
    run(sell(flights[2]))
    run(use())
    fresh()
    assert cm.counters["acquires"] == 1
