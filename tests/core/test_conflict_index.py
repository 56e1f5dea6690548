"""The incremental conflict index and the conflict-set memo.

Two obligations, tested separately:

1. *Answers*: the inverted index is an internal accelerator — every
   conflict-set answer must equal a brute-force ``dynConfl``
   recomputation over the full registry, under any interleaving of
   register / unregister / property-update / static-map events (the
   hypothesis machine at the bottom).
2. *Memo*: one entry per queried view, dropped when the view
   unregisters, and never served across a membership, property or
   static-map change.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    DiscreteSet,
    Interval,
    Property,
    PropertySet,
    StaticSharingMap,
)
from repro.core.conflicts import ConflictIndex, ConflictPolicy
from repro.core.domains import EMPTY_DOMAIN
from repro.core.static_map import Sharing
from repro.testing import brute_force_conflict_set
from tests.core.harness import ProtocolFixture


def _ps(**domains) -> PropertySet:
    return PropertySet([Property(n, d) for n, d in domains.items()])


# -- Domain.index_keys hooks --------------------------------------------


def test_discrete_domain_enumerates_index_keys():
    assert set(DiscreteSet({1, 2, 3}).index_keys()) == {1, 2, 3}


def test_interval_domain_is_unenumerable():
    assert Interval(0, 10).index_keys() is None


def test_empty_domain_posts_nothing():
    assert list(EMPTY_DOMAIN.index_keys()) == []


def test_property_set_yields_name_key_pairs():
    ps = _ps(color=DiscreteSet({"red"}), range=Interval(0, 5))
    got = {name: keys for name, keys in ps.index_keys()}
    assert set(got["color"]) == {"red"}
    assert got["range"] is None


# -- ConflictIndex unit behaviour ---------------------------------------


def test_candidates_share_discrete_value():
    idx = ConflictIndex()
    idx.add("a", _ps(cells=DiscreteSet({1, 2})))
    idx.add("b", _ps(cells=DiscreteSet({2, 3})))
    idx.add("c", _ps(cells=DiscreteSet({9})))
    assert idx.candidates("a") == {"b"}
    assert idx.candidates("c") == set()


def test_interval_views_are_candidates_by_name():
    idx = ConflictIndex()
    idx.add("a", _ps(cells=DiscreteSet({1})))
    idx.add("i", _ps(cells=Interval(0, 100)))
    # Discrete query must consult the unenumerable postings and vice
    # versa: the index cannot know whether the interval covers 1.
    assert idx.candidates("a") == {"i"}
    assert idx.candidates("i") == {"a"}


def test_unknown_properties_are_universal():
    idx = ConflictIndex()
    idx.add("a", _ps(cells=DiscreteSet({1})))
    idx.add("u", None)
    assert idx.candidates("a") == {"u"}
    assert idx.candidates("u") == {"a"}


def test_disjoint_names_never_candidates():
    idx = ConflictIndex()
    idx.add("a", _ps(color=DiscreteSet({"red"})))
    idx.add("b", _ps(size=DiscreteSet({"red"})))  # same value, other name
    assert idx.candidates("a") == set()


def test_re_add_replaces_old_postings():
    idx = ConflictIndex()
    idx.add("a", _ps(cells=DiscreteSet({1})))
    idx.add("b", _ps(cells=DiscreteSet({1})))
    idx.add("a", _ps(cells=DiscreteSet({7})))  # moved away
    assert idx.candidates("b") == set()
    assert idx.candidates("a") == set()


def test_remove_cleans_empty_postings():
    idx = ConflictIndex()
    idx.add("a", _ps(cells=DiscreteSet({1}), r=Interval(0, 1)))
    idx.remove("a")
    assert len(idx) == 0
    assert idx._by_name == {}
    assert idx._by_value == {}
    assert idx._unenum == {}
    idx.remove("a")  # idempotent


# -- the conflict-set memo ----------------------------------------------


def _indexed_policy(registry, static_map=None):
    pol = ConflictPolicy(static_map, registry.get)
    for vid, props in registry.items():
        pol.register_view(vid, props)
    return pol


def test_indexed_conflict_set_needs_no_candidate_list():
    registry = {
        "a": _ps(cells=DiscreteSet({1, 2})),
        "b": _ps(cells=DiscreteSet({2})),
        "c": _ps(cells=DiscreteSet({9})),
    }
    pol = _indexed_policy(registry)
    assert pol.conflict_set("a") == ["b"]
    # One memo entry per queried view, keyed by the view id alone.
    assert list(pol._sets) == ["a"]


def test_overlapping_register_refreshes_cached_set():
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({1})),
    }
    pol = _indexed_policy(registry)
    assert pol.conflict_set("a") == ["b"]
    assert pol.conflict_set("a") == ["b"]
    hits = pol.cache_hits
    registry["c"] = _ps(cells=DiscreteSet({1}))
    pol.register_view("c", registry["c"])
    assert pol.conflict_set("a") == ["b", "c"]
    assert pol.cache_hits == hits  # recomputed, not served from the memo


def test_unregister_drops_memo_entry():
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({1})),
        "z": _ps(cells=DiscreteSet({99})),
    }
    pol = _indexed_policy(registry)
    assert pol.conflict_set("a") == ["b"]
    assert pol.conflict_set("b") == ["a"]
    assert pol.conflict_set("z") == []
    del registry["b"]
    pol.unregister_view("b")
    # At most one entry per registered view: no sweep needed.
    assert sorted(pol._sets) == ["a", "z"]
    assert pol.conflict_set("a") == []
    assert pol.conflict_set("z") == []


def test_property_update_invalidates_old_and_new_neighborhoods():
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({1})),
        "c": _ps(cells=DiscreteSet({2})),
    }
    pol = _indexed_policy(registry)
    assert pol.conflict_set("b") == ["a"]
    assert pol.conflict_set("c") == []
    registry["b"] = _ps(cells=DiscreteSet({2}))  # b moves from a to c
    pol.update_properties("b", registry["b"])
    assert pol.conflict_set("a") == []
    assert pol.conflict_set("b") == ["c"]
    assert pol.conflict_set("c") == ["b"]


def test_static_shared_partner_without_property_overlap():
    m = StaticSharingMap(["a", "b"])
    m.set("a", "b", Sharing.SHARED)
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({2})),  # no dynamic overlap
    }
    pol = _indexed_policy(registry, static_map=m)
    # The index sees no key overlap; the SHARED cell still conflicts.
    assert pol.conflict_set("a") == ["b"]
    assert pol.conflict_set("b") == ["a"]


def test_static_map_edit_refreshes_cached_set():
    m = StaticSharingMap(["a", "b", "z"])
    m.set("a", "b", Sharing.SHARED)
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({2})),
        "z": _ps(cells=DiscreteSet({3})),
    }
    pol = _indexed_policy(registry, static_map=m)
    assert pol.conflict_set("a") == ["b"]
    version = m.version
    m.set("a", "b", Sharing.NONE)
    assert m.version == version + 1
    assert pol.conflict_set("a") == []


def test_reset_index_rebuilds_from_scratch():
    pol = ConflictPolicy(None, {}.get)
    registry = {
        "a": _ps(cells=DiscreteSet({1})),
        "b": _ps(cells=DiscreteSet({1})),
    }
    pol.properties_of = registry.get
    pol.reset_index(registry)
    assert pol.conflict_set("a") == ["b"]


# -- directory-level: external-writer slice invalidation ----------------


def test_external_writer_slice_invalidation_with_index():
    """The multilevel coordinator's path: cells committed outside
    ``_commit`` must surface through ``invalidate_slice_index`` while
    the conflict index keeps serving answers."""
    fx = ProtocolFixture(store_cells={"a": 1})
    cm, _ = fx.add_agent("v1", ["a", "b"])

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    directory = fx.system.directory
    assert directory.slice_keys_of("v1") == ["a"]
    # An external writer (anti-entropy absorb) introduces cell "b".
    fx.store.cells["b"] = 42
    assert directory.slice_keys_of("v1") == ["a"]  # cached: stale
    directory.invalidate_slice_index()
    assert directory.slice_keys_of("v1") == ["a", "b"]
    assert directory.conflict_set_of("v1") == []


# -- hypothesis: churn equivalence vs brute force ------------------------

VIEW_POOL = [f"v{i}" for i in range(6)]

PROPS_POOL = st.sampled_from([
    None,  # unknown properties: conflicts with everyone
    _ps(cells=DiscreteSet({1})),
    _ps(cells=DiscreteSet({1, 2})),
    _ps(cells=DiscreteSet({3})),
    _ps(cells=Interval(0, 2)),
    _ps(cells=Interval(10, 20)),
    _ps(color=DiscreteSet({"red"})),
    _ps(cells=DiscreteSet({2}), color=DiscreteSet({"red"})),
    _ps(cells=EMPTY_DOMAIN),
])


class ConflictChurnMachine(RuleBasedStateMachine):
    """Random churn; the indexed policy must always equal brute force."""

    def __init__(self):
        super().__init__()
        self.static_map = StaticSharingMap()
        self.registry = {}
        self.policy = ConflictPolicy(self.static_map, self.registry.get)

    @rule(view=st.sampled_from(VIEW_POOL), props=PROPS_POOL)
    def register(self, view, props):
        if view in self.registry:
            return
        self.registry[view] = props
        if not self.static_map.has_view(view):
            self.static_map.add_view(view)
        self.policy.register_view(view, props)

    @rule(view=st.sampled_from(VIEW_POOL))
    def unregister(self, view):
        if view not in self.registry:
            return
        self.policy.unregister_view(view)
        del self.registry[view]
        self.static_map.remove_view(view)

    @rule(view=st.sampled_from(VIEW_POOL), props=PROPS_POOL)
    def update_properties(self, view, props):
        if view not in self.registry:
            return
        self.registry[view] = props
        self.policy.update_properties(view, props)

    @rule(
        a=st.sampled_from(VIEW_POOL),
        b=st.sampled_from(VIEW_POOL),
        value=st.sampled_from([Sharing.NONE, Sharing.SHARED, Sharing.DYNAMIC]),
    )
    def set_static_cell(self, a, b, value):
        if a == b or a not in self.registry or b not in self.registry:
            return
        self.static_map.set(a, b, value)

    @rule(a=st.sampled_from(VIEW_POOL), b=st.sampled_from(VIEW_POOL))
    def query_pair(self, a, b):
        # Interleave pairwise reads with the conflict-set queries.
        if a in self.registry and b in self.registry:
            self.policy.conflicts(a, b)

    @invariant()
    def matches_brute_force(self):
        for vid in self.registry:
            assert self.policy.conflict_set(vid) == brute_force_conflict_set(
                vid, self.registry, self.static_map
            ), f"conflict set of {vid} diverged from brute force"


TestConflictChurn = ConflictChurnMachine.TestCase
TestConflictChurn.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
