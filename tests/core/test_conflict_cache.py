"""Conflict-set memoization: hits, invalidation, and directory wiring.

The memo must be invisible except for speed: every answer after a
membership, property or static-map change matches what an uncached
policy would compute.  The directory-level tests exercise the paper's
dynamic-reconfiguration story — "views ... can dynamically change the
sets of shared data" — against the cached index.
"""

import pytest

from repro.core import Mode, Property, PropertySet, StaticSharingMap
from repro.core.conflicts import ConflictPolicy
from repro.core.static_map import Sharing
from repro.errors import ProtocolError
from tests.core.harness import ProtocolFixture, props_for


def _policy(registry, static_map=None):
    pol = ConflictPolicy(static_map, registry.get)
    for vid, props in registry.items():
        pol.register_view(vid, props)
    return pol


def _interval_props(**kw):
    return {
        k: PropertySet([Property("cells", v)]) if v is not None else None
        for k, v in kw.items()
    }


# -- pure ConflictPolicy cache behaviour --------------------------------


def test_repeated_query_hits_cache():
    pol = _policy(_interval_props(a=(0, 10), b=(5, 15)))
    for _ in range(3):
        assert pol.conflict_set("a") == ["b"]
    assert pol.dynamic_evals == 1
    assert pol.cache_hits == 2


def test_invalidate_forces_recompute():
    registry = _interval_props(a=(0, 10), b=(5, 15))
    pol = _policy(registry)
    assert pol.conflict_set("a") == ["b"]
    # b moves away: the reported property change re-keys the memo.
    registry["b"] = PropertySet([Property("cells", (100, 110))])
    pol.update_properties("b", registry["b"])
    assert pol.conflict_set("a") == []
    assert pol.dynamic_evals == 2


def test_pairwise_answers_are_not_memoized():
    registry = _interval_props(a=(0, 10), b=(5, 15))
    pol = _policy(registry)
    assert pol.conflicts("a", "b")
    # conflicts() reads the live registry on every call.
    registry["b"] = PropertySet([Property("cells", (100, 110))])
    assert not pol.conflicts("b", "a")
    assert pol.cache_hits == 0


def test_conflict_set_caches_whole_result():
    pol = _policy(_interval_props(a=(0, 10), b=(5, 15), c=(100, 110)))
    assert pol.conflict_set("a") == ["b"]
    evals = pol.dynamic_evals
    assert pol.conflict_set("a") == ["b"]
    assert pol.dynamic_evals == evals  # second call answered from cache
    assert pol.cache_hits >= 1


def test_conflict_set_result_is_a_private_copy():
    pol = _policy(_interval_props(a=(0, 10), b=(5, 15)))
    first = pol.conflict_set("a")
    first.append("tampered")
    assert pol.conflict_set("a") == ["b"]


def test_static_map_cell_change_honored_without_a_call():
    m = StaticSharingMap(["a", "b"])
    m.set("a", "b", Sharing.NONE)
    pol = _policy(_interval_props(a=(0, 10), b=(0, 10)), static_map=m)
    assert pol.conflict_set("a") == []
    m.set("a", "b", Sharing.SHARED)
    assert pol.conflict_set("a") == ["b"]
    assert pol.static_hits == 2  # both computations answered statically


def test_counters_count_every_evaluation():
    pol = _policy(_interval_props(a=(0, 10), b=(5, 15)))
    for _ in range(5):
        pol.conflicts("a", "b")
    assert pol.dynamic_evals == 5
    assert pol.static_hits == 0
    assert pol.cache_hits == 0


# -- directory-level invalidation ---------------------------------------


def test_reregistration_with_changed_properties_refreshes_conflicts():
    """A view unregisters and re-registers with a *different* slice; the
    directory must observe the new conflict relationship, not the cached
    one from the first life."""
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "z": 9})
    cm1, _ = fx.add_agent("v1", ["a"])
    cm2, _ = fx.add_agent("v2", ["z"])

    def setup(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup(cm1), setup(cm2))
    directory = fx.system.directory
    assert directory.conflict_set_of("v1") == []
    # Warm the cache again, then retire v2 entirely.
    assert directory.conflict_set_of("v2") == []

    def retire(cm):
        yield cm.kill_image()

    fx.run_scripts(retire(cm2))
    assert directory.conflict_set_of("v1") == []

    # v2 returns with a slice that now overlaps v1.  (The system keeps
    # the dead cache manager's slot; free it so the id can be reused.)
    del fx.system.cache_managers["v2"]
    cm2b, _ = fx.add_agent("v2", ["a", "z"])
    fx.run_scripts(setup(cm2b))
    assert directory.conflict_set_of("v1") == ["v2"]
    assert directory.conflict_set_of("v2") == ["v1"]


def test_prop_update_invalidates_cached_conflicts_both_directions():
    fx = ProtocolFixture(store_cells={"a": 1, "z": 2})
    cm1, _ = fx.add_agent("v1", ["a"])
    cm2, _ = fx.add_agent("v2", ["a"])

    def setup(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup(cm1), setup(cm2))
    directory = fx.system.directory
    assert directory.conflict_set_of("v1") == ["v2"]

    def retarget():
        yield cm2.update_properties(props_for(["z"]))

    fx.run_scripts(retarget())
    assert directory.conflict_set_of("v1") == []
    assert directory.conflict_set_of("v2") == []


def test_strong_mode_invariant_after_property_change():
    """STRONG invariant (one-copy serializability) keeps holding when a
    conflicting view appears through a run-time property change."""
    fx = ProtocolFixture(store_cells={"a": 1, "z": 2})
    cm1, agent1 = fx.add_agent("v1", ["a"], mode=Mode.STRONG)
    cm2, _ = fx.add_agent("v2", ["z"])

    def setup(cm):
        yield cm.start()
        yield cm.init_image()

    def register_only(cm):
        yield cm.start()

    # v2 registers but stays inactive (no data yet).
    fx.run_scripts(setup(cm1), register_only(cm2))
    directory = fx.system.directory

    def own_and_retarget():
        # v1 takes exclusive ownership of its slice...
        yield cm1.start_use_image()
        agent1.local["a"] += 1
        cm1.end_use_image()
        # ...and while v1 is exclusive, v2 starts overlapping it.
        yield cm2.update_properties(props_for(["a", "z"]))

    fx.run_scripts(own_and_retarget())
    assert directory.conflict_set_of("v1") == ["v2"]
    # The invariant check runs against the refreshed conflict index.
    directory.check_invariants()

    def v2_pulls():
        # v2 pulling must first revoke the conflicting strong owner.
        yield cm2.pull_image()

    fx.run_scripts(v2_pulls())
    directory.check_invariants()
    assert not directory.views["v1"].exclusive

    # Forcing a stale view of the world would break the invariant:
    # verify check_invariants still has teeth against the live index.
    directory._set_activity(directory.views["v1"], True, True)
    directory._set_activity(directory.views["v2"], True, False)
    with pytest.raises(ProtocolError):
        directory.check_invariants()


def test_static_map_change_is_seen_at_once():
    """A cell written on the directory's live static map changes the
    next conflict set with no call into the directory or its policy."""
    fx = ProtocolFixture(
        store_cells={"a": 1, "z": 2}, static_map=StaticSharingMap()
    )
    cma, _ = fx.add_agent("va", ["a"])
    cmb, _ = fx.add_agent("vb", ["z"])

    def setup(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup(cma), setup(cmb))
    directory = fx.system.directory
    assert directory.conflict_set_of("va") == []
    directory.static_map.set("va", "vb", Sharing.SHARED)
    assert directory.conflict_set_of("va") == ["vb"]
