"""Unit tests for repro.core.conflicts (static map + dynConfl interplay)."""

from repro.core import Property, PropertySet, StaticSharingMap
from repro.core.conflicts import ConflictPolicy, dyn_confl
from repro.core.static_map import Sharing


def _props(**kw):
    registry = {
        k: PropertySet([Property("Flights", v)]) if v is not None else None
        for k, v in kw.items()
    }
    return registry.get


def test_dyn_confl_basic():
    p = PropertySet([Property("Flights", (0, 10))])
    q = PropertySet([Property("Flights", (10, 20))])
    r = PropertySet([Property("Flights", (11, 20))])
    assert dyn_confl(p, q) == 1
    assert dyn_confl(p, r) == 0


def test_static_shared_short_circuits_dynamic():
    m = StaticSharingMap(["a", "b"])
    m.set("a", "b", Sharing.SHARED)
    # Properties would say "no conflict", but the static map wins.
    pol = ConflictPolicy(m, _props(a=(0, 1), b=(5, 6)))
    assert pol.conflicts("a", "b")
    assert pol.static_hits == 1 and pol.dynamic_evals == 0


def test_static_none_short_circuits_dynamic():
    m = StaticSharingMap(["a", "b"])
    m.set("a", "b", Sharing.NONE)
    pol = ConflictPolicy(m, _props(a=(0, 10), b=(0, 10)))
    assert not pol.conflicts("a", "b")
    assert pol.dynamic_evals == 0


def test_dynamic_cell_falls_through_to_properties():
    m = StaticSharingMap(["a", "b"])  # default DYNAMIC
    pol = ConflictPolicy(m, _props(a=(0, 10), b=(5, 6)))
    assert pol.conflicts("a", "b")
    assert pol.dynamic_evals == 1


def test_no_static_map_uses_properties():
    pol = ConflictPolicy(None, _props(a=(0, 10), b=(20, 30)))
    assert not pol.conflicts("a", "b")


def test_unknown_views_fall_back_to_dynamic():
    m = StaticSharingMap(["a"])  # 'b' never added
    pol = ConflictPolicy(m, _props(a=(0, 10), b=(5, 6)))
    assert pol.conflicts("a", "b")


def test_missing_properties_assume_worst_case():
    # Paper §4.1: without application information the protocol must
    # assume all views conflict.
    pol = ConflictPolicy(None, _props(a=(0, 1), b=None))
    assert pol.conflicts("a", "b")


def test_view_never_conflicts_with_itself():
    pol = ConflictPolicy(None, _props(a=(0, 10)))
    assert not pol.conflicts("a", "a")


def test_conflict_set_excludes_self_and_nonconflicting():
    properties_of = _props(a=(0, 10), b=(5, 15), c=(20, 30))
    pol = ConflictPolicy(None, properties_of)
    for vid in ("a", "b", "c"):
        pol.register_view(vid, properties_of(vid))
    assert pol.conflict_set("a") == ["b"]


def test_conflicts_symmetric():
    pol = ConflictPolicy(None, _props(a=(0, 10), b=(5, 15)))
    assert pol.conflicts("a", "b") == pol.conflicts("b", "a")
