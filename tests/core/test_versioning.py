"""Unit + property tests for repro.core.versioning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import VersionVector


class TestBasics:
    def test_default_zero(self):
        v = VersionVector()
        assert v.get("anything") == 0 and len(v) == 0

    def test_bump(self):
        v = VersionVector()
        assert v.bump("k") == 1
        assert v.bump("k") == 2
        assert v.bump("k", by=3) == 5

    def test_bump_requires_positive(self):
        with pytest.raises(ValueError):
            VersionVector().bump("k", by=0)

    def test_negative_version_rejected(self):
        with pytest.raises(ValueError):
            VersionVector({"k": -1})
        with pytest.raises(ValueError):
            VersionVector().set("k", -2)

    def test_equality_ignores_explicit_zeros(self):
        assert VersionVector({"a": 0}) == VersionVector()

    def test_copy_is_independent(self):
        v = VersionVector({"a": 1})
        c = v.copy()
        c.bump("a")
        assert v.get("a") == 1 and c.get("a") == 2

    def test_items_sorted(self):
        v = VersionVector({"b": 2, "a": 1})
        assert list(v.items()) == [("a", 1), ("b", 2)]


class TestOrderingAndMerge:
    def test_merge_max(self):
        a = VersionVector({"x": 3, "y": 1})
        b = VersionVector({"y": 5, "z": 2})
        m = a.merge_max(b)
        assert m == VersionVector({"x": 3, "y": 5, "z": 2})

    def test_dominates(self):
        a = VersionVector({"x": 3, "y": 5})
        b = VersionVector({"x": 2})
        assert a.dominates(b) and not b.dominates(a)
        assert a.dominates(a)

    def test_unseen_updates(self):
        master = VersionVector({"x": 5, "y": 3, "z": 1})
        seen = VersionVector({"x": 3, "y": 3})
        assert master.unseen_updates(seen) == 2 + 0 + 1

    def test_unseen_updates_restricted_keys(self):
        master = VersionVector({"x": 5, "y": 3})
        seen = VersionVector()
        assert master.unseen_updates(seen, keys=["x"]) == 5

    def test_unseen_never_negative(self):
        master = VersionVector({"x": 1})
        seen = VersionVector({"x": 9})
        assert master.unseen_updates(seen) == 0

    def test_jsonable_roundtrip(self):
        v = VersionVector({"a": 1, "b": 2})
        assert VersionVector.from_jsonable(v.to_jsonable()) == v


# -- property-based -----------------------------------------------------------

vectors = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=20),
    max_size=4,
).map(VersionVector)


@given(vectors, vectors)
def test_merge_max_commutative(a, b):
    assert a.merge_max(b) == b.merge_max(a)


@given(vectors, vectors)
def test_merge_dominates_both(a, b):
    m = a.merge_max(b)
    assert m.dominates(a) and m.dominates(b)


@given(vectors)
def test_merge_idempotent(a):
    assert a.merge_max(a) == a


@given(vectors, vectors)
def test_unseen_zero_iff_dominates(a, b):
    assert (a.unseen_updates(b) == 0) == b.dominates(a)


@given(vectors, vectors, vectors)
def test_merge_associative(a, b, c):
    assert a.merge_max(b).merge_max(c) == a.merge_max(b.merge_max(c))


@given(vectors, st.sampled_from(["a", "b", "c", "d"]))
def test_bump_strictly_increases_unseen_for_laggards(v, key):
    seen = v.copy()
    before = v.unseen_updates(seen)
    v2 = v.copy()
    v2.bump(key)
    assert v2.unseen_updates(seen) == before + 1


@given(vectors)
def test_copy_is_equal_and_independent(a):
    c = a.copy()
    assert c == a and dict(c.items()) == dict(a.items())
    c.bump("z")
    assert a.get("z") == 0 and c != a
