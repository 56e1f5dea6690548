"""Conflict detection: static map first, dynamic property intersection second.

Implements the decision procedure of paper §4.1: the static sharing map
answers for statically-known pairs (``0``/``1``); a ``-1`` cell defers
to the *dynamic set of data properties* — ``dynConfl`` (Definition 1).

Hot-path note (paper §4.1, Fig. 4): the static map exists precisely to
short-circuit repeated ``dynConfl`` computation.  :class:`ConflictPolicy`
adds an incremental :class:`ConflictIndex` (property-key inverted index:
property name / discrete value → posting list of views) that supplies a
view's conflict *candidates* in O(degree) instead of scanning the
registry, and one memo: each view's sorted conflict set, keyed by the
policy generation (advanced by every membership or property change the
directory reports through :meth:`ConflictPolicy.register_view` /
:meth:`ConflictPolicy.unregister_view` /
:meth:`ConflictPolicy.update_properties`) and the static map's
``version`` (advanced by every map edit).  Pairwise answers are not
memoized.

Candidate lists from the index are a *superset* of the true conflict
set (postings over-approximate domain overlap; static SHARED partners
are unioned in); every candidate is confirmed with
:meth:`ConflictPolicy.conflicts`, so answers are identical to brute
force over the full registry —
:func:`repro.testing.brute_force_conflict_set` is that reference, and
``experiments/dm_profile.py`` freezes the message census and end state
the pre-index brute-force directory produced.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.property_set import PropertySet
from repro.core.static_map import Sharing, StaticSharingMap

_EMPTY_SET: frozenset = frozenset()


def dyn_confl(p: PropertySet, q: PropertySet) -> int:
    """Definition 1: ``1`` if the property-set intersection is non-empty."""
    return 1 if p.conflicts_with(q) else 0


class ConflictIndex:
    """Property-key inverted index: posting lists of views per key.

    A view with properties posts under each property *name*, and — for
    finite domains — under each ``(name, value)`` pair; properties with
    unenumerable domains (intervals) post under the name only and are
    additionally tracked in a per-name "unenumerable" list that every
    finite-domain query on that name must also consult.  A view with
    unknown (``None``) properties conflicts with everyone (paper §4.1
    worst case) and lands in the universal list.

    ``candidates_for`` returns every view whose postings *could*
    overlap the given properties — a superset of the views whose
    ``dynConfl`` is true, suitable for confirmation by the policy's
    pairwise check.
    """

    __slots__ = ("_by_name", "_by_value", "_unenum", "_universal", "_props")

    def __init__(self) -> None:
        self._by_name: Dict[str, Set[str]] = {}
        self._by_value: Dict[Tuple[str, object], Set[str]] = {}
        self._unenum: Dict[str, Set[str]] = {}
        self._universal: Set[str] = set()
        self._props: Dict[str, Optional[PropertySet]] = {}

    def __len__(self) -> int:
        return len(self._props)

    def __contains__(self, view_id: str) -> bool:
        return view_id in self._props

    def properties_of(self, view_id: str) -> Optional[PropertySet]:
        return self._props.get(view_id)

    def add(self, view_id: str, properties: Optional[PropertySet]) -> None:
        """(Re)index a view under its property keys."""
        if view_id in self._props:
            self.remove(view_id)
        self._props[view_id] = properties
        if properties is None:
            self._universal.add(view_id)
            return
        for name, keys in properties.index_keys():
            self._by_name.setdefault(name, set()).add(view_id)
            if keys is None:
                self._unenum.setdefault(name, set()).add(view_id)
            else:
                for v in keys:
                    self._by_value.setdefault((name, v), set()).add(view_id)

    def remove(self, view_id: str) -> None:
        """Drop a view's postings (no-op when it was never indexed)."""
        if view_id not in self._props:
            return
        properties = self._props.pop(view_id)
        if properties is None:
            self._universal.discard(view_id)
            return
        for name, keys in properties.index_keys():
            self._discard(self._by_name, name, view_id)
            if keys is None:
                self._discard(self._unenum, name, view_id)
            else:
                for v in keys:
                    self._discard(self._by_value, (name, v), view_id)

    @staticmethod
    def _discard(postings: Dict, key, view_id: str) -> None:
        views = postings.get(key)
        if views is not None:
            views.discard(view_id)
            if not views:
                del postings[key]

    def candidates_for(self, properties: Optional[PropertySet]) -> Set[str]:
        """Views whose postings overlap ``properties`` (a conflict superset)."""
        if properties is None:
            return set(self._props)
        out: Set[str] = set(self._universal)
        for name, keys in properties.index_keys():
            if keys is None:
                # Unenumerable domain: anyone on this name may overlap.
                out |= self._by_name.get(name, _EMPTY_SET)
            else:
                unenum = self._unenum.get(name)
                if unenum:
                    out |= unenum
                by_value = self._by_value
                for v in keys:
                    views = by_value.get((name, v))
                    if views:
                        out |= views
        return out

    def candidates(self, view_id: str) -> Set[str]:
        """Conflict candidates of a registered view (excluding itself)."""
        out = self.candidates_for(self._props.get(view_id))
        out.discard(view_id)
        return out

    def clear(self) -> None:
        self._by_name.clear()
        self._by_value.clear()
        self._unenum.clear()
        self._universal.clear()
        self._props.clear()


class ConflictPolicy:
    """Answers "do these two views share data?" for the directory manager.

    ``properties_of`` supplies the *current* property set of a view — the
    directory passes its live registry so run-time property changes
    (paper: "views ... can dynamically change the sets of shared data")
    are honored without re-wiring.

    The owner of the live registry reports changes per view through
    :meth:`register_view` / :meth:`unregister_view` /
    :meth:`update_properties` (and :meth:`reset_index` on recovery);
    each keeps the index current and advances the policy generation.
    A static-map edit advances the map's own ``version``, so it needs
    no call here.
    """

    # Always true.  Kept only because benchmarks/e2e/stack.py
    # (``Stack.knobs``) reads ``dm.policy.indexed`` and sits under the
    # benchmark's frozen paths; goes when that line does.
    indexed = True

    def __init__(
        self,
        static_map: Optional[StaticSharingMap],
        properties_of: Callable[[str], Optional[PropertySet]],
    ) -> None:
        self.static_map = static_map
        self.properties_of = properties_of
        # Instrumentation for the ablation benches: every pairwise
        # decision lands in static_hits or dynamic_evals; conflict-set
        # memo hits in cache_hits; index_candidates counts the views the
        # index handed over for confirmation.
        self.static_hits = 0
        self.dynamic_evals = 0
        self.cache_hits = 0
        self.index_candidates = 0
        self.index = ConflictIndex()
        # view id -> ((generation, static-map version), sorted set).
        self._generation = 0
        self._sets: Dict[str, Tuple[Tuple[int, int], List[str]]] = {}

    def _static_partners(self, view_id: str) -> List[str]:
        """Views statically marked SHARED with ``view_id``.

        A SHARED cell makes the pair conflict regardless of property
        overlap, so these partners must be in the candidate set even
        when the inverted index sees no key overlap.  (DYNAMIC cells
        defer to ``dynConfl`` and are therefore covered by the index.)
        """
        sm = self.static_map
        if sm is None or not sm.has_view(view_id):
            return []
        return sm.statically_shared_with(view_id)

    # -- membership -------------------------------------------------------
    def register_view(
        self, view_id: str, properties: Optional[PropertySet]
    ) -> None:
        """A view joined (or re-joined): index it."""
        self.index.add(view_id, properties)
        self._generation += 1

    def unregister_view(self, view_id: str) -> None:
        """A view left: drop its postings and its memo entry."""
        self.index.remove(view_id)
        self._sets.pop(view_id, None)
        self._generation += 1

    def update_properties(
        self, view_id: str, properties: Optional[PropertySet]
    ) -> None:
        """A view's properties changed: re-index it."""
        self.index.add(view_id, properties)
        self._generation += 1

    def reset_index(
        self, props_by_view: Dict[str, Optional[PropertySet]]
    ) -> None:
        """Rebuild the index from scratch (directory recovery path)."""
        self.index.clear()
        self._sets.clear()
        for vid, props in props_by_view.items():
            self.index.add(vid, props)
        self._generation += 1

    # -- queries --------------------------------------------------------
    def conflicts(self, a: str, b: str) -> bool:
        """The static cell when it is known, else ``dynConfl``."""
        if a == b:
            return False
        if self.static_map is not None:
            cell = self.static_map.get_if_present(a, b)
            if cell is not None and cell is not Sharing.DYNAMIC:
                self.static_hits += 1
                return cell is Sharing.SHARED
        self.dynamic_evals += 1
        p = self.properties_of(a)
        q = self.properties_of(b)
        if p is None or q is None:
            # Without property information Flecc must assume the worst
            # case (paper §4.1: "all views conflict").
            return True
        return p.conflicts_with(q)

    def conflict_set(self, view_id: str) -> List[str]:
        """Every registered view that conflicts with ``view_id``.

        Candidates come from the inverted index (plus static-SHARED
        partners) and are confirmed pairwise; the result is name-sorted
        and a private copy.  It is memoized until the next membership
        or property change (the generation) or static-map edit (its
        version).
        """
        sm = self.static_map
        key = (self._generation, sm.version if sm is not None else 0)
        hit = self._sets.get(view_id)
        if hit is not None and hit[0] == key:
            self.cache_hits += 1
            return list(hit[1])
        cand = self.index.candidates(view_id)
        statics = self._static_partners(view_id)
        if statics:
            cand.update(statics)
            cand.discard(view_id)
        self.index_candidates += len(cand)
        result = sorted(c for c in cand if self.conflicts(view_id, c))
        self._sets[view_id] = (key, result)
        return list(result)
