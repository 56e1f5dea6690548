"""Conflict detection: static map first, dynamic property intersection second.

Implements the decision procedure of paper §4.1: the static sharing map
answers for statically-known pairs (``0``/``1``); a ``-1`` cell defers
to the *dynamic set of data properties* — ``dynConfl`` (Definition 1).

Hot-path note (paper §4.1, Fig. 4): the static map exists precisely to
short-circuit repeated ``dynConfl`` computation.  :class:`ConflictPolicy`
extends that idea with an incremental :class:`ConflictIndex`
(property-key inverted index: property name / discrete value → posting
list of views) that supplies a view's conflict *candidates* in
O(degree) instead of scanning the registry, and with memoization whose
invalidation is *scoped*: a membership or property change for view
``v`` evicts only the cached pairs involving ``v`` and bumps a per-view
membership stamp on ``v``'s index neighborhood (plus static-map
partners), so unrelated views keep their cached conflict sets.  The
per-view set cache is keyed by ``(generation, stamp)`` — an O(1) check.
The directory drives this through :meth:`ConflictPolicy.register_view` /
:meth:`ConflictPolicy.unregister_view` /
:meth:`ConflictPolicy.update_properties`.

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

from typing import (
    Callable, Dict, Iterable, List, Optional, Set, Tuple,
)

from repro.core.property_set import PropertySet
from repro.core.static_map import Sharing, StaticSharingMap

# Above this many cached entries, an invalidation clears the dicts
# outright instead of leaving stale-generation tombstones behind.
_CACHE_SWEEP_LIMIT = 65536

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

    Results are memoized per unordered pair and per conflict-set query.
    The owner of the live registry reports changes per view through
    :meth:`register_view` / :meth:`unregister_view` /
    :meth:`update_properties` and invalidation stays scoped to the
    changed view's conflict neighborhood.  :meth:`invalidate` always
    remains a correct (if blunt) fallback.
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
        # Instrumentation for the ablation benches.  static_hits and
        # dynamic_evals count *cache misses only* (i.e. actual decision
        # work); repeated answers land in cache_hits instead.
        self.static_hits = 0
        self.dynamic_evals = 0
        self.cache_hits = 0
        # Candidates the inverted index yielded (vs. full-registry
        # scans), and membership events absorbed without a whole-cache
        # generation bump.
        self.index_candidates = 0
        self.scoped_invalidations = 0
        # Generation-stamped memoization: entries tagged with an older
        # generation than the current one are treated as absent.
        self._generation = 0
        self._pair_cache: Dict[Tuple[str, str], Tuple[int, bool]] = {}
        # Incremental index + scoped-invalidation state.
        self.index = ConflictIndex()
        # Per-view membership stamp: bumped whenever an event touches
        # the view's conflict neighborhood; the per-view set cache is
        # valid only while both the generation and the stamp match.
        self._stamps: Dict[str, int] = {}
        self._set_cache: Dict[str, Tuple[int, int, List[str]]] = {}
        # Reverse index of cached pair keys per view, for O(cached-deg)
        # pair eviction when that view changes.
        self._pairs_of: Dict[str, Set[Tuple[str, str]]] = {}

    # -- cache control --------------------------------------------------
    def invalidate(self) -> None:
        """Drop all memoized answers (membership/property/map change)."""
        self._generation += 1
        if len(self._pair_cache) + len(self._set_cache) > _CACHE_SWEEP_LIMIT:
            self._pair_cache.clear()
            self._set_cache.clear()
            self._pairs_of.clear()

    @property
    def generation(self) -> int:
        """Monotone counter of invalidations (exposed for tests/probes)."""
        return self._generation

    def stamp_of(self, view_id: str) -> int:
        """Membership stamp of a view (exposed for tests/probes)."""
        return self._stamps.get(view_id, 0)

    # -- scoped invalidation ---------------------------------------------
    def _bump(self, views: Iterable[str]) -> None:
        stamps = self._stamps
        for v in views:
            stamps[v] = stamps.get(v, 0) + 1

    def _evict_pairs(self, view_id: str) -> None:
        """Drop every cached pairwise answer involving ``view_id``."""
        pair_cache = self._pair_cache
        for key in self._pairs_of.pop(view_id, _EMPTY_SET):
            pair_cache.pop(key, None)

    def _static_partners(self, view_id: str) -> List[str]:
        """Views statically marked SHARED with ``view_id``.

        A SHARED cell makes the pair conflict regardless of property
        overlap, so these partners must be in the candidate set and
        must be stamp-bumped on register/unregister even when the
        inverted index sees no key overlap.  (DYNAMIC cells defer to
        ``dynConfl`` and are therefore covered by the index itself.)
        """
        sm = self.static_map
        if sm is None or not sm.has_view(view_id):
            return []
        return sm.statically_shared_with(view_id)

    def register_view(
        self, view_id: str, properties: Optional[PropertySet]
    ) -> None:
        """A view joined (or re-joined): index it, invalidate its scope."""
        affected = self.index.candidates_for(properties)
        self.index.add(view_id, properties)
        affected.update(self._static_partners(view_id))
        affected.add(view_id)
        self._evict_pairs(view_id)
        self._set_cache.pop(view_id, None)
        self._bump(affected)
        self.scoped_invalidations += 1

    def unregister_view(self, view_id: str) -> None:
        """A view left: drop its postings, invalidate its scope."""
        affected = self.index.candidates(view_id)
        affected.update(self._static_partners(view_id))
        self.index.remove(view_id)
        self._evict_pairs(view_id)
        self._set_cache.pop(view_id, None)
        self._stamps.pop(view_id, None)
        self._bump(affected)
        self.scoped_invalidations += 1

    def update_properties(
        self, view_id: str, properties: Optional[PropertySet]
    ) -> None:
        """A view's properties changed: re-index, invalidate old+new scope."""
        affected = self.index.candidates(view_id)       # old neighborhood
        self.index.add(view_id, properties)             # drops old postings
        affected |= self.index.candidates(view_id)      # new neighborhood
        affected.add(view_id)
        self._evict_pairs(view_id)
        self._set_cache.pop(view_id, None)
        self._bump(affected)
        self.scoped_invalidations += 1

    def invalidate_pair(self, a: str, b: str) -> None:
        """A static-map cell changed for one pair: scoped eviction."""
        key = (a, b) if a <= b else (b, a)
        self._pair_cache.pop(key, None)
        self._bump((a, b))
        self.scoped_invalidations += 1

    def reset_index(
        self, props_by_view: Dict[str, Optional[PropertySet]]
    ) -> None:
        """Rebuild the index from scratch (directory recovery path)."""
        self.index.clear()
        for vid, props in props_by_view.items():
            self.index.add(vid, props)
        self.invalidate()

    # -- queries --------------------------------------------------------
    def conflicts(self, a: str, b: str) -> bool:
        if a == b:
            return False
        key = (a, b) if a <= b else (b, a)
        hit = self._pair_cache.get(key)
        if hit is not None and hit[0] == self._generation:
            self.cache_hits += 1
            return hit[1]
        result = self._compute(a, b)
        self._pair_cache[key] = (self._generation, result)
        # Reverse index so a later change to either view can evict
        # exactly this entry instead of bumping the generation.
        self._pairs_of.setdefault(a, set()).add(key)
        self._pairs_of.setdefault(b, set()).add(key)
        return result

    def _compute(self, a: str, b: str) -> bool:
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
        and a private copy.  The cache key is the view's ``(generation,
        membership-stamp)`` pair — an O(1) hit between scoped
        invalidations.
        """
        stamp = self._stamps.get(view_id, 0)
        hit = self._set_cache.get(view_id)
        if hit is not None and hit[0] == self._generation and hit[1] == stamp:
            self.cache_hits += 1
            return list(hit[2])
        cand = self.index.candidates(view_id)
        statics = self._static_partners(view_id)
        if statics:
            cand.update(statics)
            cand.discard(view_id)
        self.index_candidates += len(cand)
        result = sorted(c for c in cand if self.conflicts(view_id, c))
        self._set_cache[view_id] = (self._generation, stamp, result)
        return list(result)
