"""The static sharing map (paper §4.1).

"Static relationships are specified into a static map ... a symmetric
matrix, where the number of rows and columns equal the number of views.
If two views v_i and v_j share data, then the elements (i, j) and
(j, i) ... are set to 1.  Otherwise ... 0.  The static matrix indicates
[a dynamically changing relationship] by setting the cell entry to -1."

The map is created once when Flecc initializes; views may be appended as
they register (growing the matrix), defaulting new cells to ``DYNAMIC``
so unknown pairs fall back to the property computation.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import PropertyError


class Sharing(IntEnum):
    """Cell values of the static map."""

    NONE = 0      # statically known: never share
    SHARED = 1    # statically known: always share
    DYNAMIC = -1  # decide at run time via dynConfl


class StaticSharingMap:
    """Symmetric view-by-view sharing matrix with named rows."""

    def __init__(self, view_ids: Iterable[str] = (), default: Sharing = Sharing.DYNAMIC):
        self._index: Dict[str, int] = {}
        self._default = Sharing(default)
        self._m = np.full((0, 0), int(self._default), dtype=np.int8)
        # Advanced by every mutation; the conflict policy keys its
        # memo on it, so an edit needs no call into the policy.
        self.version = 0
        for v in view_ids:
            self.add_view(v)

    # -- structure ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def view_ids(self) -> List[str]:
        return sorted(self._index, key=self._index.__getitem__)

    def has_view(self, view_id: str) -> bool:
        return view_id in self._index

    def add_view(self, view_id: str) -> None:
        """Append a row/column for a newly registered view."""
        if view_id in self._index:
            raise PropertyError(f"view already in static map: {view_id}")
        n = len(self._index)
        self._index[view_id] = n
        grown = np.full((n + 1, n + 1), int(self._default), dtype=np.int8)
        grown[:n, :n] = self._m
        grown[n, n] = int(Sharing.NONE)  # a view never "shares" with itself
        self._m = grown
        self.version += 1

    def remove_view(self, view_id: str) -> None:
        if view_id not in self._index:
            raise PropertyError(f"view not in static map: {view_id}")
        i = self._index.pop(view_id)
        self._m = np.delete(np.delete(self._m, i, axis=0), i, axis=1)
        for v, j in list(self._index.items()):
            if j > i:
                self._index[v] = j - 1
        self.version += 1

    # -- cells ----------------------------------------------------------------
    def set(self, a: str, b: str, value: Sharing) -> None:
        """Set both (a,b) and (b,a) — the matrix stays symmetric."""
        i, j = self._pair(a, b)
        if i == j:
            raise PropertyError(f"cannot set self-sharing for {a}")
        self._m[i, j] = int(value)
        self._m[j, i] = int(value)
        self.version += 1

    def get(self, a: str, b: str) -> Sharing:
        i, j = self._pair(a, b)
        return Sharing(int(self._m[i, j]))

    def get_if_present(self, a: str, b: str) -> "Sharing | None":
        """Cell value, or ``None`` when either view is not in the map.

        Single index resolution per view — the conflict hot path uses
        this instead of ``has_view(a) and has_view(b)`` followed by
        ``get(a, b)``, which looked every view up twice.
        """
        i = self._index.get(a)
        if i is None:
            return None
        j = self._index.get(b)
        if j is None:
            return None
        return Sharing(int(self._m[i, j]))

    def _pair(self, a: str, b: str) -> Tuple[int, int]:
        try:
            return self._index[a], self._index[b]
        except KeyError as exc:
            raise PropertyError(f"view not in static map: {exc.args[0]}") from exc

    # -- invariants / views -------------------------------------------------------
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self._m, self._m.T))

    def statically_shared_with(self, view_id: str) -> List[str]:
        """Views whose cell against ``view_id`` is exactly SHARED."""
        i = self._index[view_id]
        ids = self.view_ids()
        return [v for v in ids if v != view_id and self._m[i, self._index[v]] == 1]

    def dynamic_pairs_of(self, view_id: str) -> List[str]:
        """Views whose relationship with ``view_id`` must be computed."""
        i = self._index[view_id]
        ids = self.view_ids()
        return [v for v in ids if v != view_id and self._m[i, self._index[v]] == -1]

    def as_array(self) -> np.ndarray:
        """Copy of the underlying matrix (row order = registration order)."""
        return self._m.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticSharingMap({self.view_ids()!r})"
