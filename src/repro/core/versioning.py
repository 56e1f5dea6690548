"""Per-cell version accounting.

The directory manager stamps every committed update to a data cell
(e.g. one flight record) with an increasing version.  A cache manager
remembers the versions it last saw; the difference against the
directory's current vector is the paper's **data quality** metric —
"the number of remote unseen updates to the shared data" (§5.2, Figs 5
and 6).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.net.codec import register_codec_type


class VersionVector:
    """Map of cell key -> monotonically increasing update counter."""

    __slots__ = ("_v",)

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._v: Dict[str, int] = dict(initial or {})
        for k, n in self._v.items():
            if n < 0:
                raise ValueError(f"negative version for {k!r}: {n}")

    # -- basics -----------------------------------------------------------
    def get(self, key: str) -> int:
        return self._v.get(key, 0)

    def bump(self, key: str, by: int = 1) -> int:
        """Record ``by`` new update(s) to ``key``; returns the new version."""
        if by < 1:
            raise ValueError(f"bump must be >= 1, got {by}")
        self._v[key] = self._v.get(key, 0) + by
        return self._v[key]

    def set(self, key: str, version: int) -> None:
        if version < 0:
            raise ValueError(f"negative version: {version}")
        self._v[key] = version

    def keys(self) -> Iterable[str]:
        return self._v.keys()

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._v.items()))

    def copy(self) -> "VersionVector":
        # A copy of a valid vector is valid: skip __init__'s per-entry check.
        vv = VersionVector.__new__(VersionVector)
        vv._v = dict(self._v)
        return vv

    def __len__(self) -> int:
        return len(self._v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        keys = set(self._v) | set(other._v)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(sorted(self._v.items())))

    # -- ordering / merging -----------------------------------------------
    def merge_max(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum (after absorbing another replica's view)."""
        keys = set(self._v) | set(other._v)
        return VersionVector({k: max(self.get(k), other.get(k)) for k in keys})

    def dominates(self, other: "VersionVector") -> bool:
        """True when this vector has seen everything ``other`` has."""
        return all(self.get(k) >= n for k, n in other._v.items())

    def diff(self, base: "VersionVector") -> "VersionVector":
        """Entries strictly ahead of ``base``, at this vector's versions.

        The delta-synchronization primitive: ``base.merge_max(a.diff(base))
        == base.merge_max(a)``, and ``a.diff(base)`` is empty exactly when
        ``base.dominates(a)``.
        """
        return VersionVector({k: self._v[k] for k in self.ahead_of(base, self._v)})

    def ahead_of(self, base: "VersionVector", keys: Iterable[str]) -> List[str]:
        """The ``keys`` whose version here is strictly ahead of ``base``."""
        mine, theirs = self._v, base._v
        return [k for k in keys if mine.get(k, 0) > theirs.get(k, 0)]

    def unseen_updates(self, seen: "VersionVector", keys: Iterable[str] | None = None) -> int:
        """Paper's quality metric: updates in ``self`` not yet in ``seen``.

        Restricted to ``keys`` when given (a view only cares about the
        cells its properties cover).
        """
        ks = self._v.keys() if keys is None else keys
        return sum(max(0, self.get(k) - seen.get(k)) for k in ks)

    # -- wire ---------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, int]:
        return dict(self._v)

    @classmethod
    def from_jsonable(cls, d: Mapping[str, int]) -> "VersionVector":
        return cls(d)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{n}" for k, n in sorted(self._v.items()))
        return f"VersionVector({{{inner}}})"


register_codec_type(
    "flecc.version_vector",
    VersionVector,
    to_jsonable=VersionVector.to_jsonable,
    from_jsonable=VersionVector.from_jsonable,
)
