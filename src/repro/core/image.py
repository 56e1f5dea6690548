"""Object images — the unit of state exchanged by merge/extract methods.

The paper propagates *modified data* rather than operation logs ("views
represent different layouts of the same component and might not
implement the same methods", §4.1).  An :class:`ObjectImage` is a
self-describing snapshot: named data **cells** (e.g. one per flight)
plus the per-cell versions the data corresponds to.  Application
extract/merge functions produce and consume images; Flecc itself never
interprets cell contents — that is what keeps it application-neutral.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.versioning import VersionVector
from repro.errors import ProtocolError
from repro.net.codec import register_codec_type


class ObjectImage:
    """A versioned snapshot of a subset of the shared data."""

    __slots__ = ("cells", "versions")

    def __init__(
        self,
        cells: Optional[Mapping[str, Any]] = None,
        versions: Optional[VersionVector] = None,
    ) -> None:
        self.cells: Dict[str, Any] = dict(cells or {})
        self.versions: VersionVector = versions.copy() if versions else VersionVector()

    # -- content ------------------------------------------------------------
    def keys(self) -> Iterable[str]:
        return self.cells.keys()

    def get(self, key: str, default: Any = None) -> Any:
        return self.cells.get(key, default)

    def put(self, key: str, value: Any, version: Optional[int] = None) -> None:
        """Set a cell; when ``version`` is omitted the local counter bumps."""
        self.cells[key] = value
        if version is None:
            self.versions.bump(key)
        else:
            self.versions.set(key, version)

    def restrict(self, keys: Iterable[str]) -> "ObjectImage":
        """Sub-image containing only ``keys`` (missing keys are skipped)."""
        keep = [k for k in keys if k in self.cells]
        img = ObjectImage({k: self.cells[k] for k in keep})
        img.versions = VersionVector({k: self.versions.get(k) for k in keep})
        return img

    def restrict_newer(self, base: VersionVector) -> "ObjectImage":
        """Sub-image of cells whose version strictly exceeds ``base``.

        The serve side of delta synchronization: the full image is the
        base image plus this delta (``base ⊕ delta ≡ full`` under
        :meth:`merge_newer`), so only the delta needs to cross the wire.
        """
        return self.restrict(self.versions.ahead_of(base, self.cells))

    def is_empty(self) -> bool:
        return not self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key: str) -> bool:
        return key in self.cells

    # -- merging ---------------------------------------------------------------
    def merge_newer(self, incoming: "ObjectImage") -> int:
        """Cell-wise merge keeping the strictly newer version of each cell.

        This is Flecc's *default* conflict-resolution rule when the
        application does not supply its own merge function: a cell from
        ``incoming`` wins only if its version exceeds the local one
        (ties keep local — the primary copy is authoritative).  Returns
        the number of cells taken from ``incoming``.
        """
        taken = 0
        for key, value in incoming.cells.items():
            if incoming.versions.get(key) > self.versions.get(key):
                self.cells[key] = value
                self.versions.set(key, incoming.versions.get(key))
                taken += 1
        return taken

    def merge_with(
        self,
        incoming: "ObjectImage",
        resolver: Optional[Callable[[str, Any, Any], Any]] = None,
    ) -> int:
        """Merge with an application conflict resolver.

        For every cell where *both* sides changed since a common point —
        approximated as "incoming version equals local version but the
        values differ" — ``resolver(key, local_value, incoming_value)``
        picks the surviving value (Coda/Bayou-style application-level
        resolution, paper §4.1).  Newer-version cells merge as in
        :meth:`merge_newer`.
        """
        if resolver is None:
            return self.merge_newer(incoming)
        taken = 0
        for key, value in incoming.cells.items():
            local_v = self.versions.get(key)
            incoming_v = incoming.versions.get(key)
            if incoming_v > local_v:
                self.cells[key] = value
                self.versions.set(key, incoming_v)
                taken += 1
            elif incoming_v == local_v and key in self.cells and self.cells[key] != value:
                resolved = resolver(key, self.cells[key], value)
                if resolved != self.cells.get(key):
                    self.cells[key] = resolved
                    self.versions.bump(key)
                    taken += 1
        return taken

    def copy(self) -> "ObjectImage":
        return ObjectImage(self.cells, self.versions)

    # -- wire --------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {"cells": dict(self.cells), "versions": self.versions.to_jsonable()}

    @classmethod
    def from_jsonable(cls, d: Mapping[str, Any]) -> "ObjectImage":
        if "cells" not in d:
            raise ProtocolError(f"malformed image payload: {d!r}")
        return cls(d["cells"], VersionVector(d.get("versions", {})))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ObjectImage)
            and self.cells == other.cells
            and self.versions == other.versions
        )

    def __repr__(self) -> str:
        return f"ObjectImage({len(self.cells)} cells, {self.versions!r})"


register_codec_type(
    "flecc.object_image",
    ObjectImage,
    to_jsonable=ObjectImage.to_jsonable,
    from_jsonable=ObjectImage.from_jsonable,
)


class DeltaImage:
    """A version-filtered slice update served instead of a full image.

    ``image`` holds only the cells whose authoritative version exceeds
    the requester's synchronization base; unchanged cells stay off the
    wire.  The base is identified by a compact commit-sequence cursor
    rather than a full version vector so request and reply overhead
    stay O(1):

    - ``base_seq`` — the requester's cursor this delta was computed
      against (echoed back so a receiver that no longer holds that base
      can detect it must re-pull a full image); ``-1`` for a complete
      snapshot.
    - ``as_of`` — the directory's commit cursor after this serve; the
      receiver adopts it as its new base.
    - ``complete`` — ``True`` when ``image`` is a full snapshot of the
      slice (first contact, or fallback after quarantine/eviction,
      property change, or a cursor mismatch).
    - ``slice_size`` — live cells in the whole slice, so transports can
      account how many cells the delta skipped.
    """

    __slots__ = ("image", "base_seq", "as_of", "complete", "slice_size")

    def __init__(
        self,
        image: ObjectImage,
        base_seq: int = -1,
        as_of: int = 0,
        complete: bool = False,
        slice_size: Optional[int] = None,
    ) -> None:
        self.image = image
        self.base_seq = base_seq
        self.as_of = as_of
        self.complete = complete
        self.slice_size = len(image) if slice_size is None else slice_size

    def __len__(self) -> int:
        return len(self.image)

    def to_jsonable(self) -> dict:
        return {
            "image": self.image,
            "base_seq": self.base_seq,
            "as_of": self.as_of,
            "complete": self.complete,
            "slice_size": self.slice_size,
        }

    @classmethod
    def from_jsonable(cls, d: Mapping[str, Any]) -> "DeltaImage":
        image = d.get("image")
        if not isinstance(image, ObjectImage):
            raise ProtocolError(f"malformed delta payload: {d!r}")
        return cls(
            image,
            base_seq=d.get("base_seq", -1),
            as_of=d.get("as_of", 0),
            complete=bool(d.get("complete", False)),
            slice_size=d.get("slice_size"),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeltaImage)
            and self.image == other.image
            and self.base_seq == other.base_seq
            and self.as_of == other.as_of
            and self.complete == other.complete
            and self.slice_size == other.slice_size
        )

    def __repr__(self) -> str:
        kind = "complete" if self.complete else f"delta base_seq={self.base_seq}"
        return (
            f"DeltaImage({len(self.image)}/{self.slice_size} cells, "
            f"{kind}, as_of={self.as_of})"
        )


register_codec_type(
    "flecc.delta_image",
    DeltaImage,
    to_jsonable=DeltaImage.to_jsonable,
    from_jsonable=DeltaImage.from_jsonable,
)
