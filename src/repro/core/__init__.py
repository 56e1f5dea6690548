"""Flecc — the paper's primary contribution.

An application-neutral cache coherence protocol for component views
(Ivan & Karamcheti, IPDPS 2004).  See DESIGN.md for the full map from
paper sections to modules.

Public surface (re-exported here):

- Property algebra: :class:`Interval`, :class:`DiscreteSet`,
  :class:`Property`, :class:`PropertySet`, :func:`dyn_confl`.
- Static sharing map: :class:`StaticSharingMap`.
- Triggers: :func:`parse_trigger`, :class:`Trigger`.
- Images: :class:`ObjectImage`, :class:`VersionVector`.
- Runtime: :class:`DirectoryManager`, :class:`CacheManager`,
  :class:`FleccSystem`, :class:`Mode`.
"""

from repro.core.domains import DiscreteSet, Domain, Interval
from repro.core.property import Property
from repro.core.property_set import PropertySet
from repro.core.static_map import StaticSharingMap
from repro.core.conflicts import ConflictPolicy, dyn_confl
from repro.core.triggers import Trigger, TriggerSet, parse_trigger
from repro.core.image import ObjectImage
from repro.core.versioning import VersionVector
from repro.core.modes import Mode
from repro.core.reflection import ReflectionExtractor, reflect_variables
from repro.core.directory import DirectoryManager
from repro.core.cache_manager import CacheManager
from repro.core.system import FleccSystem
from repro.core.sharding import (
    KeyRangePartitioner,
    ShardedDirectoryPlane,
    ShardedFleccSystem,
    ShardRouter,
)
from repro.core.rw_semantics import Access, RWCacheManager, RWDirectoryManager
from repro.core.multilevel import ReplicaCoordinator

__all__ = [
    "DiscreteSet",
    "Domain",
    "Interval",
    "Property",
    "PropertySet",
    "StaticSharingMap",
    "ConflictPolicy",
    "dyn_confl",
    "Trigger",
    "TriggerSet",
    "parse_trigger",
    "ObjectImage",
    "VersionVector",
    "Mode",
    "ReflectionExtractor",
    "reflect_variables",
    "DirectoryManager",
    "CacheManager",
    "FleccSystem",
    "KeyRangePartitioner",
    "ShardRouter",
    "ShardedDirectoryPlane",
    "ShardedFleccSystem",
    "Access",
    "RWCacheManager",
    "RWDirectoryManager",
    "ReplicaCoordinator",
]
