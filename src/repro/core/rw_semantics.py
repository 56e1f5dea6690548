"""Extension: read/write semantics on shared data (paper §6, direction 1).

"The cache coherence protocol does not currently use any information
about the nature of the methods executed on the shared data.  We
believe that the number of control messages can be further reduced by
attaching read/write semantics to the shared data."

This module implements that future-work direction: a view may annotate
``start_use_image`` with its access intent.  The RW-aware directory
then lets any number of conflicting **readers** hold the data
simultaneously in strong mode — only a **writer** needs to invalidate
the conflict set (and readers must be revoked when a writer arrives),
exactly the MESI-style sharing the paper hints at.

Usage::

    directory = RWDirectoryManager(...)     # instead of DirectoryManager
    cm = RWCacheManager(...)                # instead of CacheManager
    yield cm.start_use_image(access=Access.READ)

Everything else — properties, triggers, images — is unchanged.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Tuple

from repro.core import messages as M
from repro.core.cache_manager import CacheManager, UseRequest
from repro.core.directory import DirectoryManager, ViewRecord, _PendingOp
from repro.core.modes import Mode
from repro.net.message import Message
from repro.net.transport import Completion


class Access(str, Enum):
    """A view's declared intent for the upcoming critical section."""

    READ = "read"
    WRITE = "write"

    @classmethod
    def parse(cls, value: "Access | str") -> "Access":
        if isinstance(value, Access):
            return value
        try:
            return cls(value.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown access {value!r}; use 'read' or 'write'") from None


def _reads(op: _PendingOp) -> bool:
    return op.kind == "acquire" and Access.parse(
        op.request.payload.get("access", Access.WRITE)
    ) is Access.READ


class RWDirectoryManager(DirectoryManager):
    """Directory that distinguishes read sharers from the write owner.

    State extension: ``ViewRecord.exclusive`` keeps its meaning (write
    ownership); a read sharer is a view whose latest serve was a READ
    acquire and that is still active — revocation, eviction and
    unregistration all end sharing by deactivating it.  Invariants: a
    write owner excludes all conflicting activity; read sharers may
    overlap each other but not a conflicting writer.

    Only decisions change: whom a READ round revokes and how a READ is
    served.  READ rounds run through the base launcher, so they get the
    watchdog, the round counters and coalescing like any other round.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._readers: set[str] = set()

    @property
    def read_sharers(self) -> set[str]:
        return self._readers & self._active_set  # active => registered

    def _round_targets(
        self, op: _PendingOp
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        if not _reads(op):
            return super()._round_targets(op)
        # READ acquire: only a conflicting *writer* must be revoked;
        # co-existing readers are fine (the message saving).
        exclusive = self._exclusive_set
        targets = {v: M.INVALIDATE for v in op.conflicts if v in exclusive}
        return targets, {"requested_by": op.view_id}

    def _serve(self, op: _PendingOp, rec: ViewRecord) -> bool:
        if _reads(op):
            # Served like a pull: active but NOT exclusive.
            op.kind = "pull"
            self._readers.add(rec.view_id)
        else:
            self._readers.discard(rec.view_id)
        return super()._serve(op, rec)

    def check_invariants(self) -> None:
        super().check_invariants()
        from repro.errors import ProtocolError

        for vid in self.read_sharers:
            for other in self.conflict_set_of(vid):
                if other in self._exclusive_set:
                    raise ProtocolError(
                        f"rw violation: reader {vid} coexists with writer {other}"
                    )


class RWCacheManager(CacheManager):
    """Cache manager whose ``start_use_image`` takes an access intent.

    In STRONG mode:

    - ``WRITE`` behaves like the base protocol (exclusive acquire).
    - ``READ`` acquires shared (non-exclusive) access: fresh data is
      pulled, but conflicting readers are not invalidated — repeated
      reads by the sharer set cost no invalidation rounds.

    Only the decision changes: a READ enters through the base
    ``_enter`` with :meth:`_read_request`, so the use lock, the degraded
    rule (a degraded READ is refused like any strong use) and the
    counters are the base class's.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.read_shared = False  # holding shared (read) access

    def start_use_image(self, access: Access | str = Access.WRITE) -> Completion:
        access = Access.parse(access)
        if self.mode is not Mode.STRONG or access is Access.WRITE:
            if access is Access.WRITE:
                self.read_shared = False
            return super().start_use_image()
        return self._enter(self._read_request)

    def _read_request(self) -> UseRequest:
        """Decision for a strong READ: already a sharer — or the write
        owner, whose exclusive access subsumes reading (a read ACQUIRE
        here would pull the stale primary copy over our own uncommitted
        writes) — enters locally; anyone else acquires shared access."""
        if (self.read_shared or self.owner) and not self.invalidated:
            return None
        return M.ACQUIRE, {"access": Access.READ.value}, self._share

    def _share(self) -> None:
        self.read_shared = True

    def _complete_invalidate(self, msg: Message) -> None:
        self.read_shared = False
        super()._complete_invalidate(msg)
