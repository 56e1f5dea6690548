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
from repro.core import messages as M
from repro.core.cache_manager import CacheManager
from repro.core.directory import DirectoryManager, _PendingOp
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


class RWDirectoryManager(DirectoryManager):
    """Directory that distinguishes read sharers from the write owner.

    State extension: ``ViewRecord.exclusive`` keeps its meaning (write
    ownership); read sharers are tracked in ``read_sharers`` per view
    id.  Invariants: a write owner excludes all conflicting activity;
    read sharers may overlap each other but not a conflicting writer.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.read_sharers: set[str] = set()

    # -- acquisition ------------------------------------------------------
    def _h_acquire(self, msg: Message) -> None:
        rec = self._record_for(msg)
        access = Access.parse(msg.payload.get("access", Access.WRITE))
        op = _PendingOp("acquire", msg, rec.view_id)
        op.access = access  # type: ignore[attr-defined]
        self._enqueue(op)

    def _start_op(self, op: _PendingOp) -> None:
        access: Access = getattr(op, "access", Access.WRITE)
        if op.kind != "acquire" or access is Access.WRITE:
            # Writes (and pulls/inits) behave exactly as in the base
            # protocol, except a write must also flush read sharers.
            super()._start_op(op)
            return
        # READ acquire: only a conflicting *writer* must be revoked;
        # co-existing readers are fine (the message saving).  Writers
        # come from the maintained exclusive set — O(conflict degree),
        # over the conflict list the scheduler admitted the op with.
        exclusive = self._exclusive_set
        targets = {v: M.INVALIDATE for v in op.conflicts if v in exclusive}
        for v, mtype in targets.items():
            out = Message(mtype, self.address, self.views[v].address,
                          {"view_id": v, "requested_by": op.view_id})
            op.awaiting[out.msg_id] = v
            self._round_ops[out.msg_id] = op
            self._send(out)
        if not op.awaiting:
            self._finalize_op(op)

    def _finalize_op(self, op: _PendingOp) -> None:
        access: Access = getattr(op, "access", Access.WRITE)
        if op.kind == "acquire" and access is Access.READ:
            # Serve like a pull (active but NOT exclusive), then mark
            # the view as a read sharer.
            op.kind = "pull"
            rec = self.views.get(op.view_id)
            super()._finalize_op(op)
            if rec is not None:
                self.read_sharers.add(op.view_id)
            return
        if op.kind == "acquire":
            # A write acquire revokes conflicting read sharers that the
            # base invalidation round already handled (they were
            # active); drop them from the sharer set.
            for v in self.conflict_set_of(op.view_id):
                self.read_sharers.discard(v)
        super()._finalize_op(op)

    def _h_unregister(self, msg: Message) -> None:
        view_id = msg.payload.get("view_id")
        if view_id is not None:
            self.read_sharers.discard(view_id)
        super()._h_unregister(msg)

    def _h_round_reply(self, msg: Message) -> None:
        # An invalidated view loses read-sharer status too.
        op = self._round_ops.get(msg.reply_to)
        if op is not None and msg.reply_to in op.awaiting:
            self.read_sharers.discard(op.awaiting[msg.reply_to])
        super()._h_round_reply(msg)

    def check_invariants(self) -> None:
        super().check_invariants()
        from repro.errors import ProtocolError

        for vid in self.read_sharers:
            if vid not in self.views:
                continue
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

        comp = self.transport.completion(f"{self.view_id}.start_use_read")

        def locked(_lk: Completion) -> None:
            if (self.read_shared or self.owner) and not self.invalidated:
                # Already a sharer — or the write owner, whose exclusive
                # access subsumes reading (a read ACQUIRE here would
                # pull the stale primary copy over our own uncommitted
                # writes): free local access.
                self.counters["local_grants"] += 1
                self._in_use = True
                comp.resolve(self)
                return
            self.counters["acquires"] += 1

            def fail_locked(exc: BaseException) -> None:
                self._use_lock.release()
                comp.fail(exc)

            def shared() -> None:
                self.read_shared = True
                self._in_use = True

            self._request_data(
                M.ACQUIRE, {"access": access.value},
                on_fail=fail_locked,
                on_done=lambda _img: comp.resolve(self),
                on_state=shared,
            )

        self._use_lock.acquire().then(locked)
        return comp

    def _complete_invalidate(self, msg: Message) -> None:
        self.read_shared = False
        super()._complete_invalidate(msg)
