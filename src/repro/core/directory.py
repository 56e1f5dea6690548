"""The directory manager (paper §4.2).

One directory manager runs with the original component (the primary
copy).  It tracks which views are registered and *active*, decides who
conflicts with whom (static map + ``dynConfl``), revokes/collects state
with INVALIDATE rounds, gathers fresh state from active views with
FETCH rounds, merges pushed updates into the original component via the
application's merge function, and stamps every committed cell update
with a version (the basis of the data-quality metric).

Concurrency discipline: operations that require a multi-message round
(ACQUIRE, PULL/INIT that must first revoke or fetch, and the recovery
reclaim of a restarted durable directory) go through one
**conflict-aware round scheduler**.  It keeps an in-flight op table of
at most ``concurrent_rounds`` rounds (0 = unbounded) and starts a
queued round whenever its *scope* — the requesting view plus its
conflict set (``ConflictIndex`` candidates, static-SHARED partners,
exclusive holders) — is disjoint from every running round's scope and
from every conflicting op queued ahead of it (no barging: ops of one
conflict group never reorder, so each group still sees the serial
order).  Serial is bound 1 of the same scan: with one slot, a full
table keeps the FIFO, which is exactly the paper's discipline — one op
at a time, the centralized primary copy as the natural serialization
point.  Every running round owns its watchdog.  Waiting ops hold no
slot and rounds always terminate (CM ACKs or the watchdog), so there
are no wait cycles inside a shard;
across shards the ShardRouter rules them out by taking a spanning
view's shards in ascending index.  Commits stay linearized: every
committed cell passes through ``_commit`` under the directory lock, so
``commit_seq`` (and the WAL's per-lineage commit order) remains a
single monotone sequence.  Single-message operations (REGISTER, PUSH,
SET_MODE, ...) are handled immediately.

One path per operation: ``_start_op`` launches every round, ``_serve``
answers every requester and ``_commit`` commits every cell; subclasses
override decisions (``_round_targets``, ``_need_fresh``), never a path.
Commits are all or nothing: the application's resolver and merge hooks
run before anything the directory owns moves (cursors, versions,
``commit_seq``, the WAL), and a ``WalError`` always fail-stops.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core import messages as M
from repro.core.conflicts import ConflictPolicy
from repro.core.durability import DurabilityManager, DurabilitySpec
from repro.core.image import DeltaImage, ObjectImage
from repro.core.messages import TraceLog
from repro.core.modes import Mode
from repro.core.profiling import DirectoryProfiler, clock_ns as _clock_ns
from repro.core.property_set import PropertySet
from repro.core.static_map import StaticSharingMap
from repro.core.versioning import VersionVector
from repro.core.wal import WalError
from repro.errors import ProtocolError, TransportError
from repro.net.message import Message, make_batch
from repro.net.transport import TimerHandle, Transport

# Application-facing function signatures (paper Fig 3):
#   extract_from_object(component, view_property_list) -> ObjectImage
#   merge_into_object(component, image, view_property_list) -> None
ExtractFromObject = Callable[[Any, PropertySet], ObjectImage]
MergeIntoObject = Callable[[Any, ObjectImage, PropertySet], None]
# Optional partial-materialization hook for delta serves:
#   extract_cells(component, view_property_list, keys) -> ObjectImage
# When absent, delta serves fall back to a full extract restricted to
# the changed keys (correct, but pays the full materialization cost).
ExtractCells = Callable[[Any, PropertySet, List[str]], ObjectImage]

#: Replies kept for duplicate-request replay (at-least-once delivery).
DEDUP_WINDOW = 256


class ViewRecord:
    """Directory-side registration state for one view.

    :meth:`to_record` / :meth:`from_record` are its one spelling — the
    ``register`` WAL record, the snapshot's ``views`` and
    ``quarantined`` entries — and :meth:`apply` replays a ``cur``
    record onto it.  A registered view's ``active`` / ``exclusive``
    flags are written by :meth:`DirectoryManager._set_activity` only,
    which keeps the directory's activity sets in step.
    """

    __slots__ = (
        "view_id", "address", "properties", "mode", "triggers",
        "active", "exclusive", "seen", "last_state_seq",
        "lease_expires", "synced", "last_served_seq",
    )

    def __init__(
        self,
        view_id: str,
        address: str,
        properties: PropertySet,
        mode: Mode,
        triggers: Optional[Dict[str, Optional[str]]] = None,
    ) -> None:
        self.view_id = view_id
        self.address = address
        self.properties = properties
        self.mode = mode
        self.triggers = {} if triggers is None else triggers
        self.active = False
        self.exclusive = False
        self.seen = VersionVector()
        # Highest state sequence number committed from this view; images
        # stamped with an older/equal seq are stale retransmissions.
        self.last_state_seq = 0
        # Lease-based failure detection: transport time after which the
        # view is presumed crashed (inf when leases are disabled).  Renewed
        # by HEARTBEAT and by every message carrying the view's id.
        self.lease_expires = float("inf")
        # Delta synchronization cursors: ``synced`` flips true once this
        # view has received a complete slice image (first contact and
        # recovery re-sync always serve full); ``last_served_seq`` is the
        # directory commit cursor echoed to the view on its last serve — a
        # request whose ``since`` cursor does not match is served a full
        # image (the requester's base can no longer be trusted).
        self.synced = False
        self.last_served_seq = -1

    def to_record(self) -> Dict[str, Any]:
        """The record's one spelling.  It holds the live ``seen`` and
        triggers: encode it, or copy it with :meth:`from_record`, before
        the view moves on."""
        return {
            "v": self.view_id, "addr": self.address,
            "props": self.properties, "mode": self.mode.value,
            "trig": self.triggers, "seen": self.seen,
            "sseq": self.last_state_seq, "served": self.last_served_seq,
            "synced": self.synced, "active": self.active,
            "excl": self.exclusive,
        }

    @classmethod
    def from_record(cls, vd: Dict[str, Any]) -> "ViewRecord":
        """A new record, owning its ``seen`` and triggers, from
        :meth:`to_record`'s form; a key an older writer left out takes
        its default."""
        rec = cls(vd["v"], vd["addr"], vd.get("props") or PropertySet(),
                  Mode.WEAK, dict(vd.get("trig") or {}))
        rec.apply(vd)
        return rec

    def apply(self, vd: Dict[str, Any]) -> None:
        """Set the cursor and activity fields ``vd`` carries.  A whole
        ``seen`` vector replaces this one; a ``cur`` record's entries
        (the cells its serve shipped) merge into it."""
        seen = vd.get("seen")
        if isinstance(seen, VersionVector):
            self.seen = seen.copy()
        else:
            for key, version in (seen or {}).items():
                self.seen.set(key, version)
        self.mode = Mode.parse(vd.get("mode", self.mode))
        self.last_state_seq = int(vd.get("sseq", 0))
        self.last_served_seq = int(vd.get("served", -1))
        self.synced = bool(vd.get("synced", False))
        self.active = bool(vd.get("active", False))
        self.exclusive = bool(vd.get("excl", False))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ViewRecord({self.view_id!r}, mode={self.mode}, "
            f"active={self.active}, exclusive={self.exclusive})"
        )


#: The fields of :meth:`ViewRecord.to_record` a ``cur`` record carries.
_CUR_FIELDS = ("v", "mode", "sseq", "served", "synced", "active", "excl")


@dataclass
class QuarantinedView:
    """Reconciliation state stashed when a view is presumed dead.

    Instead of silently discarding a silent/crashed view's context, the
    directory quarantines it: a copy of the view's record taken at the
    quarantine (its fields — ``view_id``, ``address``, ``properties``,
    ``mode``, ``seen``, ``last_state_seq`` — read through) and — for a
    round the view stalled or faulted — the operation it was blocking.
    A recovering cache manager that re-REGISTERs with the same view id
    reconciles against this entry instead of starting from a blank
    record (which would mis-classify its retransmissions), and re-syncs
    its data with a complete INIT serve.
    """

    record: ViewRecord
    reason: str                      # 'round-timeout' | 'lease-expired' | ...
    time: float
    op_context: Optional[Dict[str, Any]] = None

    def __getattr__(self, name: str) -> Any:
        if name == "record":  # not set yet (copy/pickle): no recursion
            raise AttributeError(name)
        return getattr(self.record, name)


def _properties_in(
    views: Dict[str, ViewRecord]
) -> Callable[[str], Optional[PropertySet]]:
    """The conflict policy's ``properties_of`` over a live registry."""
    def properties_of(view_id: str) -> Optional[PropertySet]:
        rec = views.get(view_id)
        return rec.properties if rec else None

    return properties_of


@dataclass
class _PendingOp:
    """A queued multi-message operation.

    A ``reclaim`` op has no request and serves no one: ``view_id`` is
    None and ``conflicts`` holds the recovered-exclusive owners it
    fetches from.
    """

    kind: str  # 'acquire' | 'pull' | 'init' | 'reclaim'
    request: Optional[Message]
    view_id: Optional[str]
    awaiting: Dict[int, str] = field(default_factory=dict)  # msg_id -> view_id
    need_fresh: bool = False
    # Scheduler bookkeeping: ``seq`` keys the in-flight op table (0 =
    # never started), ``scope`` is the independence footprint frozen at
    # round start, ``conflicts`` the conflict list the admitting scan
    # computed it from (a list: target order must not depend on
    # PYTHONHASHSEED), ``timer`` the running round's watchdog,
    # ``enqueued_ns`` feeds the queue_wait profiler phase, and
    # ``waited`` dedups the sched_conflict_waits counter per op.
    seq: int = 0
    scope: Optional[frozenset] = None
    conflicts: List[str] = field(default_factory=list)
    timer: Optional[TimerHandle] = None
    enqueued_ns: int = 0
    waited: bool = False


class DirectoryManager:
    """Primary-copy coordinator for one original component."""

    def __init__(
        self,
        transport: Transport,
        address: str,
        component: Any,
        extract_from_object: ExtractFromObject,
        merge_into_object: MergeIntoObject,
        static_map: Optional[StaticSharingMap] = None,
        conflict_resolver: Optional[Callable[[str, Any, Any], Any]] = None,
        trace: Optional[TraceLog] = None,
        on_commit: Optional[Callable[[str, int], None]] = None,
        round_timeout: Optional[float] = None,
        coalesce_rounds: bool = False,
        lease_duration: Optional[float] = None,
        delta: bool = True,
        extract_cells: Optional[ExtractCells] = None,
        key_filter: Optional[Callable[[str], bool]] = None,
        durability: Optional["DurabilitySpec | DurabilityManager"] = None,
        profile: bool = False,
        concurrent_rounds: int = 1,
    ) -> None:
        self.transport = transport
        # Round-scheduler concurrency: the in-flight op table holds at
        # most N rounds; 0 means unbounded (every independent round
        # starts immediately).  1 (the default) is the paper's serial
        # discipline — one multi-message round at a time through the
        # FIFO.
        self.concurrent_rounds = concurrent_rounds
        # Sharded-plane guard: when this directory is one shard of a
        # partitioned primary copy, only cells the predicate accepts are
        # committed here.  A foreign-key commit would bump versions the
        # owning shard never sees and silently fork the version history.
        self.key_filter = key_filter
        # Delta synchronization: serve version-filtered delta images to
        # requesters that attach a ``since`` cursor, instead of the full
        # property slice.  Off → every serve ships the full image (the
        # paper's baseline behavior); logical message counts are
        # identical either way, only payload contents change.
        self.delta = delta
        self.extract_cells = extract_cells
        # When enabled, a round's fan-out (the per-conflicting-view
        # INVALIDATE / FETCH_REQ messages of one operation) is grouped
        # by destination node and each group ships as a single BATCH
        # frame; the receiving transport splits it, so cache managers
        # are oblivious.  Replies still arrive individually.
        self.coalesce_rounds = coalesce_rounds
        # A multi-message round (invalidate/fetch) that waits longer
        # than round_timeout on a silent view is force-finalized: the
        # silent targets are dropped from the round (their state is
        # treated as lost).  None disables the watchdog.
        self.round_timeout = round_timeout
        # Lease-based failure detection: a registered view must renew
        # its lease (HEARTBEAT, or any message carrying its view id)
        # within lease_duration transport units, or it is evicted —
        # deactivated, stripped of strong-mode exclusivity, removed
        # from in-flight rounds, and quarantined for later recovery.
        # None disables the detector.
        self.lease_duration = lease_duration
        self.quarantined: Dict[str, QuarantinedView] = {}
        self._lease_timer_armed = False
        self._lease_timer = None
        # Lease-expiry min-heap with lazy deletion: at most one
        # (expiry, view_id) entry per view (membership tracked in
        # _lease_heaped).  Renewals do not touch the heap — a popped
        # entry whose view is still alive is re-pushed at its current
        # expiry, so each expiry sweep does O(log V) work per candidate
        # instead of scanning the whole registry every half-lease tick.
        self._lease_heap: List[tuple] = []
        self._lease_heaped: set = set()
        # At-least-once delivery tolerance: replies to the most recent
        # requests are cached by msg_id and re-sent verbatim when a
        # duplicate request arrives (instead of re-executing it).
        self._dedup_window = DEDUP_WINDOW
        self._reply_cache: "OrderedDict[int, Message]" = OrderedDict()
        # Invoked as on_commit(cell_key, new_version) for every locally
        # committed cell update (used by the two-level extension).
        self.on_commit = on_commit
        self.address = address
        self.component = component
        self.extract_from_object = extract_from_object
        self.merge_into_object = merge_into_object
        self.static_map = static_map
        self.conflict_resolver = conflict_resolver
        self.trace = trace
        self.views: Dict[str, ViewRecord] = {}
        self.master_versions = VersionVector()
        # Monotone commit cursor: advances with every committed cell.
        # Serves echo it (DeltaImage.as_of) and requesters send it back
        # (``since``) so base identity is one integer on the wire, not
        # a full version vector.
        self.commit_seq = 0
        # Slice key index: view_id -> tuple of live cell keys in that
        # view's property slice.  Built lazily from one full extract,
        # then consulted by delta serves, slice_keys_of and
        # register replies; invalidated per view on (re)register /
        # PROP_UPDATE / unregister / evict, and globally when a commit
        # introduces a cell key the index has never seen.
        self._slice_index: Dict[str, tuple] = {}
        self._known_keys: set = set()
        # A shard's owned keys as of its last full snapshot extract,
        # dropped with the whole slice index (core/sharding.py).
        self._owned_keys: Optional[List[str]] = None
        # Conflict policy: maintains the property-key inverted index
        # and the conflict-set memo over this registry.  It reads the
        # registry, not the manager: a bound method here would make the
        # manager a reference cycle that outlives close().
        self.policy = ConflictPolicy(static_map, _properties_in(self.views))
        # Maintained activity sets, kept in step with the flags by
        # _set_activity: who is active, and who holds strong-mode
        # exclusivity, without registry scans.
        self._active_set: set = set()
        self._exclusive_set: set = set()
        # Op-path profiler (core/profiling.py): None unless profile=True,
        # so the hot paths pay one `is None` test when off.
        self.profiler: Optional[DirectoryProfiler] = (
            DirectoryProfiler() if profile else None
        )
        # Conflict-aware round scheduler state.  Waiting ops sit in one
        # FIFO (per-conflict-group order falls out of the no-barging
        # scan in _schedule_ready); running ops live in the in-flight
        # table keyed by start sequence, and _round_ops maps every
        # outstanding round message id to its owning op so replies
        # dispatch in O(1) regardless of how many rounds are in flight.
        self._op_queue: Deque[_PendingOp] = deque()
        self._running: Dict[int, _PendingOp] = {}
        self._round_ops: Dict[int, _PendingOp] = {}
        self._op_seq = 0
        self._pumping = False
        self._pump_again = False
        # Operational counters for experiments and monitoring.
        self.counters: Dict[str, int] = {
            "registers": 0, "unregisters": 0, "pushes": 0,
            "commits": 0, "rounds": 0, "invalidates_sent": 0,
            "fetches_sent": 0, "grants": 0, "round_timeouts": 0,
            "rounds_quarantined": 0, "leases_expired": 0,
            "recoveries": 0, "heartbeats": 0, "send_errors": 0,
            "delta_serves": 0, "full_serves": 0, "delta_degraded": 0,
            "slice_index_hits": 0, "slice_index_builds": 0,
            "partial_extracts": 0, "regrants": 0,
            "commits_durable": 0, "commits_volatile": 0,
            "wal_recoveries": 0, "cells_replayed": 0,
            "recovery_reclaims": 0, "reclaim_timeouts": 0,
            "index_candidates": 0,
            "lease_heap_pops": 0,
            # Round-scheduler instrumentation: high-water mark of
            # simultaneously running rounds, rounds that started while
            # another was already in flight, ops that had to wait on a
            # conflicting round, and application-hook faults fenced at
            # a round reply, a serve and a PUSH/UNREGISTER commit.
            "concurrent_rounds_hwm": 0, "rounds_overlapped": 0,
            "sched_conflict_waits": 0, "round_faults": 0,
            "serve_faults": 0, "commit_faults": 0,
        }
        self._lock = threading.RLock()  # no-op contention in sim; needed on TCP
        # Durable primary copy: opening the lineage performs recovery
        # (snapshot + WAL tail), which must land before the endpoint
        # binds — a request that raced recovery could read the blank
        # pre-replay state.
        self.durability: Optional[DurabilityManager] = None
        owners: List[str] = []
        if durability is not None:
            self.durability = (
                durability
                if isinstance(durability, DurabilityManager)
                else DurabilityManager(durability)
            )
            owners = self._recover_durable_state()
        self.endpoint = transport.bind(address, self._on_message)
        if owners:
            # Recovered strong owners may hold dirty state newer than
            # anything in the WAL (their handoff rides an INVALIDATE_ACK
            # that can die with the directory process).  The reclaim
            # round fetches each one's full slice; until it finishes (or
            # its watchdog expires) nobody in their conflict groups is
            # served from the unreconciled copy.
            self._enqueue(_PendingOp("reclaim", None, None, conflicts=owners))

    # ------------------------------------------------------------------
    # Introspection used by experiments / QualityProbe
    # ------------------------------------------------------------------
    def seen_versions_of(self, view_id: str) -> VersionVector:
        rec = self.views.get(view_id)
        return rec.seen if rec else VersionVector()

    def slice_keys_of(self, view_id: str) -> Optional[List[str]]:
        """Cell keys covered by a view's properties (slice key index)."""
        rec = self.views.get(view_id)
        if rec is None:
            return None
        return list(self._slice_keys(view_id))

    # ------------------------------------------------------------------
    # Slice key index
    # ------------------------------------------------------------------
    def _slice_keys(self, view_id: str) -> tuple:
        """Live keys of a view's slice; one full extract per (view,
        membership) epoch, index hits afterwards."""
        keys = self._slice_index.get(view_id)
        if keys is not None:
            self.counters["slice_index_hits"] += 1
            return keys
        rec = self.views.get(view_id)
        if rec is None:
            return ()
        keys = tuple(
            self.extract_from_object(self.component, rec.properties).keys()
        )
        self._slice_index[view_id] = keys
        self._known_keys.update(keys)
        self.counters["slice_index_builds"] += 1
        return keys

    def invalidate_slice_index(self, view_id: Optional[str] = None) -> None:
        """Drop cached slice keys (one view's entry, or all of them).

        External writers that commit outside :meth:`_commit` — e.g. the
        multilevel replica coordinator's anti-entropy absorb — must call
        this after introducing cells, or the index can serve stale keys.
        """
        with self._lock:
            if view_id is None:
                self._slice_index.clear()
                self._owned_keys = None
            else:
                self._slice_index.pop(view_id, None)

    # ------------------------------------------------------------------
    # Maintained activity sets
    # ------------------------------------------------------------------
    def _set_activity(
        self, rec: ViewRecord, active: bool, exclusive: bool,
        served: Optional[ObjectImage] = None,
    ) -> None:
        """The one writer of a registered view's activity flags: sets
        them, keeps the activity sets in step and logs the ``cur``
        record (the view's cursors too; ``served`` is the image a serve
        just shipped, whose cells' ``seen`` entries the record adds)."""
        rec.active = active
        rec.exclusive = exclusive
        vid = rec.view_id
        (self._active_set.add if active else self._active_set.discard)(vid)
        (self._exclusive_set.add if exclusive else self._exclusive_set.discard)(vid)
        if self.durability is None:
            return
        full = rec.to_record()
        record = {"k": "cur", **{key: full[key] for key in _CUR_FIELDS}}
        if served:
            seen = rec.seen
            record["seen"] = {key: seen.get(key) for key in served.keys()}
        self.durability.append(record)

    def _release(self, view_id: str) -> Optional[ViewRecord]:
        """Remove a record from the registry and the activity sets."""
        rec = self.views.pop(view_id, None)
        if rec is not None:
            self._active_set.discard(view_id)
            self._exclusive_set.discard(view_id)
        return rec

    def active_views(self) -> List[str]:
        return sorted(self._active_set)

    def exclusive_views(self) -> List[str]:
        return sorted(self._exclusive_set)

    def registered_views(self) -> List[str]:
        return sorted(self.views)

    def conflict_set_of(self, view_id: str) -> List[str]:
        """Registered views conflicting with ``view_id`` (any activity).

        Candidates come from the policy's inverted index and the result
        is memoized until membership, properties or the static map
        change — no registry scan.
        Subclasses may override this to change the relation; the round
        scheduler's scopes follow it (see :meth:`_op_scope`).
        """
        result = self.policy.conflict_set(view_id)
        self.counters["index_candidates"] = self.policy.index_candidates
        return result

    def check_invariants(self) -> None:
        """Raise ProtocolError when a protocol invariant is broken.

        Strong-mode invariant: an exclusive owner has no conflicting
        active view (one-copy serializability, paper §4).  Driven from
        the maintained exclusive set and the conflict index, so the
        check costs O(owners x conflict degree), not O(V^2) — usable
        as a per-op assertion even at 10k registered views.
        """
        for vid in sorted(self._exclusive_set):
            rec = self.views.get(vid)
            if rec is None:
                continue
            if not rec.active:
                raise ProtocolError(f"{vid} exclusive but not active")
            for other in self.conflict_set_of(vid):
                if other in self._active_set:
                    raise ProtocolError(
                        f"strong-mode violation: {vid} owns exclusively "
                        f"but conflicting {other} is active"
                    )

    # ------------------------------------------------------------------
    # Lease-based failure detection & quarantine
    # ------------------------------------------------------------------
    def _renew_lease(self, rec: ViewRecord) -> None:
        if self.lease_duration is None:
            return
        rec.lease_expires = self.transport.now() + self.lease_duration
        if rec.view_id not in self._lease_heaped:
            # First contact (or the view's entry was lazily retired):
            # one heap entry per view.  Renewals never touch the heap —
            # the entry's time only under-estimates the true expiry, so
            # the sweep re-pushes it at the current lease on pop.
            self._lease_heaped.add(rec.view_id)
            heapq.heappush(
                self._lease_heap, (rec.lease_expires, rec.view_id)
            )

    def _arm_lease_checker(self) -> None:
        """Arm the periodic expiry sweep (only while views are registered,
        so an idle directory does not keep the sim event queue alive)."""
        if (
            self.lease_duration is None
            or self._lease_timer_armed
            or not self.views
        ):
            return
        self._lease_timer_armed = True
        self._lease_timer = self.transport.schedule(
            self.lease_duration / 2.0, self._check_leases
        )

    def _check_leases(self) -> None:
        """Expiry sweep over the lease heap (lazy deletion).

        Pops only entries whose recorded time has passed: an idle tick
        against V live views inspects one heap head and stops —
        O(1) — while each actual expiry or stale entry costs one
        O(log V) pop.
        """
        with self._lock:
            self._lease_timer_armed = False
            now = self.transport.now()
            heap = self._lease_heap
            while heap and heap[0][0] < now:
                _, vid = heapq.heappop(heap)
                self.counters["lease_heap_pops"] += 1
                self._lease_heaped.discard(vid)
                rec = self.views.get(vid)
                if rec is None:
                    continue  # unregistered/evicted: entry was stale
                if now > rec.lease_expires:
                    self.counters["leases_expired"] += 1
                    self._trace("lease-expired", view=vid)
                    self._evict_view(vid, reason="lease-expired")
                else:
                    # Renewed since the entry was pushed: re-push at the
                    # current expiry.
                    self._lease_heaped.add(vid)
                    heapq.heappush(heap, (rec.lease_expires, vid))
            self._arm_lease_checker()

    def _quarantine_view(
        self, rec: ViewRecord, reason: str,
        op_context: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
    ) -> None:
        """Stash a presumed-dead view's reconciliation state (``time``
        defaults to now; replay passes 0.0).  The stash lives until the
        view id registers again or unregisters cleanly."""
        self.quarantined[rec.view_id] = QuarantinedView(
            ViewRecord.from_record(rec.to_record()),
            reason=reason,
            time=self.transport.now() if time is None else time,
            op_context=op_context,
        )

    def _presume_dead(self, rec: ViewRecord, reason: str, op: _PendingOp) -> None:
        """The one fence for a view a round gave up on (silent past the
        watchdog, or an application hook raised on its behalf): stash
        and log its reconciliation state, then deactivate it."""
        op_context = {"op_kind": op.kind, "requested_by": op.view_id}
        self._quarantine_view(rec, reason, op_context)
        self._log({"k": "quarantine", "v": rec.view_id,
                   "reason": reason, "op": op_context})
        self._set_activity(rec, False, False)

    def _drop_view(self, view_id: str) -> None:
        """Take a view out of the registry, the static map, the conflict
        and slice indexes, and every in-flight round (so no requester
        is blocked by a view that is gone).  Dropping a strong owner
        returns its token to the directory."""
        self.policy.unregister_view(view_id)
        self._release(view_id)
        if self.static_map is not None and self.static_map.has_view(view_id):
            self.static_map.remove_view(view_id)
        self.invalidate_slice_index(view_id)
        self._forget_in_rounds(view_id)

    def _evict_view(self, view_id: str, reason: str) -> None:
        """Presume a view dead: quarantine it and release its holds."""
        rec = self.views.get(view_id)
        if rec is None:
            return
        self._quarantine_view(rec, reason=reason)
        self._drop_view(view_id)
        self._log({"k": "evict", "v": view_id, "reason": reason})

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        with self._lock:
            self._dispatch(msg)

    # Requests whose duplicates are answered from the reply cache.  The
    # round-based requests (ACQUIRE, INIT_REQ, PULL_REQ) are *not* here:
    # replaying a cached GRANT/IMAGE would serve stale data — and, for
    # ACQUIRE, stale *ownership* (a one-copy violation if the token
    # moved meanwhile).  They are idempotent at the directory, so their
    # duplicates are simply re-executed against current state.
    _REPLAYABLE = frozenset(
        {M.REGISTER, M.UNREGISTER, M.PUSH, M.SET_MODE, M.PROP_UPDATE,
         M.HEARTBEAT}
    )

    def _dispatch(self, msg: Message) -> None:
        self._trace(msg.msg_type, view=msg.payload.get("view_id", msg.src))
        if msg.msg_id in self._reply_cache:
            if msg.msg_type in self._REPLAYABLE:
                self._trace("duplicate-request", msg_id=msg.msg_id)
                self._send(self._reply_cache[msg.msg_id])
                return
            # Round-based duplicate: drop the stale cached reply and
            # re-execute below.
            self._trace("duplicate-reexecute", msg_id=msg.msg_id)
            del self._reply_cache[msg.msg_id]
        handler = {
            M.REGISTER: self._h_register,
            M.INIT_REQ: self._h_sync,
            M.PULL_REQ: self._h_sync,
            M.PUSH: self._h_push,
            M.ACQUIRE: self._h_acquire,
            M.SET_MODE: self._h_set_mode,
            M.PROP_UPDATE: self._h_prop_update,
            M.UNREGISTER: self._h_unregister,
            M.HEARTBEAT: self._h_heartbeat,
            M.INVALIDATE_ACK: self._h_round_reply,
            M.FETCH_REPLY: self._h_round_reply,
        }.get(msg.msg_type)
        if handler is None:
            self._reply(msg, M.ERROR, {"error": f"unknown type {msg.msg_type}"})
            return
        try:
            handler(msg)
        except ProtocolError as exc:
            # E.g. a late duplicate from a view that has already
            # unregistered: answer instead of tearing down the loop.
            if msg.msg_type in M.REQUESTS:
                self._reply(msg, M.ERROR, {"error": str(exc)})
            else:
                self._trace("handler-error", error=str(exc))

    def _send(self, msg: Message) -> None:
        self._trace(f"send:{msg.msg_type}", dst=msg.dst)
        try:
            self.endpoint.send(msg)
        except TransportError as exc:
            # A wire failure mid-dispatch (e.g. the TCP peer vanished
            # between the connect and the write) must not propagate
            # into the handler and wedge an in-flight op slot: record
            # the loss and let the round watchdog / CM retransmission
            # recover.
            self.counters["send_errors"] += 1
            self.transport.stats.record_drop(msg)
            self._trace("send-error", dst=msg.dst, error=str(exc))

    def _reply(self, request: Message, msg_type: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Answer ``request``, caching the reply for duplicate deliveries."""
        if self.durability is not None:
            # No ack-before-durable window: under fsync=always every WAL
            # append synced inline, and this guard closes any path (e.g.
            # a coalesced round finalizing several commits) where an
            # acknowledgment could otherwise overtake the fsync.
            self.durability.ensure_ack_durable()
        reply = request.reply(msg_type, payload)
        self._reply_cache[request.msg_id] = reply
        while len(self._reply_cache) > self._dedup_window:
            self._reply_cache.popitem(last=False)
        self._send(reply)

    def _trace(self, event: str, **detail: Any) -> None:
        if self.trace is not None:
            self.trace.record(self.transport.now(), self.address, event, **detail)

    def _record_for(self, msg: Message) -> ViewRecord:
        view_id = msg.payload.get("view_id")
        rec = self.views.get(view_id)
        if rec is None:
            raise ProtocolError(
                f"message {msg.msg_type} from unregistered view {view_id!r}"
            )
        self._renew_lease(rec)
        return rec

    # -- immediate operations -------------------------------------------------
    def _h_register(self, msg: Message) -> None:
        prof = self.profiler
        t0 = _clock_ns() if prof is not None else 0
        p = msg.payload
        view_id = p["view_id"]
        recovering = bool(p.get("recover", False))
        if view_id in self.views and not recovering:
            self._reply(msg, M.ERROR, {"error": f"{view_id} already registered"})
            return
        rec = ViewRecord(
            view_id=view_id,
            address=msg.src,
            properties=p.get("properties") or PropertySet(),
            mode=Mode.parse(p.get("mode", Mode.WEAK)),
            triggers=p.get("triggers") or {},
        )
        # A registration ends any quarantine of the view id.  Only a
        # recovering re-REGISTER (after a crash) reconciles against the
        # live record (lease not yet expired) or the stash
        # (evicted/round-dropped), so the directory's dedup cursors
        # survive the restart instead of mis-classifying the recovered
        # CM's traffic as stale retransmissions.
        stash = self.quarantined.pop(view_id, None)
        prior = self._release(view_id) or stash
        recovered = recovering and prior is not None
        if recovered:
            rec.seen = prior.seen
            rec.last_state_seq = prior.last_state_seq
            self.counters["recoveries"] += 1
            self._trace("view-recovered", view=view_id)
        self.views[view_id] = rec
        self._renew_lease(rec)
        self.counters["registers"] += 1
        if self.static_map is not None and not self.static_map.has_view(view_id):
            self.static_map.add_view(view_id)
        self.policy.register_view(view_id, rec.properties)
        self.invalidate_slice_index(view_id)  # properties may differ
        self._arm_lease_checker()
        self._log({"k": "register", **rec.to_record()})
        if prof is not None:
            prof.record("register", _clock_ns() - t0)
        self._reply(
            msg,
            M.REGISTER_ACK,
            {
                "view_id": view_id,
                "recovered": recovered,
                # The CM resumes its state-seq numbering above this so
                # post-recovery pushes are not dropped as stale.
                "last_state_seq": rec.last_state_seq,
                "lease": self.lease_duration,
                # Live cells the view's properties cover right now (from
                # the slice key index) — lets the CM size its caches.
                "slice_size": len(self._slice_keys(view_id)),
            },
        )

    def _h_heartbeat(self, msg: Message) -> None:
        rec = self._record_for(msg)  # renews the lease
        self.counters["heartbeats"] += 1
        self._reply(
            msg,
            M.HEARTBEAT_ACK,
            {"view_id": rec.view_id, "lease": self.lease_duration},
        )

    def _h_push(self, msg: Message) -> None:
        rec = self._record_for(msg)
        self.counters["pushes"] += 1
        committed = self._commit_request(msg, rec)
        if committed is not None:
            self._reply(msg, M.PUSH_ACK, {"committed": committed})

    def _commit_request(self, msg: Message, rec: ViewRecord) -> Optional[int]:
        """Commit a PUSH / UNREGISTER image: the cells committed, or None
        when a hook raised.  The fault is answered ERROR (replayed to a
        retransmission from the reply cache: refused, never lost and
        acked) without quarantine — the pusher may still hold its token."""
        image: ObjectImage = msg.payload.get("image") or ObjectImage()
        if image.is_empty():
            return 0
        try:
            return self._commit(rec, image, seq=msg.payload.get("state_seq"))
        except WalError:
            raise
        except Exception as exc:  # noqa: BLE001 — fence, see above
            self.counters["commit_faults"] += 1
            self._trace("commit-fault", view=rec.view_id, error=str(exc))
            self._reply(msg, M.ERROR, {"error": str(exc)})
            return None

    def _h_set_mode(self, msg: Message) -> None:
        rec = self._record_for(msg)
        new_mode = Mode.parse(msg.payload["mode"])
        old_mode = rec.mode
        rec.mode = new_mode
        # Leaving strong mode releases exclusivity; dirty state was
        # pushed by the cache manager before it sent SET_MODE.
        self._set_activity(
            rec, rec.active, rec.exclusive and new_mode is not Mode.WEAK
        )
        self._reply(
            msg,
            M.SET_MODE_ACK,
            {"mode": new_mode.value, "previous": old_mode.value},
        )

    def _h_prop_update(self, msg: Message) -> None:
        rec = self._record_for(msg)
        props = msg.payload.get("properties")
        if not isinstance(props, PropertySet):
            self._reply(msg, M.ERROR, {"error": "properties missing"})
            return
        rec.properties = props
        # Conflict relationships may have moved: re-index the view.
        self.policy.update_properties(rec.view_id, props)
        self.invalidate_slice_index(rec.view_id)
        # The slice changed shape under the view: its next serve must
        # be a complete image of the new slice, not a delta of the old.
        rec.synced = False
        self._log({"k": "props", "v": rec.view_id, "props": props})
        self._reply(msg, M.PROP_UPDATE_ACK, {"view_id": rec.view_id})

    def _h_unregister(self, msg: Message) -> None:
        rec = self._record_for(msg)
        if self._commit_request(msg, rec) is None:
            return  # refused: the view stays registered
        view_id = rec.view_id
        self._drop_view(view_id)
        self.quarantined.pop(view_id, None)
        self.counters["unregisters"] += 1
        self._log({"k": "unregister", "v": view_id})
        self._reply(msg, M.UNREGISTER_ACK, {"view_id": view_id})

    # -- queued (round-based) operations ---------------------------------------
    def _h_acquire(self, msg: Message) -> None:
        rec = self._record_for(msg)
        being_revoked = any(
            rec.view_id in op.awaiting.values()
            for op in self._running.values()
        )
        if rec.exclusive and rec.active and not being_revoked:
            # Re-ACQUIRE from the current exclusive holder — a delta
            # fallback retry (full=True) or a retransmission.  The token
            # did not move and, by the strong-mode invariant, every
            # conflicting view is already inactive, so a conflict round
            # would be an empty no-op: serve directly from current state
            # instead of queueing a redundant round.  Not taken while an
            # in-flight round is revoking (or reclaiming from) this
            # holder — granting then would race the round and could
            # split ownership or serve unreconciled state; the queue
            # serializes the re-ACQUIRE behind it.
            self.counters["regrants"] += 1
            self._trace("regrant", view=rec.view_id)
            self._serve(_PendingOp("acquire", msg, rec.view_id), rec)
            return
        self._enqueue(_PendingOp("acquire", msg, rec.view_id))

    def _h_sync(self, msg: Message) -> None:
        """INIT_REQ / PULL_REQ: one queued op, served once its round ends."""
        rec = self._record_for(msg)
        kind = "init" if msg.msg_type == M.INIT_REQ else "pull"
        self._enqueue(
            _PendingOp(kind, msg, rec.view_id, need_fresh=self._need_fresh(msg))
        )

    def _need_fresh(self, msg: Message) -> bool:
        """Decision: must a PULL/INIT first fetch from the other active
        views?  When the requester's validity trigger fired."""
        return bool(msg.payload.get("need_fresh", False))

    def _enqueue(self, op: _PendingOp) -> None:
        if self.profiler is not None:
            op.enqueued_ns = _clock_ns()
        self._op_queue.append(op)
        self._pump()

    def _pump(self) -> None:
        # Reentrancy guard: _start_op can finalize synchronously (no
        # targets) and _finalize_op pumps, so a scan can trigger another
        # scan mid-flight.  Deferring the nested call to the outer loop
        # keeps the queue scan atomic — a recursive scan would see a
        # half-drained queue and could barge past a blocked op.
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            while True:
                self._pump_again = False
                self._schedule_ready()
                if not self._pump_again:
                    return
        finally:
            self._pumping = False

    def _schedule_ready(self) -> None:
        queue = self._op_queue
        if not queue:
            return
        # One FIFO scan with no barging: an op starts iff its scope is
        # disjoint from every running round AND from every conflicting
        # op still waiting ahead of it, so two conflicting ops never
        # reorder (each conflict group sees exactly the serial order)
        # while independent groups overtake a blocked one.
        limit = self.concurrent_rounds
        scan = list(queue)
        queue.clear()
        blocked: List[frozenset] = []
        for op in scan:
            if op.view_id not in self.views and op.kind != "reclaim":
                continue  # the requester unregistered while queued
            if limit and len(self._running) >= limit:
                # Table full: keep FIFO order.  At bound 1 this is the
                # paper's one-op-at-a-time queue.
                queue.append(op)
                continue
            scope = self._op_scope(op)
            if any(
                not scope.isdisjoint(r.scope) for r in self._running.values()
            ) or any(not scope.isdisjoint(b) for b in blocked):
                if not op.waited:
                    op.waited = True
                    self.counters["sched_conflict_waits"] += 1
                blocked.append(scope)
                queue.append(op)
                continue
            op.scope = scope
            self._start_running(op)

    def _op_scope(self, op: _PendingOp) -> frozenset:
        """Independence footprint of one round: the requesting view plus
        its whole conflict set (index candidates, static-SHARED
        partners, exclusive holders — every view the round could target
        or race with).

        Built from :meth:`conflict_set_of`, the same relation
        :meth:`_round_targets` draws its targets from, so a round only ever
        sends to, or changes the activity of, views inside its own
        scope.  Two rounds may run concurrently iff their scopes are
        disjoint; a view registering *after* a round started lands in
        the *new* op's freshly-computed scope, so disjointness remains
        sound against membership churn while a round is in flight.

        The conflict list is kept on the op: scope and start are one
        synchronous scan step, so :meth:`_round_targets` targets from it
        instead of asking again.  A reclaim round's scope is the union
        of its owners' scopes.  The profiler's ``conflict`` phase times
        this computation.
        """
        prof = self.profiler
        t0 = _clock_ns() if prof is not None else 0
        if op.kind == "reclaim":
            scope = frozenset(op.conflicts).union(
                *(self.conflict_set_of(v) for v in op.conflicts)
            )
        else:
            op.conflicts = self.conflict_set_of(op.view_id)
            scope = frozenset((op.view_id, *op.conflicts))
        if prof is not None:
            prof.record("conflict", _clock_ns() - t0)
        return scope

    def _start_running(self, op: _PendingOp) -> None:
        self._op_seq += 1
        op.seq = self._op_seq
        self._running[op.seq] = op
        depth = len(self._running)
        if depth > self.counters["concurrent_rounds_hwm"]:
            self.counters["concurrent_rounds_hwm"] = depth
            self.transport.stats.record_concurrent_rounds(depth)
        if depth > 1:
            self.counters["rounds_overlapped"] += 1
        prof = self.profiler
        if prof is not None and op.enqueued_ns:
            prof.record("queue_wait", _clock_ns() - op.enqueued_ns)
        self._start_op(op)

    def _round_targets(
        self, op: _PendingOp
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        """Decision: view id -> INVALIDATE / FETCH_REQ, drawn from
        ``op.conflicts``, and the fields every request carries.  The
        conflict set meets the maintained activity sets — O(conflict
        degree), never O(V)."""
        conflicts = op.conflicts
        if op.kind == "reclaim":
            # Every recovered owner hands back its whole slice.
            return {v: M.FETCH_REQ for v in conflicts}, {"full": True}
        extra = {"requested_by": op.view_id}
        if op.kind == "acquire":
            # Revoke every conflicting view that is currently active.
            active = self._active_set
            return {v: M.INVALIDATE for v in conflicts if v in active}, extra
        targets: Dict[str, str] = {}  # pull / init
        exclusive = self._exclusive_set
        active = self._active_set
        for v in conflicts:
            if v in exclusive:
                # A conflicting strong owner must always be revoked
                # before data is served (one-copy semantics).
                targets[v] = M.INVALIDATE
            elif op.need_fresh and v in active:
                # Validity trigger fired: collect fresh state from
                # the other active views before serving.
                targets[v] = M.FETCH_REQ
        return targets, extra

    def _start_op(self, op: _PendingOp) -> None:
        """Launch one admitted round: build, track, count, coalesce and
        arm it (or serve at once when nobody needs asking)."""
        prof = self.profiler
        if prof is not None:
            prof.note_op()
            t1 = _clock_ns()
        else:
            t1 = 0
        targets, extra = self._round_targets(op)
        if op.kind == "reclaim":
            self.counters["recovery_reclaims"] += len(targets)
            self._trace("recovery-reclaim", views=op.conflicts)
        outgoing: List[Message] = []
        for v, mtype in targets.items():
            out = Message(mtype, self.address, self.views[v].address,
                          {"view_id": v, **extra})
            op.awaiting[out.msg_id] = v
            self._round_ops[out.msg_id] = op
            if mtype == M.INVALIDATE:
                self.counters["invalidates_sent"] += 1
            else:
                self.counters["fetches_sent"] += 1
            outgoing.append(out)
        if prof is not None:
            t2 = _clock_ns()
            prof.record("targets", t2 - t1)
        else:
            t2 = 0
        self._send_round(outgoing)
        if prof is not None:
            prof.record("fanout", _clock_ns() - t2)
        if not op.awaiting:
            self._finalize_op(op)
            return
        self.counters["rounds"] += 1
        timeout = self.round_timeout
        if op.kind == "reclaim":
            # Without a configured round/lease window, a fixed one keeps
            # a dead owner from holding its conflict groups forever.
            timeout = timeout or self.lease_duration or 60.0
        if timeout is not None:
            op.timer = self.transport.schedule(
                timeout, lambda: self._expire_round(op)
            )

    def _send_round(self, outgoing: List[Message]) -> None:
        """Ship one round's fan-out, coalescing same-node messages.

        Without coalescing (or with a single target) messages go out
        individually.  With it, messages are grouped by the topology
        node their destination endpoint is placed on; groups of two or
        more ride one BATCH frame (addressed to the group's first
        destination — any bound address on that node works, the
        transport splits on arrival).  Endpoints the transport cannot
        place on a node (no topology, or the TCP backend, where every
        endpoint is localhost) all fall in one local group.
        """
        if not self.coalesce_rounds or len(outgoing) <= 1:
            for out in outgoing:
                self._send(out)
            return
        groups: "OrderedDict[Any, List[Message]]" = OrderedDict()
        node_of = getattr(self.transport, "node_of", None)
        for out in outgoing:
            node = node_of(out.dst) if node_of is not None else None
            groups.setdefault(node if node is not None else "<local>", []).append(out)
        for subs in groups.values():
            if len(subs) == 1:
                self._send(subs[0])
            else:
                self._send(make_batch(self.address, subs[0].dst, subs))

    def _expire_round(self, op: _PendingOp) -> None:
        """Watchdog: force-finalize a round stuck on silent views.

        The silent views are deactivated so the requester is not
        blocked forever by a dead or wedged cache manager — but their
        context (last committed image, dedup cursors, the operation
        they were blocking) is quarantined first, so a recovering CM
        can reconcile instead of silently losing its dirty state.  A
        reclaim round's owners that never answered are quarantined as
        ``reclaim-timeout``.
        """
        with self._lock:
            if op.seq not in self._running or not op.awaiting:
                return  # the round completed in time
            dropped = list(op.awaiting.values())
            reclaim = op.kind == "reclaim"
            reason = "reclaim-timeout" if reclaim else "round-timeout"
            self.counters["reclaim_timeouts" if reclaim else "round_timeouts"] += 1
            self._trace(reason, dropped=dropped)
            for view_id in dropped:
                rec = self.views.get(view_id)
                if rec is not None:
                    self.counters["rounds_quarantined"] += 1
                    self._presume_dead(rec, reason, op)
            for mid in op.awaiting:
                self._round_ops.pop(mid, None)
            op.awaiting.clear()
            self._finalize_op(op)

    def _h_round_reply(self, msg: Message) -> None:
        op = self._round_ops.pop(msg.reply_to, None)
        if op is None or msg.reply_to not in op.awaiting:
            # Late/duplicate reply from a finished round — harmless.
            self._trace("stale-round-reply", reply_to=msg.reply_to)
            return
        view_id = op.awaiting.pop(msg.reply_to)
        rec = self.views.get(view_id)
        image: ObjectImage = msg.payload.get("image") or ObjectImage()
        if rec is not None:
            self._renew_lease(rec)  # the view answered: it is alive
            try:
                if not image.is_empty():
                    self._commit(rec, image, seq=msg.payload.get("state_seq"))
            except WalError:
                raise  # the log failed, not the view: fail-stop
            except Exception as exc:  # noqa: BLE001 — fence, see below
                # A merge/resolver hook raised: propagated, it would
                # wedge the op slot (the ACK is consumed, the round
                # never finalizes).  The view's handed-over state is
                # recorded as lost, the view quarantined, and the round
                # finishes.
                self.counters["round_faults"] += 1
                self._trace("round-fault", view=rec.view_id, error=str(exc))
                self._presume_dead(rec, "round-fault", op)
            else:
                if msg.msg_type == M.INVALIDATE_ACK:
                    self._set_activity(rec, False, False)
        if not op.awaiting:
            self._finalize_op(op)

    def _finalize_op(self, op: _PendingOp) -> None:
        self._running.pop(op.seq, None)
        if op.timer is not None:
            op.timer.cancel()
        rec = self.views.get(op.view_id)
        # The op's slot is released before the serve, so a serve fault
        # cannot wedge unrelated rounds behind it.
        if rec is not None and self._serve(op, rec) and op.kind == "acquire":
            self.counters["grants"] += 1
        self._pump()

    def _serve(self, op: _PendingOp, rec: ViewRecord) -> bool:
        """Answer ``op``'s requester from the primary copy; False when
        the extract hook raised — the one serve fence: the requester is
        quarantined as ``serve-fault`` and answered ERROR."""
        prof = self.profiler
        t0 = _clock_ns() if prof is not None else 0
        try:
            payload, served = self._serve_payload(op, rec)
        except Exception as exc:  # noqa: BLE001 — fence, see above
            self.counters["serve_faults"] += 1
            self._trace("serve-fault", view=rec.view_id, error=str(exc))
            self._presume_dead(rec, "serve-fault", op)
            self._reply(op.request, M.ERROR, {"error": str(exc)})
            return False
        if prof is not None:
            prof.record("serve", _clock_ns() - t0)
        if op.kind == "acquire":
            reply_type = M.GRANT
        else:
            reply_type = M.INIT_DATA if op.kind == "init" else M.PULL_DATA
        # The serve moved this view's delta cursors (last_served_seq,
        # and seen for the cells it shipped) and its activity flags:
        # the cur record persists them so a restarted directory still
        # serves this view deltas instead of forcing a full re-sync.
        self._set_activity(
            rec, True, rec.exclusive or op.kind == "acquire", served
        )
        self._reply(op.request, reply_type, payload)
        self.check_invariants()
        return True

    def _serve_payload(
        self, op: _PendingOp, rec: ViewRecord
    ) -> Tuple[Dict[str, Any], ObjectImage]:
        """Build the image payload for a GRANT/INIT_DATA/PULL_DATA reply;
        returns it with the plain image inside it (the cells whose
        ``seen`` entries this serve stamped).

        A requester that attached a ``since`` cursor matching what the
        directory last served it gets a **delta image**: only the cells
        whose authoritative version exceeds what the view has seen.
        Everything else — first contact, recovery/quarantine re-sync,
        property change, cursor mismatch, an explicit ``full`` request,
        or delta disabled — gets a complete slice image.  Either way the
        reply is one message: the paper's Fig-4 logical message counts
        are unchanged, only payload contents shrink.
        """
        since = op.request.payload.get("since")
        delta_capable = self.delta and since is not None
        serve_delta = (
            delta_capable
            and rec.synced
            and since == rec.last_served_seq
            and not op.request.payload.get("full", False)
        )
        if serve_delta:
            keys = self._slice_keys(rec.view_id)
            slice_size = len(keys)
            changed = self.master_versions.ahead_of(rec.seen, keys)
            image = self._extract_slice(rec, changed)
            if len(image) != len(changed):
                # Some changed cells did not materialize — a stale slice
                # key index, a cell removed behind our back, or an
                # application extract_cells hook that filters.  Stamping
                # them as seen would silently drop those updates, so
                # rebuild the index and degrade to a full serve.
                self.counters["delta_degraded"] += 1
                self.invalidate_slice_index(rec.view_id)
                serve_delta = False
            else:
                self.counters["delta_serves"] += 1
        if not serve_delta:
            image = self.extract_from_object(self.component, rec.properties)
            slice_size = len(image)
            self.counters["full_serves"] += 1
        # Stamp the served cells with the authoritative versions and
        # record what this view has now seen — only cells actually in
        # the image, so the view is never marked as having seen a
        # version it was not sent.
        for key in image.keys():
            v = self.master_versions.get(key)
            image.versions.set(key, v)
            rec.seen.set(key, v)
        rec.synced = True
        rec.last_served_seq = self.commit_seq
        if not delta_capable:
            # Legacy requester (or delta off): plain image, byte-for-byte
            # the pre-delta wire format.
            return {"image": image}, image
        return {
            "image": DeltaImage(
                image,
                base_seq=since if serve_delta else -1,
                as_of=self.commit_seq,
                complete=not serve_delta,
                slice_size=slice_size,
            )
        }, image

    def _extract_slice(self, rec: ViewRecord, keys: List[str]) -> ObjectImage:
        """Materialize just ``keys`` of a view's slice.

        Uses the application's partial ``extract_cells`` hook when one
        was supplied; otherwise falls back to a full extract restricted
        to ``keys`` (correct, but no materialization savings).
        """
        if self.extract_cells is not None:
            self.counters["partial_extracts"] += 1
            return self.extract_cells(self.component, rec.properties, keys)
        return self.extract_from_object(self.component, rec.properties).restrict(keys)

    def _forget_in_rounds(self, view_id: str) -> None:
        """Remove a vanished view from any in-flight round."""
        for op in list(self._running.values()):
            stale = [mid for mid, v in op.awaiting.items() if v == view_id]
            if not stale:
                continue
            for mid in stale:
                del op.awaiting[mid]
                self._round_ops.pop(mid, None)
            if not op.awaiting:
                self._finalize_op(op)

    # ------------------------------------------------------------------
    # Durability: WAL records, snapshots, crash-restart recovery
    # ------------------------------------------------------------------
    # WAL record payloads are dicts keyed by "k" (kind), with the lsn
    # ("n") assigned by the DurabilityManager.  Each kind carries what
    # its event changes and nothing else:
    #
    #   "register"    the whole ViewRecord (ViewRecord.to_record) — the
    #                 only place address and triggers are ever logged
    #   "props"       view id + the new PropertySet
    #   "commit"      view id, the cells stamped with the versions they
    #                 are about to get, the resolver-rewritten keys
    #                 ("noadv"), the view's state seq, the commit cursor
    #   "cur"         view id, mode, last_state_seq, last_served_seq,
    #                 synced, active, exclusive (_CUR_FIELDS) — plus,
    #                 from a serve, the seen entries of the cells in the
    #                 served image; written by _set_activity only
    #   "unregister"  view id
    #   "evict"       view id + reason (a lease expiry's quarantine)
    #   "quarantine"  view id + reason + op context: a round gave up on
    #                 a view that stays registered (_presume_dead)
    #   "cursors"     legacy (read side only): the full ViewRecord on
    #                 every serve and revocation, as written before the
    #                 "cur" record; replay still understands it, pinned
    #                 by tests/net/legacy_wal_lineage.json
    #
    # Registration data is logged where it changes — register, props —
    # not where the view is merely served: a read-mostly workload must
    # not write its PropertySet to the log on every read.  Replay
    # rebuilds every ViewRecord *exactly*: seen feeds write-write
    # conflict detection in _commit_inner, so a recovered cursor may be
    # neither behind the truth (a fresh write would be "resolved") nor
    # ahead of it (a stale one would slip through).  A serve stamps
    # seen for the keys of the image it ships and no others
    # (_serve_payload), every other seen change replays from a commit
    # record, so the serve's own keys are all a "cur" record adds.

    def _durable_state(self) -> Dict[str, Any]:
        """Snapshot payload: the full primary-copy image plus every
        piece of directory bookkeeping recovery needs (commit cursor,
        master versions, per-view delta-serve cursors, quarantine)."""
        return {
            "cseq": self.commit_seq,
            "versions": self.master_versions.copy(),
            "image": self._snapshot_image(),
            "views": [r.to_record() for r in self.views.values()],
            "quarantined": [
                {**q.record.to_record(), "reason": q.reason,
                 "time": q.time, "op": q.op_context}
                for q in self.quarantined.values()
            ],
        }

    def _snapshot_image(self) -> ObjectImage:
        """Every cell this directory owns.  Convention: the empty
        property set extracts the complete component (the same
        convention CM recovery relies on).  A shard with a partial
        extract hook materializes only the owned keys its last full
        extract found; a commit that brings a key the directory has not
        seen, a placement cut and any external writer drop that list
        with the slice index."""
        keys = self._owned_keys
        if keys is not None and self.extract_cells is not None:
            return self.extract_cells(self.component, PropertySet(), keys)
        image = self.extract_from_object(self.component, PropertySet())
        if self.key_filter is not None:
            self._owned_keys = list(image.keys())
        return image

    def snapshot(self) -> None:
        """Snapshot the durable state now.  A sharded plane calls this
        on each shard its placement cut gave keys to, so the cells the
        shard gained are in its lineage before anything is served."""
        with self._lock:
            self.durability.snapshot(self._durable_state())

    def _log(self, record: Dict[str, Any]) -> bool:
        """Append one WAL record; True when it is already durable."""
        if self.durability is None:
            return False
        return self.durability.append(record)

    def _recover_durable_state(self) -> List[str]:
        """Replay the lineage; returns the recovered exclusive owners."""
        rs = self.durability.recovered
        if rs.empty:
            # First boot of this lineage: snapshot the initial primary
            # copy.  State that predates the first commit is in no WAL
            # record, so without this a crash would lose it.
            self.durability.snapshot(self._durable_state())
            return []
        cells = 0
        snap = rs.snapshot
        if snap is not None:
            image: ObjectImage = snap["image"]
            if self.key_filter is not None:
                # A shard's snapshot may predate its plane's placement
                # cut (core/sharding.py): cells it no longer owns are
                # the new owner's to recover.
                owned = [k for k in image.keys() if self.key_filter(k)]
                if len(owned) != len(image):
                    image = image.restrict(owned)
            self.merge_into_object(self.component, image, PropertySet())
            cells += len(image)
            self.master_versions = snap["versions"].copy()
            self.commit_seq = int(snap["cseq"])
            for vd in snap.get("views") or []:
                self.views[vd["v"]] = ViewRecord.from_record(vd)
            # An older writer's entry also carries "img": ignored.
            for qd in snap.get("quarantined") or []:
                self.quarantined[qd["v"]] = QuarantinedView(
                    ViewRecord.from_record(qd),
                    qd.get("reason", "recovered"), float(qd.get("time", 0.0)),
                    qd.get("op"),
                )
        for record in rs.records:
            cells += self._replay(record)
        self.counters["wal_recoveries"] += 1
        self.counters["cells_replayed"] += cells
        self.transport.stats.record_recovery(cells)
        self._trace(
            "durable-recovery",
            cells=cells, records=len(rs.records),
            snapshot_lsn=rs.snapshot_lsn,
        )
        # Post-replay bookkeeping: recovered views get fresh leases (the
        # downtime must not count against them), the activity sets are
        # rebuilt from the replayed flags, membership-derived caches
        # start cold, and the lease sweep re-arms.
        for rec in self.views.values():
            self._renew_lease(rec)
            if rec.active:
                self._active_set.add(rec.view_id)
            if rec.exclusive:
                self._exclusive_set.add(rec.view_id)
            if self.static_map is not None and not self.static_map.has_view(
                rec.view_id
            ):
                self.static_map.add_view(rec.view_id)
        # Membership-derived caches start cold; the inverted index is
        # rebuilt from the recovered registry in one pass (replay never
        # queried it, so nothing stale survives).
        self.policy.reset_index(
            {vid: r.properties for vid, r in self.views.items()}
        )
        self.invalidate_slice_index()
        self._arm_lease_checker()
        # Surviving strong owners may hold dirty state the WAL never saw
        # (a handoff lost with the dead process): the constructor
        # reclaims from them before serving their conflict groups.
        return [vid for vid, rec in sorted(self.views.items()) if rec.exclusive]

    def _replay(self, record: Dict[str, Any]) -> int:
        """Apply one WAL record to blank post-restart state; returns the
        number of primary-copy cells it re-committed."""
        kind = record.get("k")
        if kind == "commit":
            img: ObjectImage = record["img"]
            rec = self.views.get(record.get("v"))
            props = rec.properties if rec is not None else PropertySet()
            self.merge_into_object(self.component, img, props)
            noadv = set(record.get("noadv") or ())
            for key in img.keys():
                v = img.versions.get(key)
                if v > self.master_versions.get(key):
                    self.master_versions.set(key, v)
                if rec is not None and key not in noadv:
                    rec.seen.set(key, max(rec.seen.get(key), v))
            if rec is not None:
                rec.last_state_seq = max(
                    rec.last_state_seq, int(record.get("sseq", 0))
                )
            self.commit_seq = max(self.commit_seq, int(record.get("cseq", 0)))
            return len(img)
        if kind == "register":
            self.views[record["v"]] = ViewRecord.from_record(record)
            self.quarantined.pop(record["v"], None)
        elif kind == "unregister":
            self.views.pop(record.get("v"), None)
            self.quarantined.pop(record.get("v"), None)
        elif kind in ("cur", "cursors"):
            rec = self.views.get(record.get("v"))
            if rec is not None:
                rec.apply(record)
        elif kind == "props":
            rec = self.views.get(record.get("v"))
            if rec is not None:
                rec.properties = record.get("props") or PropertySet()
                rec.synced = False
        elif kind in ("evict", "quarantine"):
            rec = self.views.get(record.get("v"))
            if rec is not None:
                self._quarantine_view(
                    rec, record.get("reason", "recovered"),
                    record.get("op"), time=0.0,
                )
                if kind == "evict":
                    del self.views[rec.view_id]
        else:
            self._trace("replay-unknown-record", kind=kind)
        return 0

    # ------------------------------------------------------------------
    # Committing updates
    # ------------------------------------------------------------------
    def _commit(
        self, rec: ViewRecord, image: ObjectImage, seq: Optional[int] = None
    ) -> int:
        """Merge pushed/collected cells into the component, bump versions.

        Returns the number of committed cells.  Every committed cell is
        one "update" in the paper's data-quality metric; the pushing
        view's seen-vector advances with it (it has, by definition, seen
        its own update).
        """
        prof = self.profiler
        if prof is None:
            return self._commit_inner(rec, image, seq)
        t0 = _clock_ns()
        n = self._commit_inner(rec, image, seq)
        prof.record("commit", _clock_ns() - t0)
        return n

    def _commit_inner(
        self, rec: ViewRecord, image: ObjectImage, seq: Optional[int] = None
    ) -> int:
        if self.key_filter is not None:
            owned = [k for k in image.keys() if self.key_filter(k)]
            if len(owned) != len(image):
                image = image.restrict(owned)
        if image.is_empty():
            return 0
        if seq is not None and seq <= rec.last_state_seq:
            # A delayed retransmission carrying a snapshot older than
            # state this view already handed over — committing it would
            # resurrect stale data.  Drop the image.
            self._trace("stale-state-seq", view=rec.view_id, seq=seq)
            return 0
        # All or nothing: the resolver and merge hooks run before
        # anything the directory owns moves, so a hook that raises
        # leaves no cursor, version, commit_seq or WAL record behind.
        resolved: set = set()
        if self.conflict_resolver is not None:
            # Write-write conflict: the pusher had not seen the latest
            # committed update to a cell it is now writing.  Resolve with
            # the application's function (Coda/Bayou-style, paper §4.1).
            stale = [
                k for k in image.keys()
                if rec.seen.get(k) < self.master_versions.get(k)
            ]
            if stale:
                current = self._extract_slice(rec, stale)
                for k in stale:
                    if k in current:
                        merged = self.conflict_resolver(
                            k, current.get(k), image.cells[k]
                        )
                        try:
                            changed = merged != image.cells[k]
                        except Exception:
                            changed = True  # incomparable: assume changed
                        image.cells[k] = merged
                        if changed:
                            resolved.add(k)
        self.merge_into_object(self.component, image, rec.properties)
        if seq is not None:
            rec.last_state_seq = seq
        if self.durability is not None:
            # The record carries the cells stamped with the versions the
            # bump loop below is about to assign, so replay can restore
            # master_versions without re-running the bumps.  Appended
            # after the merge returned (a merge that raises logs no
            # commit) and before commit_seq advances or any reply
            # leaves — under fsync=always the append has synced when it
            # returns, so no ACK can overtake the record.
            wal_image = ObjectImage(image.cells)
            for key in wal_image.keys():
                wal_image.versions.set(key, self.master_versions.get(key) + 1)
            wal_t0 = _clock_ns() if self.profiler is not None else 0
            durable = self._log({
                "k": "commit", "v": rec.view_id, "img": wal_image,
                "noadv": sorted(resolved), "sseq": rec.last_state_seq,
                "cseq": self.commit_seq + len(image),
            })
            if self.profiler is not None:
                self.profiler.record("wal", _clock_ns() - wal_t0)
            self.counters[
                "commits_durable" if durable else "commits_volatile"
            ] += len(image)
        else:
            self.counters["commits_volatile"] += len(image)
        self.counters["commits"] += len(image)
        for key in image.keys():
            newv = self.master_versions.bump(key)
            if key not in resolved:
                rec.seen.set(key, newv)
            # A resolver-rewritten cell is NOT what the pusher sent: its
            # seen-cursor stays behind the new master version so the next
            # (delta) serve ships the resolved value back; advancing it
            # would filter the key out of every delta and the view would
            # diverge from the primary copy permanently.
            if key not in self._known_keys:
                # A brand-new cell: any registered slice might cover it,
                # so every cached key list is suspect.
                self._known_keys.add(key)
                self.invalidate_slice_index()
            if self.on_commit is not None:
                self.on_commit(key, newv)
        self.commit_seq += len(image)
        if self.durability is not None:
            self.durability.note_commit(len(image), self._durable_state)
        return len(image)

    # ------------------------------------------------------------------
    def _cancel_timers(self) -> None:
        # A timer outliving the directory would act on torn-down state
        # (a round watchdog logs cursors to a closed WAL).
        timers = [op.timer for op in self._running.values()]
        for timer in (self._lease_timer, *timers):
            if timer is not None:
                timer.cancel()
        self._lease_timer = None

    def close(self) -> None:
        self._cancel_timers()
        if self.durability is not None:
            self.durability.close()  # clean shutdown: WAL tail synced
        self.endpoint.close()

    def crash(self, torn_tail: bytes = b"") -> None:
        """Die like a killed process: volatile state is simply abandoned,
        and the WAL loses exactly the bytes the fsync policy had not yet
        synced (optionally leaving ``torn_tail`` garbage from a record
        the kill interrupted).  Restart = construct a fresh
        DirectoryManager over the same DurabilitySpec; its recovery
        replays the lineage."""
        self._cancel_timers()
        if self.durability is not None:
            self.durability.simulate_crash(torn_tail=torn_tail)
        self.endpoint.close()
