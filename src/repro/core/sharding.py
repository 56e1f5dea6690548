"""Sharded directory plane: a partitioned primary copy behind a router.

Flecc's protocol is deliberately centralized — one directory manager
owns the primary copy and runs every conflict round.  That caps the
whole coherence plane at one process.  This module partitions the
primary copy across N independent :class:`DirectoryManager` *shards*
while keeping every cache manager oblivious:

- One **placement**, :class:`KeyRangePartitioner`, assigns each cell
  key to one shard: the component's sorted keys cut into contiguous
  ranges, so a view serving a run of adjacent keys — and with it every
  round of its conflict group — lives on one shard.  A plane that
  places keys itself cuts equal-count ranges at build time, provisional
  until the first data request, when the router re-cuts them once
  where no registered footprint straddles a split.
- A CM-side :class:`ShardRouter` (a ``LayeredTransport``) resolves
  each view to its **footprint** — the shards its slice can touch — by
  one rule: the owners of the values of the property that enumerates,
  verifiably, the view's keys.  A view on one shard is *forwarded*: its
  requests are retargeted to that shard and its replies pass through
  untouched, the unsharded message sequence.  Only a view whose slice
  genuinely spans shards is fanned out, its per-shard rounds meeting
  at a **merge barrier** in the router.
- :class:`ShardedDirectoryPlane` builds the shards (each sees only its
  own key partition via wrapped extract functions plus the directory's
  ``key_filter`` guard) and exposes plane-wide counters; the wire's
  :class:`~repro.net.stats.MessageStats` are the inner transport's.

**N=1 parity guarantee**: on a one-shard plane every view is a
one-shard view and the shard's address *is* the directory address, so
forwarding creates, rewrites and re-orders nothing — the plane is
byte/message-identical to the unsharded system and all existing
experiments remain valid.
"""

from __future__ import annotations

import bisect
import json
import logging
import threading
import zlib
from collections import Counter
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core import messages as M
from repro.core.directory import (
    DirectoryManager,
    ExtractCells,
    ExtractFromObject,
    MergeIntoObject,
)
from repro.core.domains import DiscreteSet
from repro.core.durability import DurabilitySpec, load_placement, store_placement
from repro.core.image import DeltaImage, ObjectImage
from repro.core.messages import TraceLog
from repro.core.property import Property
from repro.core.property_set import PropertySet
from repro.core.system import FleccSystem
from repro.errors import ReproError, TransportError
from repro.net.message import Message
from repro.net.transport import Endpoint, LayeredTransport, Transport

log = logging.getLogger(__name__)


class KeyRangePartitioner:
    """Order-preserving partition: one contiguous key range per shard.

    ``splits`` are the ``n_shards - 1`` sorted split points; shard ``i``
    owns the keys ``k`` with ``splits[i-1] <= k < splits[i]`` in plain
    string order, so every key — including one created after the split
    points were cut — has exactly one owner and neighbouring keys share
    it.  That is the placement a coherence plane wants: views serve
    runs of adjacent keys, views conflict when their runs overlap, so a
    conflict group's rounds all run on the one shard that owns the run.

    :meth:`from_keys` cuts equal-count ranges from a key population;
    :meth:`from_footprints` moves that cut off the registered views'
    footprints.  A :class:`ShardedDirectoryPlane` built without a
    partitioner uses the first at build time and the second, once, at
    its first data request.  A key-range partition names no partition
    property: the router finds and verifies, per view, the property
    that enumerates the view's keys (:meth:`ShardRouter.footprint`) and
    records the last name it found in ``partition_property`` — a label
    for result headers, which no routing decision and no fingerprint
    reads back.
    """

    def __init__(self, splits: Sequence[str] = ()) -> None:
        self.splits = [str(s) for s in splits]
        if self.splits != sorted(self.splits):
            raise ReproError(f"split points must be sorted, got {self.splits}")
        self.n_shards = len(self.splits) + 1
        self.partition_property: Optional[str] = None

    @classmethod
    def from_keys(cls, keys: Iterable[str], n_shards: int) -> "KeyRangePartitioner":
        """Cut the sorted distinct ``keys`` into ``n_shards`` contiguous
        ranges of equal count (to within one key)."""
        if n_shards < 1:
            raise ReproError(f"n_shards must be >= 1, got {n_shards}")
        ordered = sorted({str(k) for k in keys})
        if n_shards > 1 and not ordered:
            raise ReproError(
                f"cannot cut {n_shards} key ranges from a component with "
                f"no keys; pass a partitioner"
            )
        n = len(ordered)
        return cls([ordered[i * n // n_shards] for i in range(1, n_shards)])

    @classmethod
    def from_footprints(
        cls,
        keys: Iterable[str],
        footprints: Iterable[Iterable[str]],
        n_shards: int,
    ) -> "KeyRangePartitioner":
        """The :meth:`from_keys` cut, moved off the footprints.

        Position ``p`` among the sorted distinct ``keys`` is the split
        ``ordered[p]``; it is *allowed* when no footprint (a set of
        keys) has keys on both sides of it.  Each equal-count position
        moves to the nearest allowed one, the lower on a tie, so the
        splits stay sorted and shards may come out empty.  With no
        allowed position the equal-count cut stands.  Sorting and
        bisecting only: the cut does not depend on the process.
        """
        ordered = sorted({str(k) for k in keys})
        equal = cls.from_keys(ordered, n_shards)
        n = len(ordered)
        # A footprint straddles exactly the positions p with
        # min < ordered[p] <= max: one run, added up as a difference
        # array.
        depth = [0] * (n + 1)
        for footprint in footprints:
            values = [str(v) for v in footprint]
            if values:
                depth[bisect.bisect_right(ordered, min(values))] += 1
                depth[bisect.bisect_right(ordered, max(values))] -= 1
        allowed: List[int] = []
        straddling = 0
        for p in range(n):
            straddling += depth[p]
            if not straddling:
                allowed.append(p)
        if not allowed:
            return equal
        splits = []
        for i in range(1, n_shards):
            e = i * n // n_shards
            j = bisect.bisect_left(allowed, e)
            below = allowed[j - 1] if j else None
            above = allowed[j] if j < len(allowed) else None
            if below is None or (above is not None and above - e < e - below):
                splits.append(ordered[above])
            else:
                splits.append(ordered[below])
        return cls(splits)

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key`` (total: any key has one owner)."""
        return bisect.bisect_right(
            self.splits, key if isinstance(key, str) else str(key)
        )

    def fingerprint(self) -> str:
        """Restart-stable digest of the split points.

        Names per-shard durability lineages: a plane restarted with
        *different* split points must not recover a shard from a
        lineage whose key partition disagrees with where the new
        placement routes those keys.  CRC-32 over a canonical JSON
        spelling — never ``hash()``, which is salted per process.
        """
        spec = json.dumps({"keyrange": self.splits})
        return f"{zlib.crc32(spec.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _absorb(acc: ObjectImage, part: ObjectImage) -> None:
    """Union ``part`` into ``acc``, later/newer versions winning.

    Unlike :meth:`ObjectImage.merge_newer` this keeps version-0 cells
    (cells never committed at their shard carry version 0 in a complete
    serve — dropping them would truncate first-contact images) and lets
    an equal-version later serve overwrite an earlier one.
    """
    for key, value in part.cells.items():
        if key not in acc.cells or part.versions.get(key) >= acc.versions.get(key):
            acc.cells[key] = value
            acc.versions.set(key, part.versions.get(key))


class _ViewRoute:
    """Router-side registration state for one view."""

    __slots__ = (
        "view_id", "cm_addr", "properties", "register_payload", "keys",
        "shards", "forwarded", "shard_since", "serve_seq", "last_served",
        "inflight",
    )

    def __init__(self, view_id: str, cm_addr: str, properties: PropertySet) -> None:
        self.view_id = view_id
        self.cm_addr = cm_addr
        self.properties = properties
        # The footprint as keys, as verified at REGISTER (None: the view
        # spans the plane): what a provisional placement is re-cut by.
        self.keys: Optional[FrozenSet[str]] = None
        # The original REGISTER payload, kept for synthesized
        # registrations when a view's footprint later grows a shard.
        self.register_payload: Dict[str, Any] = {}
        self.shards: List[int] = []
        # Ids of requests forwarded to the view's only shard and not yet
        # answered: the first reply to each passes through to the CM, a
        # duplicate (the shard re-answering a retransmission) does not.
        self.forwarded: Set[int] = set()
        # The three cursors below exist only while the view spans
        # shards; a one-shard view's ``since`` is its shard's own cursor.
        # Per-shard delta cursors: the shard's commit cursor after its
        # last serve to this view.  The CM only ever sees the *merged*
        # cursor below, so shard cursors live here.
        self.shard_since: Dict[int, int] = {}
        # Merged-serve cursor handed to the CM (its ``since`` echoes it).
        self.serve_seq = 0
        self.last_served = -1
        # Open ACQUIRE barriers: a revocation from a shard one of them
        # has already been granted by is held (``_intercept_invalidate``).
        self.inflight: List["_Fanout"] = []


class _Fanout:
    """One CM request fanned out to several shards, awaiting the barrier."""

    __slots__ = (
        "orig", "route", "kind", "pending", "queue", "replies",
        "errors", "since", "asked_full", "held", "extra",
    )

    def __init__(self, orig: Message, route: _ViewRoute) -> None:
        self.orig = orig
        self.route = route
        self.kind = orig.msg_type
        # copy msg_id -> (shard, copy message); copies are kept so a CM
        # retransmission (same orig msg_id) re-sends the *same* copies
        # and the shards' reply caches stay dedup-correct.
        self.pending: Dict[int, Tuple[int, Message]] = {}
        # An ordered ACQUIRE's copies not yet sent, in ascending shard
        # order: the next goes out when the current shard has granted.
        self.queue: List[Tuple[int, Message]] = []
        self.replies: List[Tuple[int, Message]] = []
        self.errors: List[str] = []
        self.since: Optional[int] = None
        self.asked_full = False
        # Revocations from shards that already granted inside this
        # barrier, held until the merged grant is delivered.
        self.held: List[Message] = []
        self.extra: Dict[str, Any] = {}


_DATA_OPS = frozenset({M.ACQUIRE, M.PULL_REQ, M.INIT_REQ})
_DATA_REPLY = {M.ACQUIRE: M.GRANT, M.INIT_REQ: M.INIT_DATA, M.PULL_REQ: M.PULL_DATA}


class ShardRouter(LayeredTransport):
    """CM-side request router over a partitioned directory plane.

    Cache managers bind on this transport and address the plane by its
    single logical directory address; the router resolves each view to
    the shards its slice can touch (its *footprint*) and then applies
    one of two rules:

    - **forward** — the view's route holds exactly one shard: the
      request itself is retargeted to that shard (same ``msg_id``) and
      the shard's replies reach the cache manager untouched, so the view
      exchanges the unsharded message sequence.  On a one-shard plane
      every view is such a view and the shard address is the directory
      address, so the wire is byte/message-identical to the unsharded
      system.
    - **fan out** — the route holds several shards: per-shard copies
      meet at a merge barrier, and CM replies that carry cells owned by
      other shards are split (the foreign partitions travel as
      synthesized PUSHes to their home shards).

    Images leaving a cache manager are checked against the partition
    under both rules; a forwarded view that writes a key another shard
    owns grows its route and is fanned out from then on.

    A router whose plane placed keys provisionally (``recut`` set) has
    the split points re-cut once, at the first request that is not a
    REGISTER, and re-homes the views registered so far (``_place``).
    """

    def __init__(
        self,
        inner: Transport,
        directory_address: str,
        shard_addresses: Sequence[str],
        partitioner: KeyRangePartitioner,
    ) -> None:
        super().__init__(inner)
        if not shard_addresses:
            raise ReproError("ShardRouter needs at least one shard address")
        # One wire, one ledger: the router performs no sends of its own
        # account — everything it ships rides the inner transport, so
        # the plane-wide wire view *is* the inner transport's stats.
        self.stats = inner.stats
        self.directory_address = directory_address
        self.shard_addresses = list(shard_addresses)
        self._shard_index = {a: i for i, a in enumerate(self.shard_addresses)}
        self.partitioner = partitioner
        # The application's ``extract_from_object`` bound to the
        # component, set by the plane: what ``footprint`` verifies a
        # candidate property against.
        self.extract_slice: Optional[Callable[[PropertySet], ObjectImage]] = None
        # Set by a plane whose split points are a provisional cut:
        # called once, at the first request that is not a REGISTER,
        # with the footprints registered so far; it re-cuts the split
        # points in place (``_place``).
        self.recut: Optional[Callable[[List[FrozenSet[str]]], None]] = None
        self._key_shard: Dict[str, int] = {}
        self._inner_eps: Dict[str, Endpoint] = {}
        self._views: Dict[str, _ViewRoute] = {}
        self._by_addr: Dict[str, _ViewRoute] = {}
        self._orig: Dict[int, _Fanout] = {}
        self._copies: Dict[int, Tuple[_Fanout, int]] = {}
        self._swallow: Set[int] = set()
        self.counters: Dict[str, int] = {
            "router_fanouts": 0,
            "cross_shard_rounds": 0,
            "shard_local_rounds": 0,
            "synthesized_pushes": 0,
            "registrations_extended": 0,
            "late_replies": 0,
            "whole_plane_views": 0,
            "views_rehomed": 0,
        }
        self._lock = threading.RLock()
        self._closed = False

    # -- binding ---------------------------------------------------------
    def _on_bind(self, ep: Endpoint) -> None:
        handler = lambda m, _ep=ep: self._incoming(_ep, m)  # noqa: E731
        self._inner_eps[ep.address] = self.inner.bind(ep.address, handler)

    def _on_unbind(self, ep: Endpoint) -> None:
        inner_ep = self._inner_eps.pop(ep.address, None)
        if inner_ep is not None:
            inner_ep.close()
        route = self._by_addr.pop(ep.address, None)
        if route is not None:
            self._views.pop(route.view_id, None)

    # -- sending ---------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self._closed:
            raise TransportError("shard router closed")
        with self._lock:
            # Replies first: on a one-shard plane the shard's address
            # is the directory address.
            shard = self._shard_index.get(msg.dst)
            if shard is not None and msg.msg_type in M.CM_REPLIES:
                self._split_cm_reply(msg, shard)
                return
            if msg.dst == self.directory_address:
                self._route_request(msg)
                return
        self.inner.send(msg)

    # -- footprints ------------------------------------------------------
    def footprint(self, view_id: str, properties: PropertySet) -> List[int]:
        """Sorted shards the slice of ``view_id`` can touch.

        The router looks for a :class:`DiscreteSet` property that
        enumerates the view's cell keys and *verifies* it: one call of
        the application's own extract, and a property qualifies only if
        every extracted key is among its values.  The footprint is then
        the owners of that property's values — a superset of the owners
        of the slice, as long as the application keeps its side of the
        contract (slice keys ⊆ the property's values).  A view whose
        keys no property enumerates spans the plane, with a warning.
        """
        return self._owners(self._footprint_keys(view_id, properties))

    def _footprint_keys(
        self, view_id: str, properties: PropertySet
    ) -> Optional[FrozenSet[str]]:
        """The values of the verified enumerating property, as keys; None
        when the view spans the plane (always, on one shard)."""
        n_shards = len(self.shard_addresses)
        if n_shards == 1:
            return None
        prop, why = self._enumerating_property(properties)
        if prop is not None:
            self.partitioner.partition_property = prop.name
            return frozenset(str(v) for v in prop.domain.values)
        self.counters["whole_plane_views"] += 1
        log.warning("view %r spans all %d shards: %s", view_id, n_shards, why)
        return None

    def _owners(self, keys: Optional[FrozenSet[str]]) -> List[int]:
        if keys is None:
            return list(range(len(self.shard_addresses)))
        shard_of = self.partitioner.shard_of
        return sorted({shard_of(k) for k in keys})

    def _enumerating_property(
        self, properties: PropertySet
    ) -> Tuple[Optional[Property], str]:
        """The tightest DiscreteSet property whose values contain every
        key of the view's slice, or ``(None, why not)``."""
        candidates = [p for p in properties if isinstance(p.domain, DiscreteSet)]
        if not candidates:
            return None, "it declares no DiscreteSet property"
        if self.extract_slice is None:
            return None, "the router has no extract to verify a property with"
        keys = list(self.extract_slice(properties).keys())
        if not keys:
            return None, "its slice is empty, so no property can be verified"
        fits = [
            p for p in candidates
            if all(k in p.domain.values for k in keys)
        ]
        if not fits:
            return None, (
                f"none of {[p.name for p in candidates]} lists every slice "
                f"key (e.g. {keys[0]!r})"
            )
        return min(fits, key=lambda p: (len(p.domain), p.name)), ""

    # -- request routing -------------------------------------------------
    def _route_request(self, msg: Message) -> None:
        fan = self._orig.get(msg.msg_id)
        if fan is not None:
            # CM retransmission (same msg_id): re-send the unanswered
            # copies with their original ids so shard reply caches and
            # round dedup keep working.
            for _, copy in list(fan.pending.values()):
                self.inner.send(copy)
            return
        mt = msg.msg_type
        if mt == M.REGISTER:
            self._route_register(msg)
            return
        if self.recut is not None:
            self._place()
        route = self._views.get(msg.payload.get("view_id"))
        if route is None:
            self._deliver(msg.reply(M.ERROR, {"error": (
                f"message {mt} from unregistered view "
                f"{msg.payload.get('view_id')!r}"
            )}))
        elif mt in _DATA_OPS:
            self._route_data(msg, route)
        elif mt in (M.PUSH, M.UNREGISTER):
            self._route_state(msg, route)
        elif mt == M.PROP_UPDATE:
            self._route_prop_update(msg, route)
        elif mt in (M.SET_MODE, M.HEARTBEAT):
            self._route_broadcast(msg, route)
        else:
            self._deliver(msg.reply(
                M.ERROR, {"error": f"unroutable message type {mt}"}
            ))

    def _forward(self, msg: Message, route: _ViewRoute) -> None:
        """The one-shard rule: retarget the request itself and send it.

        No copy, no barrier: the shard answers the CM's own ``msg_id``,
        and ``_incoming`` hands that reply to the CM as it came.
        """
        shard = route.shards[0]
        msg.dst = self.shard_addresses[shard]
        route.forwarded.add(msg.msg_id)
        self.inner.send(msg)

    def _begin_fanout(
        self, msg: Message, route: _ViewRoute, targets: List[Tuple[int, Message]]
    ) -> _Fanout:
        fan = _Fanout(msg, route)
        self._orig[msg.msg_id] = fan
        if len(targets) > 1:
            self.counters["router_fanouts"] += 1
        self._launch(fan, targets)
        return fan

    def _launch(self, fan: _Fanout, targets: List[Tuple[int, Message]]) -> None:
        for shard, copy in targets:
            fan.pending[copy.msg_id] = (shard, copy)
            self._copies[copy.msg_id] = (fan, shard)
        for _, copy in targets:
            self.inner.send(copy)

    def _route_register(self, msg: Message) -> None:
        p = msg.payload
        view_id = p.get("view_id")
        properties = p.get("properties") or PropertySet()
        keys = self._footprint_keys(view_id, properties)
        shards = self._owners(keys)
        route = self._views.get(view_id)
        if route is None:
            route = _ViewRoute(view_id, msg.src, properties)
            self._views[view_id] = route
        route.cm_addr = msg.src
        self._by_addr[msg.src] = route
        route.properties = properties
        route.keys = keys
        route.shards = shards
        route.register_payload = dict(p)
        if len(shards) == 1:
            self._forward(msg, route)
            return
        targets = [
            (s, Message(M.REGISTER, msg.src, self.shard_addresses[s], dict(p)))
            for s in shards
        ]
        self._begin_fanout(msg, route, targets)

    def _place(self) -> None:
        """Have a provisional placement re-cut, then re-home the views.

        Runs once, before the first request that is not a REGISTER is
        routed: nothing has been served or committed yet, so moving a
        split point moves no cell, version or cursor — only the views
        registered so far.  The plane re-cuts the split points in place
        (the shards' ``_owns`` filters read them at call time), and each
        view whose shard set changed is re-homed the way
        ``_route_prop_update`` does it: a swallowed REGISTER to each
        shard it gains, an UNREGISTER with an empty image to each it
        loses.  All of that is sent before the triggering request, so
        per-link FIFO orders it ahead.
        """
        recut, self.recut = self.recut, None
        old = list(self.partitioner.splits)
        recut([r.keys for r in self._views.values() if r.keys is not None])
        self._key_shard.clear()
        moved = []
        for vid in sorted(self._views):
            route = self._views[vid]
            if route.keys is None:
                continue
            shards = self._owners(route.keys)
            if shards == route.shards:
                continue
            for shard in shards:
                if shard not in route.shards:
                    m = self._shard_register(route, shard, route.properties)
                    self._swallow.add(m.msg_id)
                    self.inner.send(m)
            for shard in route.shards:
                if shard not in shards:
                    m = Message(M.UNREGISTER, route.cm_addr,
                                self.shard_addresses[shard],
                                {"view_id": vid, "image": ObjectImage()})
                    self._swallow.add(m.msg_id)
                    self.inner.send(m)
            route.shards = shards
            moved.append(vid)
        self.counters["views_rehomed"] += len(moved)
        log.info("placement cut at the first data request: splits %s -> %s, "
                 "%d view(s) re-homed %s", old, self.partitioner.splits,
                 len(moved), moved)

    def _route_data(self, msg: Message, route: _ViewRoute) -> None:
        if len(route.shards) == 1:
            # Local *to one shard of several*: a one-shard plane has no
            # rounds that could have been anything else.
            if len(self.shard_addresses) > 1:
                self.counters["shard_local_rounds"] += 1
            self._forward(msg, route)
            return
        since = msg.payload.get("since")
        # A cursor the router did not hand out — first contact, a reset
        # after crash/property change, a cursor from the view's one-shard
        # past, or an explicit full request — means the CM's base cannot
        # anchor a merged delta: serve a complete image from every shard.
        asked_full = bool(msg.payload.get("full")) or (
            since is not None and (since < 0 or since != route.last_served)
        )
        fan = _Fanout(msg, route)
        fan.since = since
        fan.asked_full = asked_full
        self._orig[msg.msg_id] = fan
        targets: List[Tuple[int, Message]] = []
        for shard in route.shards:
            p = dict(msg.payload)
            if since is not None:
                p["since"] = route.shard_since.get(shard, -1)
                if asked_full:
                    p["full"] = True
                else:
                    p.pop("full", None)
            targets.append(
                (shard, Message(msg.msg_type, msg.src,
                                self.shard_addresses[shard], p))
            )
        if msg.msg_type == M.ACQUIRE:
            # Ordered acquisition: the shards grant one at a time, in
            # ascending index (see ``_intercept_invalidate``).  The
            # order is frozen here, so a route that grows mid-barrier
            # cannot shift it.
            route.inflight.append(fan)
            targets, fan.queue = targets[:1], targets[1:]
        self.counters["cross_shard_rounds"] += 1
        self.counters["router_fanouts"] += 1
        self._launch(fan, targets)

    def _route_state(self, msg: Message, route: _ViewRoute) -> None:
        """PUSH / UNREGISTER: requests that carry the view's cells."""
        image: ObjectImage = msg.payload.get("image") or ObjectImage()
        groups = self._group_keys(image)
        for shard in sorted(groups):
            if shard not in route.shards:
                self._extend_route(route, shard)
        if len(route.shards) == 1:
            self._forward(msg, route)
            return
        if msg.msg_type == M.UNREGISTER:
            shards = route.shards
        else:
            # A PUSH goes where its cells live; an empty one still needs
            # one shard to ACK (and renew the lease).
            shards = sorted(groups) or route.shards[:1]
        state_seq = msg.payload.get("state_seq")
        targets = [
            (shard, Message(msg.msg_type, msg.src, self.shard_addresses[shard],
                            {"view_id": route.view_id,
                             "image": image.restrict(groups.get(shard, [])),
                             "state_seq": state_seq}))
            for shard in shards
        ]
        self._begin_fanout(msg, route, targets)

    def _route_prop_update(self, msg: Message, route: _ViewRoute) -> None:
        properties = msg.payload.get("properties")
        if not isinstance(properties, PropertySet):
            self._deliver(msg.reply(M.ERROR, {"error": "properties missing"}))
            return
        new = self.footprint(route.view_id, properties)
        if len(new) == 1 and new == route.shards:
            route.properties = properties
            self._forward(msg, route)
            return
        new_shards = set(new)
        old_shards = set(route.shards)
        targets: List[Tuple[int, Message]] = []
        for shard in sorted(new_shards & old_shards):
            targets.append(
                (shard, Message(M.PROP_UPDATE, msg.src,
                                self.shard_addresses[shard],
                                {"view_id": route.view_id,
                                 "properties": properties}))
            )
        for shard in sorted(new_shards - old_shards):
            # The slice now reaches a shard that has never seen this
            # view: register it there inside the same barrier.
            targets.append((shard, self._shard_register(route, shard, properties)))
        for shard in sorted(old_shards - new_shards):
            targets.append(
                (shard, Message(M.UNREGISTER, msg.src,
                                self.shard_addresses[shard],
                                {"view_id": route.view_id,
                                 "image": ObjectImage()}))
            )
        fan = self._begin_fanout(msg, route, targets)
        fan.extra["new_shards"] = new
        fan.extra["new_properties"] = properties

    def _route_broadcast(self, msg: Message, route: _ViewRoute) -> None:
        if len(route.shards) == 1:
            self._forward(msg, route)
            return
        targets = [
            (shard, Message(msg.msg_type, msg.src,
                            self.shard_addresses[shard], dict(msg.payload)))
            for shard in route.shards
        ]
        self._begin_fanout(msg, route, targets)

    # -- CM replies carrying state (INVALIDATE_ACK / FETCH_REPLY) --------
    def _split_cm_reply(self, msg: Message, shard: int) -> None:
        """Keep the asking shard's partition in the reply; ship the rest.

        A revoked spanning view hands *all* its dirty cells to whichever
        shard asked first.  Cells the asking shard does not own would be
        dropped by its ``key_filter``, so they are re-homed here as
        synthesized PUSHes — sent before the reply, and FIFO per link,
        so a shard always commits its partition before any later round
        reply from this CM reaches it.  A one-shard view's reply has no
        such cells (unless it wrote outside its footprint, which grows
        its route) and leaves as it came.
        """
        route = self._by_addr.get(msg.src)
        image = msg.payload.get("image")
        if route is not None and image is not None and not image.is_empty():
            groups = self._group_keys(image)
            own_keys = groups.pop(shard, [])
            for other in sorted(groups):
                if other not in route.shards:
                    self._extend_route(route, other)
                push = Message(
                    M.PUSH, msg.src, self.shard_addresses[other],
                    # No state_seq: the per-shard cursors gate the CM's
                    # own pushes; a re-homed partition must always land.
                    {"view_id": route.view_id,
                     "image": image.restrict(groups[other])},
                )
                self._swallow.add(push.msg_id)
                self.counters["synthesized_pushes"] += 1
                self.inner.send(push)
            if groups:
                msg.payload["image"] = image.restrict(own_keys)
        self.inner.send(msg)

    def _group_keys(self, image: ObjectImage) -> Dict[int, List[str]]:
        """The image's keys by owning shard (key -> shard is memoised:
        the same few cells leave a cache manager over and over)."""
        owner = self._key_shard
        groups: Dict[int, List[str]] = {}
        for key in image.keys():
            shard = owner.get(key)
            if shard is None:
                shard = owner[key] = self.partitioner.shard_of(key)
            groups.setdefault(shard, []).append(key)
        return groups

    def _extend_route(self, route: _ViewRoute, shard: int) -> None:
        """Synthesize a registration on a shard the view has outgrown to.

        FIFO per link guarantees the REGISTER lands before anything this
        method's callers send to the same shard right after.
        """
        m = self._shard_register(route, shard, route.properties)
        self._swallow.add(m.msg_id)
        self.counters["registrations_extended"] += 1
        if len(route.shards) == 1:
            # Leaving the one-shard rule: the CM's cursor is its first
            # shard's own, which anchors no merged delta — the next
            # serve must be complete, from every shard.
            route.shard_since = {}
            route.last_served = -1
        route.shards = sorted(set(route.shards) | {shard})
        self.inner.send(m)

    def _shard_register(
        self, route: _ViewRoute, shard: int, properties: PropertySet
    ) -> Message:
        """A REGISTER, synthesized from the view's own, for a shard its
        slice newly reaches (recover=True keeps it idempotent against
        stale state there)."""
        reg = dict(route.register_payload, properties=properties, recover=True)
        return Message(M.REGISTER, route.cm_addr, self.shard_addresses[shard], reg)

    # -- incoming (wrapped CM endpoints) ---------------------------------
    def _incoming(self, ep: Endpoint, msg: Message) -> None:
        with self._lock:
            reply_to = msg.reply_to
            if reply_to is not None:
                entry = self._copies.pop(reply_to, None)
                if entry is not None:
                    fan, shard = entry
                    self._on_copy_reply(fan, shard, msg)
                    return
                if reply_to in self._swallow:
                    self._swallow.discard(reply_to)
                    return
                if msg.src in self._shard_index:
                    route = self._by_addr.get(ep.address)
                    if route is None or reply_to not in route.forwarded:
                        # Answered already, or a reply to an abandoned
                        # copy (a duplicate after the barrier closed) —
                        # consume it quietly.
                        self.counters["late_replies"] += 1
                        return
                    route.forwarded.discard(reply_to)
            elif msg.msg_type == M.INVALIDATE:
                if self._intercept_invalidate(msg):
                    return
        ep.handler(msg)

    def _intercept_invalidate(self, msg: Message) -> bool:
        """Ordering rule for revocations racing an open acquire barrier.

        A CM that is mid-acquire answers INVALIDATE with an *empty* ACK
        (it is not in its critical section yet), silently surrendering
        any shard token the open barrier already collected — the merged
        grant the router is about to deliver would then claim ownership
        a shard has already given away (a lost-update hole).  So a
        revocation from a shard that already granted inside an open
        barrier is held until the merged grant is delivered, then
        released: the CM is in (or past) its critical section by then,
        and its ACK carries the section's writes.

        Holding cannot deadlock, because a spanning ACQUIRE takes its
        shards in ascending index, one at a time (``_route_data``): a
        barrier that holds shard *k*'s revocation waits only on a shard
        above *k*, so every wait points to a higher shard and no cycle
        closes.

        A revocation from a shard that has *not* yet granted in this
        barrier costs nothing (no token to lose — the shard's grant will
        come from a later round) and passes straight through.

        Returns True when the message was consumed (held).
        """
        route = self._by_addr.get(msg.dst)
        shard = self._shard_index.get(msg.src)
        if route is None or shard is None:
            return False
        for fan in route.inflight:
            if any(s == shard for s, _ in fan.replies):
                fan.held.append(msg)
                return True
        return False

    def _release_held(self, fan: _Fanout) -> None:
        """Deliver held revocations to the CM (after grant or on abort)."""
        held, fan.held = fan.held, []
        for m in held:
            self._deliver(m)

    def _on_copy_reply(self, fan: _Fanout, shard: int, msg: Message) -> None:
        fan.pending.pop(msg.reply_to, None)
        if msg.msg_type == M.ERROR:
            fan.errors.append(msg.payload.get("error", "shard error"))
        else:
            fan.replies.append((shard, msg))
        if fan.pending:
            return
        if fan.queue and not fan.errors:
            self._launch(fan, [fan.queue.pop(0)])
        else:
            self._finalize(fan)

    # -- barrier merges --------------------------------------------------
    # A merged reply is handed to the CM's endpoint locally (``_deliver``):
    # the per-shard replies already paid their wire latency and
    # accounting; the merge itself is local to the router.
    def _finalize(self, fan: _Fanout) -> None:
        route = fan.route
        vid = route.view_id
        self._orig.pop(fan.orig.msg_id, None)
        if fan in route.inflight:
            route.inflight.remove(fan)
        if fan.errors:
            error = "; ".join(fan.errors)
            log.warning("%s from view %r failed on the shard plane: %s",
                        fan.kind, vid, error)
            self._deliver(fan.orig.reply(M.ERROR, {"error": error}))
            self._release_held(fan)
            return
        if fan.kind in _DATA_OPS:
            self._finalize_data(fan)
            return
        replies = [m for _, m in fan.replies]
        lease = next(
            (m.payload.get("lease") for m in replies
             if m.payload.get("lease") is not None), None,
        )
        if fan.kind == M.REGISTER:
            self._deliver(fan.orig.reply(M.REGISTER_ACK, {
                "view_id": vid,
                "recovered": any(m.payload.get("recovered") for m in replies),
                "last_state_seq": max(
                    (m.payload.get("last_state_seq") or 0 for m in replies),
                    default=0,
                ),
                "lease": lease,
                "slice_size": sum(
                    m.payload.get("slice_size") or 0 for m in replies
                ),
            }))
        elif fan.kind == M.PUSH:
            self._deliver(fan.orig.reply(M.PUSH_ACK, {
                "committed": sum(
                    m.payload.get("committed", 0) for m in replies
                ),
            }))
        elif fan.kind == M.UNREGISTER:
            self._views.pop(vid, None)
            self._by_addr.pop(route.cm_addr, None)
            self._deliver(fan.orig.reply(M.UNREGISTER_ACK, {"view_id": vid}))
        elif fan.kind == M.PROP_UPDATE:
            route.properties = fan.extra["new_properties"]
            route.shards = fan.extra["new_shards"]
            kept = set(route.shards)
            route.shard_since = {
                s: route.shard_since.get(s, -1) for s in kept
            }
            # The slice changed shape: the CM resets its cursor to -1,
            # and the next serve must be complete.
            route.last_served = -1
            self._deliver(fan.orig.reply(M.PROP_UPDATE_ACK, {"view_id": vid}))
        elif fan.kind == M.SET_MODE:
            payload = replies[0].payload if replies else {}
            self._deliver(fan.orig.reply(M.SET_MODE_ACK, dict(payload)))
        elif fan.kind == M.HEARTBEAT:
            self._deliver(fan.orig.reply(
                M.HEARTBEAT_ACK, {"view_id": vid, "lease": lease}
            ))
        else:  # pragma: no cover - routing covers every request type
            self._deliver(fan.orig.reply(
                M.ERROR, {"error": f"unmergeable {fan.kind}"}
            ))

    def _finalize_data(self, fan: _Fanout) -> None:
        route = fan.route
        acc = ObjectImage()
        plain = False
        slice_size = 0
        for shard, msg in fan.replies:
            image = msg.payload.get("image")
            if isinstance(image, DeltaImage):
                route.shard_since[shard] = image.as_of
                slice_size += image.slice_size
                part = image.image
            else:
                plain = True
                part = image if image is not None else ObjectImage()
            _absorb(acc, part)
        if plain or fan.since is None:
            payload: Dict[str, Any] = {"image": acc}
        else:
            route.serve_seq += 1
            payload = {"image": DeltaImage(
                acc,
                base_seq=-1 if fan.asked_full else fan.since,
                as_of=route.serve_seq,
                complete=fan.asked_full,
                slice_size=slice_size,
            )}
            route.last_served = route.serve_seq
        self._deliver(fan.orig.reply(_DATA_REPLY[fan.kind], payload))
        if fan.held:
            # Release held revocations once the grant has taken effect.
            # Triggered completions run ahead of same-time timers, so a
            # zero-delay timer fires after the CM has processed the
            # grant (entered — possibly already left — its critical
            # section); its ACK then carries the section's writes.
            self.inner.schedule(0.0, lambda: self._release_held(fan))

    def close(self) -> None:
        self._closed = True
        self.recut = None  # the plane's bound method: a cycle through it
        super().close()  # closes router endpoints -> unbinds inner ones
        # The inner transport is shared with the shards; its owner
        # (the plane / the caller) closes it.


def _place_keys(
    n_shards: int,
    component: Any,
    extract_from_object: ExtractFromObject,
    durability: Optional[DurabilitySpec],
) -> Tuple[KeyRangePartitioner, Optional[Dict[str, Any]], Optional[List[str]]]:
    """The default placement, the manifest it was read from (None when
    cut fresh) and, while the placement is provisional, the component's
    sorted keys as they are now, which the cut at the first data
    request is taken over (None once placed, and on one shard).

    The split points are the manifest's when a durable plane was built
    here before, else equal-count ranges cut from those keys.
    """
    saved = load_placement(durability) if durability is not None else None
    if saved is not None:
        part = KeyRangePartitioner(saved["splits"])
        lineages = saved.get("lineages")
        if part.n_shards != n_shards or (
            lineages is not None and len(lineages) != n_shards
        ):
            raise ReproError(
                f"{durability.placement_path}: placed for {part.n_shards} "
                f"shards, plane built with n_shards={n_shards}"
            )
        if part.fingerprint() != saved["fingerprint"]:
            raise ReproError(
                f"{durability.placement_path}: split points do not match "
                f"their fingerprint {saved['fingerprint']!r}"
            )
        if saved.get("placed", True):
            return part, saved, None
    if n_shards == 1:
        return KeyRangePartitioner(), saved, None
    keys = sorted(
        {str(k) for k in extract_from_object(component, PropertySet()).keys()}
    )
    if saved is not None:
        return part, saved, keys
    return KeyRangePartitioner.from_keys(keys, n_shards), None, keys


class ShardedDirectoryPlane:
    """N directory shards + the router, presented as one directory.

    Each shard is a full :class:`DirectoryManager` whose extract hooks
    are wrapped to see only the shard's key partition, with the
    directory's ``key_filter`` as a second line of defense against
    foreign-key commits (a foreign commit would bump versions the owning
    shard never sees and silently fork the version history).

    Built without a ``partitioner`` the plane places keys itself: it
    enumerates the component's keys once (an extract with the empty
    property set, the convention directory snapshots use) and cuts them
    into ``n_shards`` contiguous equal-count ranges
    (:meth:`KeyRangePartitioner.from_keys`).  That cut is provisional:
    at the first routed request that is not a REGISTER the router
    re-cuts it, once, where no registered footprint straddles a split
    (:meth:`KeyRangePartitioner.from_footprints`).  Placement that
    depends on data is state: a durable plane writes the split points to
    a manifest beside its lineages at first build, marked provisional,
    rewrites it at the cut, and *reads it back* on every rebuild, so a
    component that has grown since cannot shift the routing under
    lineages already on disk.  The lineages keep the names they were
    opened under (the manifest lists them); a plane rebuilt from a
    placed manifest never cuts again, one rebuilt from a provisional
    manifest cuts at its next first data request.

    With ``n_shards=1`` the plane degenerates to exactly the unsharded
    construction — raw extract functions, no key filter, the original
    directory address — and the router forwards everything as it came,
    so the wire is byte/message-identical to a plain DirectoryManager.
    """

    def __init__(
        self,
        transport: Transport,
        component: Any,
        extract_from_object: ExtractFromObject,
        merge_into_object: MergeIntoObject,
        n_shards: int = 1,
        partitioner: Optional[KeyRangePartitioner] = None,
        directory_address: str = "dir",
        directory_cls: type = DirectoryManager,
        trace: Optional[TraceLog] = None,
        **dm_kwargs: Any,
    ) -> None:
        # Durable plane: one WAL/snapshot lineage per shard, named by
        # shard id + the fingerprint of the partitioner it was opened
        # under — recovering through a *different* partitioner would
        # re-home cells the new routing sends elsewhere, so the lineage
        # name pins the partition.  The provisional cut's re-cut moves
        # no committed cell, so the lineages keep their names; the
        # manifest lists them.
        durability = dm_kwargs.pop("durability", None)
        if durability is not None and not isinstance(durability, DurabilitySpec):
            raise ReproError(
                "a sharded plane needs a DurabilitySpec (it derives one "
                f"lineage per shard), got {type(durability).__name__}"
            )
        manifest: Optional[Dict[str, Any]] = None
        # The component's keys while the placement is provisional: the
        # cut at the first data request is taken over them.
        self._keys: Optional[List[str]] = None
        if partitioner is None:
            partitioner, manifest, self._keys = _place_keys(
                n_shards, component, extract_from_object, durability
            )
        provisional = self._keys is not None
        self.partitioner = partitioner
        self.n_shards = partitioner.n_shards
        self.address = directory_address
        self.inner = transport
        self.trace = trace
        if self.n_shards == 1:
            self.addresses = [directory_address]
        else:
            self.addresses = [
                f"{directory_address}#{i}" for i in range(self.n_shards)
            ]
        self.router = ShardRouter(
            transport, directory_address, self.addresses, partitioner
        )
        self.router.extract_slice = (
            lambda props: extract_from_object(component, props)
        )
        self._durability = durability
        self._lineages: List[str] = []
        # Shards crashed and not yet restarted (``crash_shard``).
        self._down: Set[int] = set()
        if durability is not None:
            fingerprint = partitioner.fingerprint()
            self._lineages = (manifest or {}).get("lineages") or [
                durability.for_shard(i, fingerprint).name
                for i in range(self.n_shards)
            ]
            if manifest is None and provisional:
                self._record_placement(placed=False)
        if provisional:
            self.router.recut = self._recut
        self.shards: List[DirectoryManager] = []
        self._shard_factories: List[Callable[[], DirectoryManager]] = []
        for i, addr in enumerate(self.addresses):
            kwargs = dict(dm_kwargs)
            if self.n_shards == 1:
                extract = extract_from_object
            else:
                extract = self._partition_extract(extract_from_object, i)
                if kwargs.get("extract_cells") is not None:
                    kwargs["extract_cells"] = self._partition_extract_cells(
                        kwargs["extract_cells"], i
                    )
                kwargs["key_filter"] = self._owns(i)
            if durability is not None:
                kwargs["durability"] = replace(durability, name=self._lineages[i])

            def factory(
                _addr: str = addr,
                _extract: ExtractFromObject = extract,
                _kwargs: Dict[str, Any] = kwargs,
            ) -> DirectoryManager:
                return directory_cls(
                    transport=transport,
                    address=_addr,
                    component=component,
                    extract_from_object=_extract,
                    merge_into_object=merge_into_object,
                    trace=trace,
                    **_kwargs,
                )

            self._shard_factories.append(factory)
            self.shards.append(factory())

    def _record_placement(self, placed: bool) -> None:
        store_placement(self._durability, {
            "splits": list(self.partitioner.splits),
            "fingerprint": self.partitioner.fingerprint(),
            "placed": placed,
            "lineages": self._lineages,
        })

    def _recut(self, footprints: List[FrozenSet[str]]) -> None:
        """The one re-cut of the provisional split points, at the first
        data request (``ShardRouter._place``): off the registered
        footprints, in place.  If they move, every shard's slice index
        was built on the old partition, and a durable plane snapshots
        each shard that gained keys — its boot snapshot holds only the
        cells it owned then — before it records the final placement.
        With a shard down the provisional cut stands as the final one:
        a move would need the down shard's cells, which are back in
        memory only once it has recovered its boot snapshot."""
        part = self.partitioner
        keys, self._keys = self._keys or [], None
        old = [part.shard_of(k) for k in keys]
        gained: List[int] = []
        if keys and not self._down:
            splits = KeyRangePartitioner.from_footprints(
                keys, footprints, part.n_shards
            ).splits
            if splits != part.splits:
                part.splits[:] = splits
                for dm in self.shards:
                    dm.invalidate_slice_index()
                gained = sorted({
                    part.shard_of(k) for k, was in zip(keys, old)
                    if part.shard_of(k) != was
                })
        if self._durability is not None:
            for shard in gained:
                self.shards[shard].snapshot()
            self._record_placement(placed=True)

    def _owns(self, shard: int) -> Callable[[str], bool]:
        part = self.partitioner

        def owns(key: str, _shard: int = shard) -> bool:
            return part.shard_of(key) == _shard

        return owns

    def _partition_extract(
        self, fn: ExtractFromObject, shard: int
    ) -> ExtractFromObject:
        owns = self._owns(shard)

        def extract(component: Any, props: PropertySet) -> ObjectImage:
            image = fn(component, props)
            return image.restrict([k for k in image.keys() if owns(k)])

        return extract

    def _partition_extract_cells(
        self, fn: ExtractCells, shard: int
    ) -> ExtractCells:
        owns = self._owns(shard)

        def extract_cells(
            component: Any, props: PropertySet, keys: List[str]
        ) -> ObjectImage:
            return fn(component, props, [k for k in keys if owns(k)])

        return extract_cells

    # -- plane-wide introspection ----------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        """Shard counters summed, plus the router's own counters."""
        total: Counter = Counter()
        for dm in self.shards:
            total.update(dm.counters)
        total.update(self.router.counters)
        return dict(total)

    def merged_profile(self):
        """Per-shard op-path profiles folded into one plane-wide
        :class:`~repro.core.profiling.DirectoryProfiler` (``None`` when
        the shards were not built with ``profile=True``)."""
        from repro.core.profiling import DirectoryProfiler

        merged: Optional[DirectoryProfiler] = None
        for dm in self.shards:
            prof = getattr(dm, "profiler", None)
            if prof is None:
                continue
            if merged is None:
                merged = DirectoryProfiler()
            merged.merge(prof)
        return merged

    def registered_views(self) -> List[str]:
        out: Set[str] = set()
        for dm in self.shards:
            out.update(dm.registered_views())
        return sorted(out)

    def check_invariants(self) -> None:
        for dm in self.shards:
            dm.check_invariants()

    # -- crash / restart (durable planes) --------------------------------
    def crash_shard(self, shard: int = 0, torn_tail: bytes = b"") -> None:
        """Kill one shard like a dead process (see DirectoryManager.crash):
        its volatile state is abandoned and its WAL loses exactly what
        the fsync policy had not synced."""
        self._down.add(shard)
        self.shards[shard].crash(torn_tail=torn_tail)

    def restart_shard(self, shard: int = 0) -> DirectoryManager:
        """Bring a crashed shard back: a fresh DirectoryManager over the
        same construction spec recovers the shard's durable lineage and
        re-binds the shard address."""
        self.shards[shard] = self._shard_factories[shard]()
        self._down.discard(shard)
        return self.shards[shard]

    def close(self) -> None:
        for dm in self.shards:
            dm.close()
        self.router.close()


class ShardedFleccSystem(FleccSystem):
    """Drop-in :class:`~repro.core.system.FleccSystem` over a sharded plane.

    Same constructor surface plus ``n_shards`` / ``partitioner``; views
    attach exactly as on the unsharded builder (the cache managers bind
    on the router and never learn the plane is partitioned).

    Directory options apply per shard: each shard keeps its own
    conflict index over the views registered with it, its own profiler
    (fold with ``plane.merged_profile()``) and its own conflict-aware
    round scheduler, overlapping rounds for independent conflict groups
    of *its* partition.  The router holds a revocation only inside one
    view's ordered acquire barrier, so a held revocation blocks only its
    own conflict group's round, not the shard's whole queue.
    """

    def __init__(
        self,
        transport: Transport,
        component: Any,
        extract_from_object: ExtractFromObject,
        merge_into_object: MergeIntoObject,
        n_shards: int = 1,
        partitioner: Optional[KeyRangePartitioner] = None,
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """``*args``/``**kwargs`` are :class:`FleccSystem`'s remaining
        parameters, from ``directory_address`` on."""
        self._n_shards = n_shards
        self._partitioner = partitioner
        super().__init__(
            transport, component, extract_from_object, merge_into_object,
            *args, **kwargs,
        )

    def _build_directory(
        self,
        directory_cls: type,
        transport: Transport,
        address: str,
        component: Any,
        extract_from_object: ExtractFromObject,
        merge_into_object: MergeIntoObject,
        **dm_kwargs: Any,
    ) -> ShardedDirectoryPlane:
        self.plane = ShardedDirectoryPlane(
            transport,
            component,
            extract_from_object,
            merge_into_object,
            n_shards=self._n_shards,
            partitioner=self._partitioner,
            directory_address=address,
            directory_cls=directory_cls,
            **dm_kwargs,
        )
        # Views bind on the router; ``.directory`` is the plane (it has
        # ``.address``/``.counters``/``.check_invariants`` like a DM).
        self.transport = self.plane.router
        return self.plane
