"""The cache manager (paper §4.2) and its view-facing API (Fig 3).

One cache manager accompanies each deployed view.  It forwards view
requests to the directory manager, executes directory commands
(INVALIDATE, FETCH_REQ), evaluates quality triggers against the
transport clock and reflected view variables, and moves state in/out of
the view through the application's extract/merge functions.

The view-facing API mirrors the paper's Fig 3 listing::

    cm = CacheManager(...)            # (1) create cache manager
    cm.start().wait()                 #     register with the directory
    cm.init_image().wait()            # (2) initialize data
    cm.pull_image().wait()            # (3) work with data ...
    cm.start_use_image().wait()
    ...application method...
    cm.end_use_image()
    cm.push_image().wait()
    cm.kill_image().wait()            # (4) kill cache manager

Every method returns a :class:`~repro.net.transport.Completion`; sim
code yields ``completion.sim_event()``, threaded code calls
``completion.wait()`` (the examples show both styles).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core import messages as M
from repro.core.image import DeltaImage, ObjectImage
from repro.core.messages import TraceLog
from repro.core.modes import Mode
from repro.core.property_set import PropertySet
from repro.core.reflection import reflect_variables
from repro.core.triggers import TriggerSet
from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net.transport import Completion, Transport

# Application-facing function signatures (paper Fig 3):
#   extract_from_view(view, view_property_list) -> ObjectImage
#   merge_into_view(view, image, view_property_list) -> None
ExtractFromView = Callable[[Any, PropertySet], ObjectImage]
MergeIntoView = Callable[[Any, ObjectImage, PropertySet], None]


class _CompletionLock:
    """FIFO lock built on completions — works on both transport backends.

    Used for the ``startUseImage``/``endUseImage`` mutual exclusion the
    paper requires between application use and merge/extract (Fig 2
    steps 6-7).
    """

    def __init__(self, transport: Transport, name: str = "use-lock") -> None:
        self._transport = transport
        self.name = name
        self._held = False
        self._queue: Deque[Completion] = deque()
        self._lock = threading.Lock()

    @property
    def held(self) -> bool:
        return self._held

    def acquire(self) -> Completion:
        comp = self._transport.completion(f"{self.name}.acquire")
        grant_now = False
        with self._lock:
            if not self._held:
                self._held = True
                grant_now = True
            else:
                self._queue.append(comp)
        if grant_now:
            comp.resolve(None)
        return comp

    def try_acquire(self) -> bool:
        with self._lock:
            if self._held:
                return False
            self._held = True
            return True

    def release(self) -> None:
        nxt: Optional[Completion] = None
        with self._lock:
            if not self._held:
                raise ProtocolError(f"{self.name}: release while not held")
            if self._queue:
                nxt = self._queue.popleft()
            else:
                self._held = False
        if nxt is not None:
            nxt.resolve(None)


class CacheManager:
    """Per-view protocol engine + application API."""

    def __init__(
        self,
        transport: Transport,
        directory_address: str,
        view_id: str,
        view: Any,
        properties: PropertySet,
        extract_from_view: ExtractFromView,
        merge_into_view: MergeIntoView,
        mode: Mode | str = Mode.WEAK,
        triggers: Optional[TriggerSet] = None,
        trigger_poll_period: float = 100.0,
        address: Optional[str] = None,
        trace: Optional[TraceLog] = None,
        request_timeout: Optional[float] = None,
        max_retries: int = 3,
        heartbeat_period: Optional[float] = None,
        delta: bool = True,
    ) -> None:
        self.transport = transport
        self.directory_address = directory_address
        self.view_id = view_id
        self.view = view
        self.properties = properties
        self.extract_from_view = extract_from_view
        self.merge_into_view = merge_into_view
        self.mode = Mode.parse(mode)
        self.triggers = triggers or TriggerSet()
        self.trigger_poll_period = trigger_poll_period
        self.address = address or f"cm:{view_id}"
        self.trace = trace
        # At-least-once sending: when request_timeout is set, an
        # unanswered request is retransmitted (same msg_id, so the
        # directory's reply cache makes the retry idempotent) up to
        # max_retries times before the waiting completion fails.
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        # Lease renewal: when set, the CM sends HEARTBEAT every period
        # after registration so the directory's failure detector keeps
        # its lease alive.  Repeated heartbeat silence degrades the CM
        # (see below) instead of letting it operate on a dead link.
        self.heartbeat_period = heartbeat_period
        # Delta synchronization: attach a ``since`` cursor to every data
        # request so the directory can serve only the cells that changed
        # since our last sync.  Off → requests carry no cursor and every
        # serve ships the full slice (the paper's baseline wire format).
        self.delta = delta

        # Protocol state.
        # Every state-carrying message (PUSH, UNREGISTER, INVALIDATE_ACK,
        # FETCH_REPLY) is stamped with an increasing per-view sequence
        # number so a delayed retransmission can never re-commit a stale
        # snapshot over newer state at the directory.
        self._state_seq = 0
        self.registered = False
        self.owner = False        # strong-mode exclusive ownership
        self.invalidated = True   # until first init, local data is invalid
        self._base: ObjectImage = ObjectImage()  # state as of last sync
        # Delta-sync base: the accumulated slice image (last complete
        # serve ⊕ every delta since), and the directory commit cursor it
        # corresponds to.  ``-1`` means "no base" — the next serve must
        # be complete.
        self._synced: Optional[ObjectImage] = None
        self._since: int = -1
        self._pending: Dict[int, Completion] = {}
        # Invalidations deferred while the view is inside its critical
        # section.  A list (not a slot): on a sharded directory plane,
        # several shards can concurrently revoke one spanning view, and
        # every revoker must be answered *after* the critical section —
        # acking any of them early would let a contending view be
        # granted that shard's partition while we are still writing it.
        self._pending_invalidates: List[Message] = []
        # Full-slice fetches (a recovering directory reclaiming the
        # authoritative image from its exclusive owner) deferred for the
        # same reason: answering mid-critical-section would hand the
        # directory a half-edited view.
        self._pending_fetches: List[Message] = []
        self._use_lock = _CompletionLock(transport, f"{view_id}.use")
        self._in_use = False
        self._lock = threading.RLock()
        self._trigger_timer = None
        self._trigger_inflight = False
        self._triggers_stopped = False
        self._closed = False
        self._crashed = False
        # Graceful degradation: set when the directory stays silent
        # through a full retry budget (or heartbeats go unanswered).
        # A degraded CM serves weak reads from its possibly-stale local
        # copy and refuses strong-mode use; any answered request clears
        # the flag.
        self.degraded = False
        self._heartbeat_timer = None
        self._heartbeat_inflight = False
        # Reused environment dict for trigger evaluation: one allocation
        # per trigger-set change instead of one per poll tick.
        self._trigger_env_dict: Dict[str, Any] = {}

        # Instrumentation.
        self.counters: Dict[str, int] = {
            "pushes": 0, "pulls": 0, "acquires": 0, "local_grants": 0,
            "invalidations": 0, "fetches": 0, "trigger_fires": 0,
            "retries": 0, "heartbeats": 0, "degradations": 0,
            "recoveries": 0, "stale_serves": 0,
            "delta_pulls": 0, "full_pulls": 0, "delta_fallbacks": 0,
        }

        self.endpoint = transport.bind(self.address, self._on_message)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _trace(self, event: str, **detail: Any) -> None:
        if self.trace is not None:
            self.trace.record(self.transport.now(), self.address, event, **detail)

    def _request(
        self,
        msg_type: str,
        payload: Dict[str, Any],
        on_reply: Optional[Callable[[Completion], None]] = None,
        timeout: Optional[float] = None,
    ) -> Completion:
        """Send one request; the returned completion resolves to the reply.

        ``on_reply`` is attached *before* the send: a reply can be
        delivered on the transport's thread before ``send`` returns to
        ours, and a callback attached afterwards would then apply it
        (say, a GRANT) behind a later message the handler has already
        answered (the INVALIDATE revoking that grant).
        """
        payload = dict(payload)
        payload["view_id"] = self.view_id
        msg = Message(msg_type, self.address, self.directory_address, payload)
        comp = self.transport.completion(f"{self.view_id}.{msg_type}")
        if on_reply is not None:
            comp.then(on_reply)
        with self._lock:
            self._pending[msg.msg_id] = comp
        self._trace(f"send:{msg_type}", dst=self.directory_address)
        self.endpoint.send(msg)
        timeout = timeout if timeout is not None else self.request_timeout
        if timeout is not None:
            self._arm_retry(msg, comp, timeout, attempts_left=self.max_retries)
        return comp

    def _arm_retry(
        self, msg: Message, comp: Completion, timeout: float, attempts_left: int
    ) -> None:
        def maybe_resend() -> None:
            with self._lock:
                still_pending = msg.msg_id in self._pending and not comp.done
                if not still_pending or self._closed:
                    return
                if attempts_left <= 0:
                    self._pending.pop(msg.msg_id, None)
                    # The directory stayed silent through the whole
                    # retry budget: degrade rather than flail (weak
                    # reads keep working from the local copy).
                    self._mark_degraded(msg.msg_type)
                    comp.fail(
                        ProtocolError(
                            f"{self.view_id}: {msg.msg_type} unanswered after "
                            f"{self.max_retries} retries"
                        )
                    )
                    return
                self._trace(f"retry:{msg.msg_type}", attempts_left=attempts_left)
                self.counters["retries"] = self.counters.get("retries", 0) + 1
            if not self.endpoint.closed:
                self.endpoint.send(msg)  # same msg_id: dedup-safe
            self._arm_retry(msg, comp, timeout, attempts_left - 1)

        self.transport.schedule(timeout, maybe_resend)

    def _mark_degraded(self, cause: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.counters["degradations"] += 1
            self._trace("degraded", cause=cause)

    def _on_message(self, msg: Message) -> None:
        with self._lock:
            self._trace(f"recv:{msg.msg_type}")
            if msg.reply_to is not None and msg.reply_to in self._pending:
                comp = self._pending.pop(msg.reply_to)
                if msg.msg_type == M.ERROR:
                    comp.fail(ProtocolError(msg.payload.get("error", "directory error")))
                else:
                    if self.degraded:
                        # The directory answered: the link is back.
                        self.degraded = False
                        self._trace("degradation-cleared")
                    comp.resolve(msg)
                return
            if msg.msg_type == M.INVALIDATE:
                self._h_invalidate(msg)
            elif msg.msg_type == M.FETCH_REQ:
                self._h_fetch(msg)
            else:
                self._trace("unexpected-message", type=msg.msg_type)

    # -- directory-initiated commands ------------------------------------
    def _h_invalidate(self, msg: Message) -> None:
        self.counters["invalidations"] += 1
        if self._in_use:
            # The view is inside startUse/endUse — defer until it exits
            # the critical section (mutual exclusion, Fig 2 steps 6-7).
            # A duplicate delivery of an already-deferred invalidate
            # (injected fault or retransmission: same msg_id) collapses
            # into the original; distinct msg_ids are distinct revokers
            # (e.g. several shards of a partitioned directory plane) and
            # each gets its own ACK at end-of-use.
            if all(m.msg_id != msg.msg_id for m in self._pending_invalidates):
                self._pending_invalidates.append(msg)
            return
        self._complete_invalidate(msg)

    def _next_state_seq(self) -> int:
        self._state_seq += 1
        return self._state_seq

    def _complete_invalidate(self, msg: Message) -> None:
        dirty = self._extract_dirty()
        self._absorb_dirty(dirty)
        self.owner = False
        self.invalidated = True
        self._trace(f"send:{M.INVALIDATE_ACK}", dst=msg.src)
        self.endpoint.send(
            msg.reply(
                M.INVALIDATE_ACK,
                {"view_id": self.view_id, "image": dirty,
                 "state_seq": self._next_state_seq()},
            )
        )
        # The dirty cells were handed to the directory; our base now
        # reflects the view (nothing left dirty).
        self._rebase()

    def _h_fetch(self, msg: Message) -> None:
        self.counters["fetches"] += 1
        full = bool(msg.payload.get("full"))
        if full and self._in_use:
            # A recovering directory is reclaiming the authoritative
            # slice from us; answer after the critical section so it
            # cannot capture a half-edited view.
            if all(m.msg_id != msg.msg_id for m in self._pending_fetches):
                self._pending_fetches.append(msg)
            return
        self._complete_fetch(msg)

    def _complete_fetch(self, msg: Message) -> None:
        full = bool(msg.payload.get("full"))
        dirty = ObjectImage() if self._in_use else self._extract_dirty()
        self._absorb_dirty(dirty)
        image = self._extract_current() if full else dirty
        self._trace(f"send:{M.FETCH_REPLY}", dst=msg.src)
        self.endpoint.send(
            msg.reply(
                M.FETCH_REPLY,
                {"view_id": self.view_id, "image": image,
                 "state_seq": self._next_state_seq()},
            )
        )
        if not self._in_use:
            self._rebase()

    # -- dirty tracking ------------------------------------------------------
    def _extract_current(self) -> ObjectImage:
        return self.extract_from_view(self.view, self.properties)

    def _extract_dirty(self) -> ObjectImage:
        """Cells whose value changed since the last sync point."""
        current = self._extract_current()
        dirty = ObjectImage()
        for key in current.keys():
            if key not in self._base or self._base.get(key) != current.get(key):
                dirty.cells[key] = current.get(key)
        return dirty

    def _rebase(self) -> None:
        self._base = self._extract_current()

    def has_dirty_data(self) -> bool:
        return not self._extract_dirty().is_empty()

    def _apply_image(self, image: ObjectImage) -> None:
        self.merge_into_view(self.view, image, self.properties)
        self._rebase()
        self.invalidated = False

    # -- delta synchronization -----------------------------------------------
    def _apply_served(self, served: Any) -> Optional[ObjectImage]:
        """Apply a served image payload; returns the effective full image.

        The directory may answer a cursor-carrying request with either a
        plain :class:`ObjectImage` (delta disabled there) or a
        :class:`DeltaImage` — complete, or a version-filtered delta
        against our accumulated base.  A delta merges into ``_synced``
        and the *whole* accumulated image is applied to the view, so
        local semantics are exactly those of a full pull while only the
        changed cells crossed the wire.  Returns ``None`` when the delta
        references a base this CM no longer holds (the caller must
        re-request with ``full=True``).  Call with ``self._lock`` held.
        """
        if not isinstance(served, DeltaImage):
            self._synced = None
            self._since = -1
            self._apply_image(served)
            return served
        if served.complete:
            self._synced = served.image.copy()
            self._since = served.as_of
            self.counters["full_pulls"] += 1
            self._apply_image(served.image)
            return served.image
        if self._synced is None or served.base_seq > self._since:
            return None
        self.counters["delta_pulls"] += 1
        self._synced.merge_newer(served.image)
        self._since = max(self._since, served.as_of)
        self._apply_image(self._synced)
        return self._synced.copy()

    def _absorb_dirty(self, dirty: ObjectImage) -> None:
        """Fold cells we hand to the directory into the sync base.

        The directory advances our seen-cursor when it commits them, so
        later deltas will not echo them back; without this a later
        full-apply of ``_synced`` would revert the view's own writes.
        Versions stay as last served — safe, since a newer committed
        value for these keys always carries a strictly higher version.
        """
        if self._synced is not None and not dirty.is_empty():
            self._synced.cells.update(dirty.cells)

    def _request_data(
        self,
        msg_type: str,
        payload: Dict[str, Any],
        on_fail: Callable[[BaseException], None],
        on_done: Callable[[ObjectImage], None],
        on_state: Optional[Callable[[], None]] = None,
        full: bool = False,
    ) -> None:
        """Issue a data-carrying request and apply the served image.

        ``on_state`` runs under the CM lock right after a successful
        apply (for ownership/critical-section flags); ``on_done``
        receives the effective full image.  A delta reply whose base we
        no longer hold triggers exactly one re-request with ``full=True``
        (counted in ``delta_fallbacks``).
        """
        req = dict(payload)
        if self.delta:
            req["since"] = self._since
            if full:
                req["full"] = True

        def on_reply(reply: Completion) -> None:
            try:
                msg = reply.value
            except BaseException as exc:
                on_fail(exc)
                return
            with self._lock:
                image = self._apply_served(msg.payload["image"])
                if image is not None and on_state is not None:
                    on_state()
            if image is not None:
                on_done(image)
                return
            if full:
                on_fail(ProtocolError(
                    f"{self.view_id}: delta served against unknown base "
                    f"even after a full re-request"
                ))
                return
            self.counters["delta_fallbacks"] += 1
            self._trace("delta-fallback", msg_type=msg_type)
            self._request_data(
                msg_type, payload, on_fail, on_done, on_state, full=True
            )

        self._request(msg_type, req, on_reply)

    # ------------------------------------------------------------------
    # View-facing API (Fig 3)
    # ------------------------------------------------------------------
    def start(self) -> Completion:
        """Register with the directory manager; starts the trigger poller."""
        comp = self.transport.completion(f"{self.view_id}.start")

        def on_ack(reply: Completion) -> None:
            try:
                reply.value
            except BaseException as exc:
                comp.fail(exc)
                return
            self.registered = True
            self._start_trigger_poller()
            self._start_heartbeats()
            comp.resolve(self)

        self._request(
            M.REGISTER,
            {
                "properties": self.properties,
                "mode": self.mode.value,
                "triggers": self.triggers.to_jsonable(),
            },
            on_ack,
        )
        return comp

    def init_image(self) -> Completion:
        """First data acquisition (Fig 2 steps 3-5); resolves to the image."""
        return self._sync_request(M.INIT_REQ, count_as="pulls")

    def pull_image(self) -> Completion:
        """Refresh the view from the primary copy; resolves to the image."""
        return self._sync_request(M.PULL_REQ, count_as="pulls")

    def _sync_request(self, msg_type: str, count_as: str) -> Completion:
        self.counters[count_as] += 1
        comp = self.transport.completion(f"{self.view_id}.{msg_type}")
        self._request_data(
            msg_type,
            {"need_fresh": self._evaluate_validity()},
            on_fail=comp.fail,
            on_done=comp.resolve,
        )
        return comp

    def push_image(self) -> Completion:
        """Commit dirty cells to the primary copy; resolves to #committed."""
        self.counters["pushes"] += 1
        comp = self.transport.completion(f"{self.view_id}.push")
        dirty = self._extract_dirty()
        self._absorb_dirty(dirty)

        def on_ack(reply: Completion) -> None:
            try:
                msg = reply.value
            except BaseException as exc:
                comp.fail(exc)
                return
            comp.resolve(msg.payload.get("committed", 0))

        self._request(
            M.PUSH, {"image": dirty, "state_seq": self._next_state_seq()},
            on_ack,
        )
        self._rebase()
        return comp

    def start_use_image(self) -> Completion:
        """Enter the critical section; in strong mode, acquire ownership.

        Resolves once the view may touch the shared data.  The returned
        value is ``self`` for chaining.
        """
        comp = self.transport.completion(f"{self.view_id}.start_use")

        def locked(_lk: Completion) -> None:
            if self.degraded:
                if self.mode is Mode.STRONG:
                    # No directory, no ownership: strong-mode semantics
                    # cannot be honored while degraded.
                    self._use_lock.release()
                    comp.fail(
                        ProtocolError(
                            f"{self.view_id}: degraded (directory silent); "
                            f"strong-mode use refused"
                        )
                    )
                    return
                # Weak mode: serve the possibly-stale local copy rather
                # than block on a silent directory (reads only — pushes
                # will be retried against the directory as usual).
                self.counters["stale_serves"] += 1
                self._trace("stale-serve")
                self._in_use = True
                comp.resolve(self)
                return
            if self.mode is Mode.STRONG and not self.owner:
                self.counters["acquires"] += 1

                def fail_locked(exc: BaseException) -> None:
                    self._use_lock.release()
                    comp.fail(exc)

                def granted() -> None:
                    self.owner = True
                    self._in_use = True

                self._request_data(
                    M.ACQUIRE, {},
                    on_fail=fail_locked,
                    on_done=lambda _img: comp.resolve(self),
                    on_state=granted,
                )
            elif self.invalidated:
                def fail_locked(exc: BaseException) -> None:
                    self._use_lock.release()
                    comp.fail(exc)

                def entered() -> None:
                    self._in_use = True

                self.counters["pulls"] += 1
                self._request_data(
                    M.PULL_REQ,
                    {"need_fresh": self._evaluate_validity()},
                    on_fail=fail_locked,
                    on_done=lambda _img: comp.resolve(self),
                    on_state=entered,
                )
            else:
                if self.owner:
                    # A still-held owner token: granted locally, with
                    # no round at the directory.
                    self.counters["local_grants"] += 1
                self._in_use = True
                comp.resolve(self)

        self._use_lock.acquire().then(locked)
        return comp

    def end_use_image(self) -> None:
        """Leave the critical section; honors a deferred invalidation."""
        with self._lock:
            if not self._in_use:
                raise ProtocolError(f"{self.view_id}: end_use without start_use")
            self._in_use = False
            deferred = self._pending_invalidates
            self._pending_invalidates = []
            fetches = self._pending_fetches
            self._pending_fetches = []
            # Answer every deferred revoker in arrival order.  The first
            # ACK carries all dirty cells (and rebases); the rest are
            # empty — on a sharded plane the router re-homes any cells
            # the first revoker's shard does not own.
            for msg in deferred:
                self._complete_invalidate(msg)
            for msg in fetches:
                self._complete_fetch(msg)
        self._use_lock.release()

    def set_mode(self, mode: Mode | str) -> Completion:
        """Switch consistency mode at run time (paper §4, Fig 5)."""
        new_mode = Mode.parse(mode)
        comp = self.transport.completion(f"{self.view_id}.set_mode")

        def send_set_mode(_prev: Optional[Completion] = None) -> None:
            def on_ack(reply: Completion) -> None:
                try:
                    reply.value
                except BaseException as exc:
                    comp.fail(exc)
                    return
                with self._lock:
                    self.mode = new_mode
                    if new_mode is Mode.WEAK:
                        self.owner = False
                comp.resolve(new_mode)

            self._request(M.SET_MODE, {"mode": new_mode.value}, on_ack)

        if self.mode is Mode.STRONG and new_mode is Mode.WEAK and self.owner:
            # Leaving strong mode: surrender dirty state first so the
            # primary copy stays authoritative.
            self.push_image().then(send_set_mode)
        else:
            send_set_mode()
        return comp

    def set_triggers(self, triggers: TriggerSet) -> None:
        """Replace the quality triggers at run time (weak-level tuning)."""
        self.triggers = triggers
        self._trigger_env_dict = {}  # variable set may have changed

    def update_properties(self, properties: PropertySet) -> Completion:
        """Change the view's data properties at run time (paper §4.1)."""
        comp = self.transport.completion(f"{self.view_id}.prop_update")

        def on_ack(reply: Completion) -> None:
            try:
                reply.value
            except BaseException as exc:
                comp.fail(exc)
                return
            with self._lock:
                self.properties = properties
                self.invalidated = True  # slice changed; re-pull before use
                self._synced = None      # old slice's delta base is void
                self._since = -1
            comp.resolve(properties)

        self._request(M.PROP_UPDATE, {"properties": properties}, on_ack)
        return comp

    def kill_image(self) -> Completion:
        """Final push + unregister + release resources (Fig 2 steps 20-21)."""
        comp = self.transport.completion(f"{self.view_id}.kill")
        with self._lock:
            # Silence the trigger poller and heartbeats immediately: a
            # pull or lease renewal racing the unregister would arrive
            # at the directory as an unregistered view.
            self._triggers_stopped = True
            if self._trigger_timer is not None:
                self._trigger_timer.cancel()
                self._trigger_timer = None
            self._stop_heartbeats()
        dirty = self._extract_dirty()

        def on_ack(reply: Completion) -> None:
            try:
                reply.value
            except BaseException as exc:
                comp.fail(exc)
                return
            self._shutdown()
            comp.resolve(None)

        self._request(
            M.UNREGISTER, {"image": dirty, "state_seq": self._next_state_seq()},
            on_ack,
        )
        return comp

    def _shutdown(self) -> None:
        with self._lock:
            self._closed = True
            self.registered = False
            if self._trigger_timer is not None:
                self._trigger_timer.cancel()
                self._trigger_timer = None
            self._stop_heartbeats()
        self.endpoint.close()

    # ------------------------------------------------------------------
    # Crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate an abrupt process crash.

        The endpoint vanishes (in-flight messages to it are dropped by
        the transport), timers die, pending completions are abandoned,
        and all volatile protocol state — sync base, ownership, dirty
        tracking — is lost, exactly as if the hosting process died.
        The view object itself survives only because the caller owns
        it; :meth:`recover` re-syncs it from the primary copy.
        """
        with self._lock:
            if self._crashed:
                return
            self._crashed = True
            self._closed = True
            self.registered = False
            self.owner = False
            self.invalidated = True
            self._triggers_stopped = True
            if self._trigger_timer is not None:
                self._trigger_timer.cancel()
                self._trigger_timer = None
            self._stop_heartbeats()
            self._pending.clear()  # a dead process answers nothing
            self._pending_invalidates = []
            self._pending_fetches = []
            self._in_use = False
            self._base = ObjectImage()
            self._synced = None  # delta base is volatile state too
            self._since = -1
            self._trace("crash")
        self.endpoint.close()

    def recover(self) -> Completion:
        """Restart after :meth:`crash`: re-REGISTER and re-sync.

        The re-REGISTER is idempotent at the directory (``recover``
        flag): whether the old registration is still live, quarantined,
        or gone, the CM gets an ACK carrying the directory's
        ``last_state_seq`` cursor (so post-recovery pushes are not
        mistaken for stale retransmissions) and then pulls a full image
        from the primary copy.  Resolves to the fresh image.
        """
        comp = self.transport.completion(f"{self.view_id}.recover")
        with self._lock:
            if not self._crashed:
                comp.fail(ProtocolError(f"{self.view_id}: recover without crash"))
                return comp
            self._crashed = False
            self._closed = False
            self.degraded = False
            self.counters["recoveries"] += 1
            self.endpoint = self.transport.bind(self.address, self._on_message)
            self._trace("recover")

        def on_ack(reply: Completion) -> None:
            try:
                msg = reply.value
            except BaseException as exc:
                comp.fail(exc)
                return
            with self._lock:
                self.registered = True
                # Resume state-seq numbering above the directory's
                # cursor: a fresh process restarting at 0 would have
                # every push dropped as a stale retransmission.
                self._state_seq = max(
                    self._state_seq, msg.payload.get("last_state_seq") or 0
                )
            self._start_trigger_poller()
            self._start_heartbeats()

            # Full re-sync from the primary copy (the crash dropped our
            # delta base, so the cursor is -1 and the serve is complete).
            self._request_data(
                M.INIT_REQ,
                {"need_fresh": False},
                on_fail=comp.fail,
                on_done=comp.resolve,
            )

        self._request(
            M.REGISTER,
            {
                "properties": self.properties,
                "mode": self.mode.value,
                "triggers": self.triggers.to_jsonable(),
                "recover": True,
            },
            on_ack,
        )
        return comp

    # ------------------------------------------------------------------
    # Heartbeats (lease renewal)
    # ------------------------------------------------------------------
    def _start_heartbeats(self) -> None:
        if self.heartbeat_period is None:
            return
        self._schedule_heartbeat()

    def _schedule_heartbeat(self) -> None:
        if self._closed or self._crashed:
            return
        self._heartbeat_timer = self.transport.schedule(
            self.heartbeat_period, self._send_heartbeat
        )

    def _stop_heartbeats(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def _send_heartbeat(self) -> None:
        if self._closed or self._crashed or not self.registered:
            return
        if self._heartbeat_inflight:  # never stack unanswered heartbeats
            self._schedule_heartbeat()
            return
        self._heartbeat_inflight = True
        self.counters["heartbeats"] += 1
        # Per-attempt timeout: the configured request timeout, or the
        # heartbeat period itself so silence is noticed within a lease.
        timeout = self.request_timeout or self.heartbeat_period

        def done(reply: Completion) -> None:
            self._heartbeat_inflight = False
            try:
                reply.value
            except BaseException:
                # _arm_retry already degraded us; keep heartbeating so
                # a healed link clears the degradation.
                pass

        self._request(M.HEARTBEAT, {}, done, timeout=timeout)
        self._schedule_heartbeat()

    # ------------------------------------------------------------------
    # Quality-trigger machinery
    # ------------------------------------------------------------------
    def _trigger_env(self) -> Dict[str, Any]:
        # One env dict per tick, shared by the push/pull/validity
        # evaluations and reused across ticks (refreshed in place).
        env = self._trigger_env_dict
        names = self.triggers.view_variables()
        if names:
            env.update(reflect_variables(self.view, names))
        env["t"] = self.transport.now()
        return env

    def _evaluate_validity(self) -> bool:
        """True when the directory must fetch fresh state (validity fired)."""
        if self.triggers.validity is None:
            return False
        return self.triggers.validity.evaluate(self._trigger_env())

    def _start_trigger_poller(self) -> None:
        if self.triggers.push is None and self.triggers.pull is None:
            return
        self._triggers_stopped = False
        self._schedule_trigger_poll()

    def _schedule_trigger_poll(self) -> None:
        if self._closed or self._triggers_stopped:
            return
        self._trigger_timer = self.transport.schedule(
            self.trigger_poll_period, self._poll_triggers
        )

    def _poll_triggers(self) -> None:
        if self._closed or self._triggers_stopped:
            return
        try:
            if not self._trigger_inflight and not self._in_use:
                env = self._trigger_env()
                if self.triggers.push is not None and self.triggers.push.evaluate(env):
                    if self.has_dirty_data():
                        self._fire_trigger(self.push_image)
                if (
                    not self._trigger_inflight
                    and self.triggers.pull is not None
                    and self.triggers.pull.evaluate(env)
                ):
                    self._fire_trigger(self.pull_image)
        finally:
            self._schedule_trigger_poll()

    def _fire_trigger(self, action: Callable[[], Completion]) -> None:
        self.counters["trigger_fires"] += 1
        self._trigger_inflight = True

        def done(_c: Completion) -> None:
            self._trigger_inflight = False

        action().then(done)
