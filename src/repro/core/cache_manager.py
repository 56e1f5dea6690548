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

Every method returns a :class:`~repro.net.transport.Completion`.  The
listing's ``.wait()`` blocks a thread outside the aio loop; a view script
(:func:`~repro.core.system.run_view_script`) yields the completion
instead — scripts step on completion callbacks and transport timers; on
aio, on the loop thread — and runs unchanged on every backend.

Each operation has one path.  Every reply is unwrapped by one rule
(:meth:`CacheManager._unwrap`, behind ``_call`` and the data requests);
every critical section is entered through :meth:`CacheManager._enter`,
which takes a *decision* — :meth:`CacheManager._use_request` here, the
READ decision in :class:`~repro.core.rw_semantics.RWCacheManager`; and
every hand-off of dirty cells (PUSH, INVALIDATE_ACK, FETCH_REPLY) is one
extract of the view (:meth:`CacheManager._take_dirty`), undone when the
directory refuses a push.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
# A merge hook is per-cell: it may receive any subset of the slice (only
# the cells that differ from the view, or no call at all), and an extract
# returns a merged cell unchanged.
ExtractFromView = Callable[[Any, PropertySet], ObjectImage]
MergeIntoView = Callable[[Any, ObjectImage, PropertySet], None]

# A use decision: the request that admits a view to its critical section
# (message type, payload, and the state to take once it is served), or
# None to enter locally.
UseRequest = Optional[Tuple[str, Dict[str, Any], Optional[Callable[[], None]]]]


def _differing(cells: Dict[str, Any], against: Dict[str, Any]) -> Dict[str, Any]:
    """The entries of ``cells`` that ``against`` lacks or holds with
    another value: the one rule for "this cell differs", used for both
    the dirty cells of a hand-off and the cells a served image changes."""
    return {
        key: value for key, value in cells.items()
        if key not in against or against[key] != value
    }


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

    def abandon(self) -> None:
        """Forget every waiter: their callbacks are never run."""
        with self._lock:
            self._queue.clear()


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
        # msg_id -> (completion, on_reply) of each unanswered request.
        self._pending: Dict[
            int, Tuple[Completion, Optional[Callable[[Completion], None]]]
        ] = {}
        # Directory commands deferred while the view is inside its
        # critical section, in arrival order: INVALIDATEs and full-slice
        # FETCH_REQs (see ``_h_command``).  A list, not a slot: on a
        # sharded directory plane several shards can concurrently revoke
        # one spanning view, and every revoker must be answered *after*
        # the critical section.
        self._held_commands: List[Message] = []
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

        ``on_reply`` is not a callback of that completion: the handler
        that settles the request (:meth:`_settle`) runs it right away,
        under the CM lock, so a reply is applied where it arrives.  As a
        completion callback it would run later on the sim (a kernel
        event of its own), behind a message handed off in the same
        instant, and a GRANT would be applied after the handler had
        already answered the INVALIDATE revoking it.
        """
        payload = dict(payload)
        payload["view_id"] = self.view_id
        msg = Message(msg_type, self.address, self.directory_address, payload)
        comp = self.transport.completion(f"{self.view_id}.{msg_type}")
        with self._lock:
            self._pending[msg.msg_id] = (comp, on_reply)
        self._trace(f"send:{msg_type}", dst=self.directory_address)
        self.endpoint.send(msg)
        timeout = timeout if timeout is not None else self.request_timeout
        if timeout is not None:
            self._arm_retry(msg, comp, timeout, attempts_left=self.max_retries)
        return comp

    @staticmethod
    def _unwrap(
        on_fail: Callable[[BaseException], None], on_ok: Callable[[Any], None]
    ) -> Callable[[Completion], None]:
        """The one reply rule: a completion callback that hands a failure
        to ``on_fail`` and a value to ``on_ok``."""
        def settle(done: Completion) -> None:
            try:
                value = done.value
            except Exception as exc:
                on_fail(exc)
                return
            on_ok(value)

        return settle

    def _call(
        self,
        msg_type: str,
        payload: Dict[str, Any],
        on_ok: Callable[[Message], Any],
        comp: Optional[Completion] = None,
    ) -> Completion:
        """Send one request; ``comp`` (a new completion by default) fails
        with the request, else resolves to ``on_ok(reply)``."""
        if comp is None:
            comp = self.transport.completion(f"{self.view_id}.{msg_type}")
        self._request(
            msg_type, payload,
            self._unwrap(comp.fail, lambda reply: comp.resolve(on_ok(reply))),
        )
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
                    # The directory stayed silent through the whole
                    # retry budget: degrade rather than flail (weak
                    # reads keep working from the local copy).
                    self._mark_degraded(msg.msg_type)
                    self._settle(msg.msg_id, error=ProtocolError(
                        f"{self.view_id}: {msg.msg_type} unanswered after "
                        f"{self.max_retries} retries"
                    ))
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

    def _settle(self, msg_id: int, reply: Optional[Message] = None,
                error: Optional[BaseException] = None) -> None:
        """Settle a pending request (CM lock held): resolve or fail its
        completion, then apply it through its ``on_reply``."""
        comp, on_reply = self._pending.pop(msg_id)
        if error is not None:
            comp.fail(error)
        else:
            comp.resolve(reply)
        if on_reply is not None:
            on_reply(comp)

    def _on_message(self, msg: Message) -> None:
        with self._lock:
            self._trace(f"recv:{msg.msg_type}")
            if msg.reply_to is not None and msg.reply_to in self._pending:
                if msg.msg_type == M.ERROR:
                    self._settle(msg.reply_to, error=ProtocolError(
                        msg.payload.get("error", "directory error")))
                    return
                if self.degraded:
                    # The directory answered: the link is back.
                    self.degraded = False
                    self._trace("degradation-cleared")
                self._settle(msg.reply_to, msg)
                return
            if msg.msg_type in (M.INVALIDATE, M.FETCH_REQ):
                self._h_command(msg)
            else:
                self._trace("unexpected-message", type=msg.msg_type)

    # -- directory-initiated commands ------------------------------------
    def _h_command(self, msg: Message) -> None:
        invalidate = msg.msg_type == M.INVALIDATE
        self.counters["invalidations" if invalidate else "fetches"] += 1
        if self._in_use and (invalidate or msg.payload.get("full")):
            # The view is inside startUse/endUse — defer until it exits
            # the critical section (mutual exclusion, Fig 2 steps 6-7).
            # Acking a revocation now would let a contending view be
            # granted the data while we are still writing it; answering
            # a recovering directory's full fetch now would hand it a
            # half-edited view.  A duplicate delivery (injected fault or
            # retransmission: same msg_id) collapses into the original;
            # distinct msg_ids are distinct commands (e.g. from several
            # shards of a partitioned directory plane) and each gets its
            # own answer at end-of-use.
            if all(m.msg_id != msg.msg_id for m in self._held_commands):
                self._held_commands.append(msg)
            return
        self._answer(msg)

    def _answer(self, msg: Message) -> None:
        if msg.msg_type == M.INVALIDATE:
            self._complete_invalidate(msg)
        else:
            self._complete_fetch(msg)

    def _next_state_seq(self) -> int:
        self._state_seq += 1
        return self._state_seq

    def _complete_invalidate(self, msg: Message) -> None:
        dirty = self._take_dirty()
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

    def _complete_fetch(self, msg: Message) -> None:
        if self._in_use:
            # A plain fetch mid-section hands over nothing (a full one
            # was deferred to end-of-use).
            image = ObjectImage()
        else:
            image = self._take_dirty()
            if msg.payload.get("full"):
                image = self._base.copy()  # the sync point is the view now
        self._trace(f"send:{M.FETCH_REPLY}", dst=msg.src)
        self.endpoint.send(
            msg.reply(
                M.FETCH_REPLY,
                {"view_id": self.view_id, "image": image,
                 "state_seq": self._next_state_seq()},
            )
        )

    # -- dirty tracking ------------------------------------------------------
    def _extract_current(self) -> ObjectImage:
        return self.extract_from_view(self.view, self.properties)

    def _extract_dirty(self) -> Tuple[ObjectImage, ObjectImage]:
        """One extract of the view: its image, and the cells whose value
        changed since the last sync point."""
        current = self._extract_current()
        return current, ObjectImage(_differing(current.cells, self._base.cells))

    def _take_dirty(self) -> ObjectImage:
        """Hand the dirty cells to the directory: one extract is both the
        diff and the new sync point, and the cells join the delta base.

        The directory advances our seen-cursor when it commits them, so
        later deltas will not echo them back; without the join a later
        full-apply of ``_synced`` would revert the view's own writes.
        Versions stay as last served — safe, since a newer committed
        value for these keys always carries a strictly higher version.
        """
        self._base, dirty = self._extract_dirty()
        if self._synced is not None and not dirty.is_empty():
            self._synced.cells.update(dirty.cells)
        return dirty

    def _refused(self, dirty: ObjectImage) -> None:
        """Undo a hand-off the directory refused: its cells leave the
        sync point, so they are dirty again, and the delta base — which
        holds them — goes, so the next serve is complete and overwrites
        what no delta would ever correct."""
        with self._lock:
            for key in dirty.keys():
                self._base.cells.pop(key, None)
            self._drop_delta_base()

    def has_dirty_data(self) -> bool:
        return not self._extract_dirty()[1].is_empty()

    def _apply_image(self, image: ObjectImage) -> None:
        """Bring the view to ``image`` with one extract and one compare.

        The merge hook receives only the cells whose value differs from
        the view's — ``image`` itself when all of them do, and no call
        when none does — and that extract, with those cells at their new
        values, is the new sync point.  View and base end where a merge
        of the whole image and a fresh extract would leave them, because
        a merge hook is per-cell and an extract returns a merged cell
        unchanged.
        """
        current = self._extract_current()
        changed = _differing(image.cells, current.cells)
        if changed:
            merged = (
                image if len(changed) == len(image.cells)
                else image.restrict(changed)
            )
            self.merge_into_view(self.view, merged, self.properties)
            current.cells.update(changed)
        self._base = current
        self.invalidated = False

    # -- delta synchronization -----------------------------------------------
    def _apply_served(self, served: Any) -> Optional[ObjectImage]:
        """Apply a served image payload; returns the effective full image.

        The directory may answer a cursor-carrying request with either a
        plain :class:`ObjectImage` (delta disabled there) or a
        :class:`DeltaImage` — complete, or a version-filtered delta
        against our accumulated base.  A delta merges into ``_synced``
        and the *whole* accumulated image is the view's target, so local
        semantics are exactly those of a full pull (an unpushed local
        write outside the delta is reverted) while only the changed
        cells crossed the wire; :meth:`_apply_image` hands the merge
        hook just the cells that differ from the view.  Returns ``None``
        when the delta references a base this CM no longer holds (the
        caller must re-request with ``full=True``).  Call with
        ``self._lock`` held.
        """
        if not isinstance(served, DeltaImage):
            self._drop_delta_base()
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

    def _drop_delta_base(self) -> None:
        """Forget the delta base: the next serve must be complete."""
        self._synced = None
        self._since = -1

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

        def apply(msg: Message) -> None:
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

        self._request(msg_type, req, self._unwrap(on_fail, apply))

    # ------------------------------------------------------------------
    # View-facing API (Fig 3)
    # ------------------------------------------------------------------
    def _registration(self, recover: bool = False) -> Dict[str, Any]:
        """The REGISTER payload; ``recover`` asks for the idempotent
        re-REGISTER of a restarted view."""
        payload: Dict[str, Any] = {
            "properties": self.properties,
            "mode": self.mode.value,
            "triggers": self.triggers.to_jsonable(),
        }
        if recover:
            payload["recover"] = True
        return payload

    def _registered(self, reply: Message) -> "CacheManager":
        with self._lock:
            self.registered = True
            # Resume state-seq numbering above the directory's cursor: a
            # fresh process restarting at 0 would have every push dropped
            # as a stale retransmission (a first registration reads 0).
            self._state_seq = max(
                self._state_seq, reply.payload.get("last_state_seq") or 0
            )
        self._start_trigger_poller()
        self._start_heartbeats()
        return self

    def start(self) -> Completion:
        """Register with the directory manager; starts the trigger poller."""
        return self._call(M.REGISTER, self._registration(), self._registered)

    def init_image(self) -> Completion:
        """First data acquisition (Fig 2 steps 3-5); resolves to the image."""
        return self._sync_request(M.INIT_REQ)

    def pull_image(self) -> Completion:
        """Refresh the view from the primary copy; resolves to the image."""
        return self._sync_request(M.PULL_REQ)

    def _sync_request(self, msg_type: str) -> Completion:
        self.counters["pulls"] += 1
        comp = self.transport.completion(f"{self.view_id}.{msg_type}")
        self._request_data(
            msg_type,
            {"need_fresh": self._evaluate_validity()},
            on_fail=comp.fail,
            on_done=comp.resolve,
        )
        return comp

    def push_image(self) -> Completion:
        """Commit dirty cells to the primary copy; resolves to #committed.

        A push the directory refuses (an ERROR reply, or no reply within
        the retry budget) fails, and its cells stay dirty: the next push
        carries them again, and the next serve is complete.
        """
        self.counters["pushes"] += 1
        dirty = self._take_dirty()
        pushed = self._call(
            M.PUSH, {"image": dirty, "state_seq": self._next_state_seq()},
            lambda reply: reply.payload.get("committed", 0),
        )
        pushed.then(self._unwrap(
            lambda _exc: self._refused(dirty), lambda _committed: None
        ))
        return pushed

    def start_use_image(self) -> Completion:
        """Enter the critical section; in strong mode, acquire ownership.

        Resolves once the view may touch the shared data.  The returned
        value is ``self`` for chaining.
        """
        return self._enter(self._use_request)

    def _use_request(self) -> UseRequest:
        """Decision: a strong view without the token acquires it, a view
        with invalidated data pulls, anything else enters locally."""
        if self.mode is Mode.STRONG and not self.owner:
            return M.ACQUIRE, {}, self._take_token
        if self.invalidated:
            return M.PULL_REQ, {"need_fresh": self._evaluate_validity()}, None
        return None

    def _take_token(self) -> None:
        self.owner = True

    def _enter(self, decide: Callable[[], UseRequest]) -> Completion:
        """The one way into the critical section: take the use lock, apply
        the degraded rule, then do what ``decide()`` asks (see
        :data:`UseRequest`).  A failed request releases the lock."""
        comp = self.transport.completion(f"{self.view_id}.start_use")

        def fail(exc: BaseException) -> None:
            self._use_lock.release()
            comp.fail(exc)

        def locked(_lk: Completion) -> None:
            if self.degraded:
                if self.mode is Mode.STRONG:
                    # No directory, no ownership: strong-mode semantics
                    # cannot be honored while degraded.
                    fail(ProtocolError(
                        f"{self.view_id}: degraded (directory silent); "
                        f"strong-mode use refused"
                    ))
                    return
                # Weak mode: serve the possibly-stale local copy rather
                # than block on a silent directory (reads only — pushes
                # will be retried against the directory as usual).
                self.counters["stale_serves"] += 1
                self._trace("stale-serve")
                self._in_use = True
                comp.resolve(self)
                return
            request = decide()
            if request is None:
                if self.mode is Mode.STRONG:
                    # A still-held token (owner, or read sharer): granted
                    # locally, with no round at the directory.
                    self.counters["local_grants"] += 1
                self._in_use = True
                comp.resolve(self)
                return
            msg_type, payload, take = request
            self.counters["acquires" if msg_type == M.ACQUIRE else "pulls"] += 1

            def served() -> None:
                if take is not None:
                    take()
                self._in_use = True

            self._request_data(
                msg_type, payload,
                on_fail=fail,
                on_done=lambda _img: comp.resolve(self),
                on_state=served,
            )

        self._use_lock.acquire().then(locked)
        return comp

    def end_use_image(self) -> None:
        """Leave the critical section; answers the deferred commands."""
        with self._lock:
            if not self._in_use:
                raise ProtocolError(f"{self.view_id}: end_use without start_use")
            self._in_use = False
            deferred, self._held_commands = self._held_commands, []
            # Answer every deferred command in arrival order.  The first
            # hand-off carries all dirty cells; the rest are empty — on a
            # sharded plane the router re-homes any cells the first
            # revoker's shard does not own.
            for msg in deferred:
                self._answer(msg)
        self._use_lock.release()

    def set_mode(self, mode: Mode | str) -> Completion:
        """Switch consistency mode at run time (paper §4, Fig 5).

        An owner leaving strong mode surrenders its dirty state first,
        and SET_MODE goes out only once that push has committed: a
        refused surrender fails ``set_mode`` with the push's error, and
        the view keeps its token (and its dirty cells).
        """
        new_mode = Mode.parse(mode)
        comp = self.transport.completion(f"{self.view_id}.set_mode")

        def switched(_reply: Message) -> Mode:
            with self._lock:
                self.mode = new_mode
                if new_mode is Mode.WEAK:
                    self.owner = False
            return new_mode

        def send(_committed: Any = None) -> None:
            self._call(M.SET_MODE, {"mode": new_mode.value}, switched, comp)

        if self.mode is Mode.STRONG and new_mode is Mode.WEAK and self.owner:
            self.push_image().then(self._unwrap(comp.fail, send))
        else:
            send()
        return comp

    def set_triggers(self, triggers: TriggerSet) -> None:
        """Replace the quality triggers at run time (weak-level tuning).

        A registered view that had no push or pull trigger starts
        polling here; a running poll chain simply reads the new set.
        """
        self.triggers = triggers
        self._trigger_env_dict = {}  # variable set may have changed
        if self.registered and not self._triggers_stopped:
            self._start_trigger_poller()

    def update_properties(self, properties: PropertySet) -> Completion:
        """Change the view's data properties at run time (paper §4.1)."""
        def updated(_reply: Message) -> PropertySet:
            with self._lock:
                self.properties = properties
                self.invalidated = True  # slice changed; re-pull before use
                self._drop_delta_base()  # old slice's delta base is void
            return properties

        return self._call(M.PROP_UPDATE, {"properties": properties}, updated)

    def kill_image(self) -> Completion:
        """Final push + unregister + release resources (Fig 2 steps 20-21)."""
        with self._lock:
            # Silence the trigger poller and heartbeats immediately: a
            # pull or lease renewal racing the unregister would arrive
            # at the directory as an unregistered view.
            self._stop_timers()
        _, dirty = self._extract_dirty()
        return self._call(
            M.UNREGISTER, {"image": dirty, "state_seq": self._next_state_seq()},
            lambda _reply: self._shutdown(),
        )

    def _stop_timers(self) -> None:
        self._triggers_stopped = True
        if self._trigger_timer is not None:
            self._trigger_timer.cancel()
            self._trigger_timer = None
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def _shutdown(self) -> None:
        with self._lock:
            self._closed = True
            self.registered = False
            self._stop_timers()
            # No reply reaches a closed endpoint, so nothing waiting on
            # one (or on the use lock) can finish; dropping the waiters
            # drops their callbacks, which hold this manager.
            self._pending.clear()
        self._use_lock.abandon()
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
            self._stop_timers()
            self._pending.clear()  # a dead process answers nothing
            self._held_commands = []
            self._in_use = False
            self._base = ObjectImage()
            self._drop_delta_base()  # delta base is volatile state too
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

        def resync(reply: Message) -> None:
            self._registered(reply)
            # Full re-sync from the primary copy (the crash dropped our
            # delta base, so the cursor is -1 and the serve is complete).
            self._request_data(
                M.INIT_REQ, {"need_fresh": False},
                on_fail=comp.fail, on_done=comp.resolve,
            )

        self._request(
            M.REGISTER, self._registration(recover=True),
            self._unwrap(comp.fail, resync),
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
        """Start the poll chain, unless one runs or there is nothing to
        poll."""
        if self._trigger_timer is not None or (
            self.triggers.push is None and self.triggers.pull is None
        ):
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
