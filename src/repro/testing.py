"""Public test harness: a minimal keyed-cell component/view pair.

Downstream users integrating their own application with Flecc can test
against this fixture instead of building a full component first: the
component is a plain dict of cell -> value, views hold local copies of
their slice, and the extract/merge functions follow the paper's Fig 3
signatures.  The library's own protocol suite (``tests/core/``) is
built on it — a few hundred worked examples of driving the fixture.

Typical use::

    from repro.testing import ProtocolFixture

    fx = ProtocolFixture(store_cells={"row": 0})
    cm, agent = fx.add_agent("my-view", ["row"], mode="strong")

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["row"] += 1
        cm.end_use_image()
        yield cm.kill_image()

    fx.run_scripts(script())
    assert fx.store.cells["row"] == 1

:class:`BareDirectory` is the other fixture: one directory manager and
no cache managers at all, for tests and experiments that measure or
fault the directory's own op path.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core import (
    DiscreteSet,
    FleccSystem,
    ObjectImage,
    Property,
    PropertySet,
)
from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.messages import TraceLog
from repro.core.static_map import Sharing, StaticSharingMap
from repro.core.system import run_all_scripts, run_view_script
from repro.net import SimTransport
from repro.net.message import Message, reset_message_ids
from repro.net.transport import resolve_transport
from repro.sim import SimKernel


class Store:
    """The original component: a dict of cells."""

    def __init__(self, cells: Optional[Dict[str, int]] = None) -> None:
        self.cells: Dict[str, int] = dict(cells or {})


def extract_from_object(store: Store, props: PropertySet) -> ObjectImage:
    """Slice selection: the 'cells' property's domain filters cell keys."""
    p = props.get("cells")
    img = ObjectImage()
    for k, v in store.cells.items():
        if p is None or p.domain.contains(k):
            img.cells[k] = v
    return img


def merge_into_object(store: Store, image: ObjectImage, props: PropertySet) -> None:
    for k in image.keys():
        store.cells[k] = image.get(k)


def extract_cells(store: Store, props: PropertySet, keys: Iterable[str]) -> ObjectImage:
    """Partial extract for delta serves: only ``keys``, no full scan."""
    p = props.get("cells")
    img = ObjectImage()
    for k in keys:
        if k in store.cells and (p is None or p.domain.contains(k)):
            img.cells[k] = store.cells[k]
    return img


class Agent:
    """A view object: local copy of its slice."""

    def __init__(self) -> None:
        self.local: Dict[str, int] = {}


def extract_from_view(agent: Agent, props: PropertySet) -> ObjectImage:
    img = ObjectImage()
    img.cells.update(agent.local)
    return img


def merge_into_view(agent: Agent, image: ObjectImage, props: PropertySet) -> None:
    for k in image.keys():
        agent.local[k] = image.get(k)


def props_for(cells: Iterable[str]) -> PropertySet:
    return PropertySet([Property("cells", DiscreteSet(set(cells)))])


def brute_force_conflict_set(
    view_id: str,
    properties: Mapping[str, Optional[PropertySet]],
    static_map: Optional[StaticSharingMap] = None,
) -> List[str]:
    """Reference answer to "which views conflict with ``view_id``?":
    paper §4.1 over every registered view — the static sharing cell
    when it decides, else ``dynConfl`` (unknown properties conflict
    with everyone) — with no index and no cache."""
    def conflicts(other: str) -> bool:
        if static_map is not None:
            cell = static_map.get_if_present(view_id, other)
            if cell is not None and cell is not Sharing.DYNAMIC:
                return cell is Sharing.SHARED
        p, q = properties[view_id], properties[other]
        return p is None or q is None or p.conflicts_with(q)

    return sorted(v for v in properties if v != view_id and conflicts(v))


class ProtocolFixture:
    """One kernel + transport + system + N agents, ready to script."""

    def __init__(
        self,
        store_cells: Optional[Dict[str, int]] = None,
        default_latency: float = 1.0,
        trace: bool = False,
        **system_kw,
    ) -> None:
        self.kernel = SimKernel()
        self.transport = SimTransport(self.kernel, default_latency=default_latency)
        self.trace = TraceLog() if trace else None
        self.store = Store(store_cells or {"a": 10, "b": 20, "c": 30})
        system_kw.setdefault("extract_cells", extract_cells)
        self.system = FleccSystem(
            self.transport,
            self.store,
            extract_from_object,
            merge_into_object,
            trace=self.trace,
            **system_kw,
        )
        self.agents: Dict[str, Agent] = {}

    def add_agent(
        self,
        view_id: str,
        cells: Iterable[str],
        **view_options,
    ):
        agent = Agent()
        self.agents[view_id] = agent
        cm = self.system.add_view(
            view_id,
            agent,
            props_for(cells),
            extract_from_view,
            merge_into_view,
            **view_options,
        )
        return cm, agent

    def run_scripts(self, *scripts):
        return run_all_scripts(self.transport, list(scripts))

    def run_script(self, script):
        return run_view_script(self.transport, script)

    def run(self, until: Optional[float] = None):
        return self.kernel.run(until=until)

    @property
    def stats(self):
        return self.transport.stats


def two_view_run(
    spec: str, weak_leaves_first: bool
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One deterministic conflicting workload: (end state, messages by type).

    A weak view on ``a`` writes and pushes; then a strong view on ``a``
    and ``b`` acquires, writes and leaves.  The weak view unregisters
    before the strong phase when ``weak_leaves_first``, else after it
    (so the strong acquire revokes it).  Each phase runs alone to the
    end, so message counts cannot depend on races: the parity workload
    the experiments pin to frozen goldens on every backend (``spec`` is
    a :func:`~repro.net.transport.resolve_transport` spec).
    """
    reset_message_ids()
    transport = resolve_transport(spec)
    store = Store({"a": 10, "b": 20})
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells,
    )
    weak_agent, strong_agent = Agent(), Agent()
    weak = system.add_view(
        "weak-view", weak_agent, props_for(["a"]),
        extract_from_view, merge_into_view, mode="weak",
    )
    strong = system.add_view(
        "strong-view", strong_agent, props_for(["a", "b"]),
        extract_from_view, merge_into_view, mode="strong",
    )

    def weak_phase():
        yield weak.start()
        yield weak.init_image()
        yield weak.start_use_image()
        weak_agent.local["a"] = 99
        weak.end_use_image()
        yield weak.push_image()
        if weak_leaves_first:
            yield weak.kill_image()

    def strong_phase():
        yield strong.start()
        yield strong.init_image()
        yield strong.start_use_image()
        strong_agent.local["b"] = strong_agent.local.get("b", 0) + 1
        strong.end_use_image()
        yield strong.kill_image()

    def weak_exit():
        yield weak.kill_image()

    phases = [weak_phase(), strong_phase()]
    if not weak_leaves_first:
        phases.append(weak_exit())
    for phase in phases:
        run_all_scripts(transport, [phase])
    state, by_type = dict(store.cells), dict(transport.stats.by_type)
    system.close()
    transport.close()
    return state, by_type


# ---------------------------------------------------------------------------
# Bare directory: one DirectoryManager driven by a fake cache-manager hub
# ---------------------------------------------------------------------------

def pair_group_props(i: int) -> PropertySet:
    """Disjoint-by-pairs properties: private cell + pair-group cell.

    Views ``2k`` and ``2k+1`` share ``grp{k}`` (conflict degree 1);
    any other pair of views shares nothing.
    """
    return PropertySet([
        Property("cells", DiscreteSet({f"own{i:05d}", f"grp{i // 2:05d}"}))
    ])


def extract_slice(store: Dict[str, int], props: PropertySet) -> ObjectImage:
    """O(slice) extract from a plain-dict component: walks the property's
    *domain values*, not the store — a register/serve must not cost
    O(total cells), or the harness itself would be the O(V) term a
    directory profile is trying to measure."""
    img = ObjectImage()
    p = props.get("cells") if props is not None else None
    if p is None:
        for k, v in store.items():
            img.cells[k] = v
        return img
    for k in p.domain.values:
        if k in store:
            img.cells[k] = store[k]
    return img


def merge_slice(store: Dict[str, int], image: ObjectImage, props: PropertySet) -> None:
    for k in image.keys():
        store[k] = image.get(k)


class BareDirectory:
    """One directory manager + one fake cache-manager hub endpoint.

    Every view registers from the same hub address, so the directory's
    INVALIDATE/FETCH fan-out lands on one handler that acks — inline,
    or ``ack_delay`` simulated seconds later so the round dwells in
    flight — carrying ``ack_image`` when one is set.  No cache
    managers and no static map (its numpy row scans are O(V) by
    construction): the protocol sees live views, the profiler sees only
    the directory.  ``directory_kwargs`` go to the
    :class:`~repro.core.directory.DirectoryManager`.
    """

    def __init__(self, ack_delay: float = 0.0, **directory_kwargs) -> None:
        self.kernel = SimKernel()
        self.transport = SimTransport(self.kernel, default_latency=0.01)
        self.ack_delay = ack_delay
        self.ack_image: Optional[ObjectImage] = None
        self.store: Dict[str, int] = {}
        directory_kwargs.setdefault("extract_from_object", extract_slice)
        directory_kwargs.setdefault("merge_into_object", merge_slice)
        self.dm = DirectoryManager(
            transport=self.transport,
            address="dir",
            component=self.store,
            static_map=None,
            profile=True,
            **directory_kwargs,
        )
        self.replies: List[Message] = []
        self._seq: Dict[str, int] = {}
        self.endpoint = self.transport.bind("cmhub", self._on_message)

    def _on_message(self, msg: Message) -> None:
        if msg.msg_type not in (M.INVALIDATE, M.FETCH_REQ):
            self.replies.append(msg)
            return
        # An INVALIDATE_ACK with nothing to hand over carries no image at
        # all (the directory reads a missing one as empty), so the wire
        # bytes of a plain run do not depend on this fixture's options.
        payload = {"view_id": msg.payload.get("view_id")}
        if self.ack_image is not None:
            payload["image"] = self.ack_image
        elif msg.msg_type == M.FETCH_REQ:
            payload["image"] = ObjectImage()
        reply = msg.reply(
            M.INVALIDATE_ACK if msg.msg_type == M.INVALIDATE else M.FETCH_REPLY,
            payload,
        )
        if self.ack_delay:
            self.transport.schedule(
                self.ack_delay, lambda: self.endpoint.send(reply)
            )
        else:
            self.endpoint.send(reply)

    def drain(self) -> None:
        self.kernel.run()

    def now(self) -> float:
        return self.transport.now()

    # -- protocol verbs (sent from the hub; each returns its request) ----
    def _send(self, msg_type: str, payload: Dict[str, object]) -> Message:
        msg = Message(msg_type, "cmhub", "dir", payload)
        self.endpoint.send(msg)
        return msg

    def register(self, view_id: str, props: PropertySet) -> Message:
        return self._send(M.REGISTER, {
            "view_id": view_id, "properties": props, "mode": "weak",
        })

    def pull(self, view_id: str) -> Message:
        return self._send(M.PULL_REQ, {"view_id": view_id})

    def acquire(self, view_id: str) -> Message:
        return self._send(M.ACQUIRE, {"view_id": view_id})

    def push(self, view_id: str, cells: Dict[str, int]) -> Message:
        seq = self._seq.get(view_id, 0) + 1
        self._seq[view_id] = seq
        return self._send(M.PUSH, {
            "view_id": view_id, "image": ObjectImage(dict(cells)),
            "state_seq": seq,
        })

    # -- fingerprints -----------------------------------------------------
    def state_digest(self) -> str:
        blob = repr(sorted(self.store.items())).encode()
        return hashlib.sha1(blob).hexdigest()

    def conflict_digest(self) -> str:
        """Fingerprint of every view's conflict answer (parity probe)."""
        answers = {
            vid: sorted(self.dm.conflict_set_of(vid))
            for vid in sorted(self.dm.views)
        }
        return hashlib.sha1(repr(answers).encode()).hexdigest()

    def close(self) -> None:
        self.dm.close()
        self.transport.close()
