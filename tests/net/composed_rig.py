"""The composed socket plane, built and driven for footprint tests.

``build_composed`` is the benchmark's fast-path shape over the
:mod:`repro.testing` store: reliable delivery over one aio transport
that wraps batches, four shards, ``binary+zlib`` frames, delta serves,
coalesced and unbounded concurrent rounds, and a ``fsync="batch"`` WAL
behind every shard.  ``build_aio`` is a plain :class:`FleccSystem` on
aio.  ``drive`` runs strong and weak views through start, init,
acquire, push and pull on either and checks the store; ``leftovers``
also leaves requests in flight, closes, and reports what outlived it.
``drive_through_link_loss`` drives the composed plane while its mux
connection is lost mid-burst, and reports what each message did.

The functions run in a fresh interpreter (tests/net/test_footprint.py
starts one per check), so they import nothing a socket stack does not
need — least of all networkx, which a blocked import must not reach.
"""

from __future__ import annotations

import gc
import weakref
from typing import Any, Dict, List, Tuple

from repro.core.durability import DurabilitySpec
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem, run_all_scripts
from repro.core.triggers import TriggerSet
from repro.net.aio_transport import AioTcpTransport
from repro.net.reliability import ReliableTransport
from repro.net.transport import Transport
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)

CELLS = [f"c{i:02d}" for i in range(16)]
ROUNDS = 3
#: view id -> (mode, its slice, the cell it increments)
VIEWS = {
    "s0": ("strong", ["c00", "c01"], "c00"),
    "s1": ("strong", ["c00", "c01"], "c01"),
    "w0": ("weak", ["c08"], "c08"),
    "w1": ("weak", ["c12", "c13"], "c12"),
}


def build_composed(wal_root: str) -> Tuple[ShardedFleccSystem, Transport, Store]:
    store = Store({c: 0 for c in CELLS})
    top = ReliableTransport(AioTcpTransport(wrap_batches=True))
    system = ShardedFleccSystem(
        top, store, extract_from_object, merge_into_object, n_shards=4,
        codec="binary+zlib", delta=True, coalesce_rounds=True,
        concurrent_rounds=0, extract_cells=extract_cells,
        durability=DurabilitySpec(wal_root, fsync="batch"),
    )
    return system, top, store


def build_aio() -> Tuple[FleccSystem, Transport, Store]:
    store = Store({c: 0 for c in CELLS})
    top = AioTcpTransport()
    system = FleccSystem(
        top, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells,
    )
    return system, top, store


def _script(cm: Any, agent: Agent, mode: str, cell: str, rounds: int = ROUNDS):
    yield cm.start()
    yield cm.init_image()
    for _ in range(rounds):
        if mode == "weak":
            yield cm.pull_image()
        yield cm.start_use_image()       # an ACQUIRE for a strong view
        agent.local[cell] += 1
        cm.end_use_image()
        yield cm.push_image()
    yield cm.pull_image()


def drive(system: FleccSystem, store: Store, rounds: int = ROUNDS) -> None:
    """Every view increments its own cell ``rounds`` times; raises if an
    op failed, or if the store differs from the single-dict model of
    those increments.  ``w0`` also polls a push trigger and ``s0`` arms
    request retries, so timers are live."""
    scripts = []
    for view_id, (mode, cells, cell) in VIEWS.items():
        options: Dict[str, Any] = {"mode": mode}
        if view_id == "w0":
            options.update(triggers=TriggerSet(push="t < 0"),
                           trigger_poll_period=5.0)
        if view_id == "s0":
            options["request_timeout"] = 5000.0
        agent = Agent()
        cm = system.add_view(view_id, agent, props_for(cells),
                             extract_from_view, merge_into_view, **options)
        scripts.append(_script(cm, agent, mode, cell, rounds))
    run_all_scripts(system.transport, scripts, timeout=60.0)
    model = {c: 0 for c in CELLS}
    for _, _, cell in VIEWS.values():
        model[cell] += rounds
    assert store.cells == model, store.cells


#: An encoded frame no codec reads (no binary magic, not UTF-8 JSON).
BAD_FRAME_BYTES = b"\x00\x00\x00\x03\xff\xff\xff"


def _drop_link(wire: AioTcpTransport) -> None:
    """Close every server connection, as the server does after a frame
    it cannot decode: the mux link's among them, mid-delivery."""
    for conn in list(wire._server_conns):
        conn.transport.close()


def _inject_bad_frame(wire: AioTcpTransport) -> None:
    """Make the link's next flush end with an undecodable frame."""
    encode = wire._encode_flush

    def once(msgs: List[Any], codec: Any) -> List[bytes]:
        del wire._encode_flush  # back to the class's
        return [*encode(msgs, codec), BAD_FRAME_BYTES]

    wire._encode_flush = once


def drive_through_link_loss(wal_root: str, fault: str,
                            after: int = 40) -> Dict[str, Any]:
    """``drive`` the composed plane, strong pushes and weak pulls, while
    the mux connection is lost once: after ``after`` deliveries it is
    dropped from the server side (``fault="drop"``) or handed an
    undecodable frame (``fault="bad_frame"``).  ``drive`` checks every
    op and the end state; returns the msg_ids handed to handlers, the
    wire's counters, the errors it listed and whether the faulted link
    was replaced."""
    system, top, store = build_composed(wal_root)
    wire = top.inner
    assert isinstance(wire, AioTcpTransport)
    delivered: List[int] = []
    faulted: List[Any] = []  # the link that carried the fault
    invoke = wire._invoke
    act = {"drop": _drop_link, "bad_frame": _inject_bad_frame}[fault]

    def counting(ep: Any, msg: Any) -> None:
        delivered.append(msg.msg_id)
        if len(delivered) == after:
            faulted.append(wire._link)
            act(wire)
        invoke(ep, msg)

    wire._invoke = counting
    try:
        drive(system, store, rounds=6)
        system.plane.check_invariants()
    finally:
        system.close()
        top.close()
        del wire._invoke
    return {
        "delivered": delivered,
        "wire": wire.stats,
        "logical": top.stats,
        "errors": [kind for kind, _ in wire.handler_errors],
        "replaced": bool(faulted) and wire._link is not faulted[0],
    }


def _strand(system: FleccSystem):
    """Leave work in flight for close(): ``s0`` stays inside its critical
    section, a second ``start_use`` of it waits on its use lock, and the
    ACQUIRE of ``s1`` waits on the revocation ``s0`` defers."""
    s0, s1 = system.cache_managers["s0"], system.cache_managers["s1"]
    yield s0.start_use_image()
    s0.start_use_image()
    s1.start_use_image()
    yield ("sleep", 50.0)


def _watch(system: Any, top: Transport) -> Dict[str, "weakref.ref"]:
    """Weak references to every object a closed plane must free."""
    named: Dict[str, Any] = {"system": system}
    shards = [system.directory]
    plane = getattr(system, "plane", None)
    if plane is not None:
        named["plane"] = plane
        named["router"] = plane.router
        shards = plane.shards
    for i, dm in enumerate(shards):
        named[f"dm{i}"] = dm
        if dm.durability is not None:
            named[f"durability{i}"] = dm.durability
            named[f"wal{i}"] = dm.durability._writer
    for view_id, cm in system.cache_managers.items():
        named[f"cm:{view_id}"] = cm
    t: Any = top
    while t is not None:
        named[type(t).__name__] = t
        t = getattr(t, "inner", None)
    return {name: weakref.ref(obj) for name, obj in named.items()}


def _drive_and_strand(system: FleccSystem, store: Store) -> None:
    drive(system, store)
    run_all_scripts(system.transport, [_strand(system)], timeout=60.0)


def _start(cm: Any):
    yield cm.start()


def _register_only(system: FleccSystem, store: Store) -> None:
    """Views register and request nothing: a sharded plane keeps its
    provisional cut, and its router the re-cut hook, until close."""
    scripts = [
        _start(system.add_view(view_id, Agent(), props_for(cells),
                               extract_from_view, merge_into_view,
                               mode=mode))
        for view_id, (mode, cells, _) in VIEWS.items()
    ]
    run_all_scripts(system.transport, scripts, timeout=60.0)


def _run_and_close(build: Any, run: Any, *args: Any) -> Dict[str, "weakref.ref"]:
    system, top, store = build(*args)
    try:
        run(system, store)
    finally:
        system.close()
        top.close()
    return _watch(system, top)


def leftovers(wal_root: str) -> Dict[str, List[str]]:
    """Build, run and close the composed plane (driven, and registered
    only) and a driven aio system with the cyclic collector off;
    returns what outlived ``del``: the names of watched objects still
    alive, and the ``repro.*`` types a collection would have had to
    reclaim."""
    runs = (
        ("composed", build_composed, _drive_and_strand, f"{wal_root}/served"),
        ("unplaced", build_composed, _register_only, f"{wal_root}/unplaced"),
        ("aio", build_aio, _drive_and_strand),
    )
    gc.collect()
    gc.disable()
    try:
        refs: Dict[str, "weakref.ref"] = {}
        for name, build, run, *args in runs:
            refs.update({f"{name}.{obj}": ref for obj, ref in
                         _run_and_close(build, run, *args).items()})
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage
            if type(o).__module__.startswith("repro.")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return {"alive": alive, "cyclic": cyclic}
