"""The composed socket plane, built and driven for footprint tests.

``build_composed`` is the benchmark's fast-path shape over the
:mod:`repro.testing` store: reliable delivery over one aio transport
that wraps batches, four shards, ``binary+zlib`` frames, delta serves,
coalesced and unbounded concurrent rounds, and a ``fsync="batch"`` WAL
behind every shard.  ``build_aio`` is a plain :class:`FleccSystem` on
aio.  ``drive`` runs strong and weak views through start, init,
acquire, push and pull on either and checks the store; ``leftovers``
also leaves requests in flight, closes, and reports what outlived it.

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


def _script(cm: Any, agent: Agent, mode: str, cell: str):
    yield cm.start()
    yield cm.init_image()
    for _ in range(ROUNDS):
        if mode == "weak":
            yield cm.pull_image()
        yield cm.start_use_image()       # an ACQUIRE for a strong view
        agent.local[cell] += 1
        cm.end_use_image()
        yield cm.push_image()
    yield cm.pull_image()


def drive(system: FleccSystem, store: Store) -> None:
    """Every view increments its own cell ``ROUNDS`` times; raises if an
    op failed or an increment was lost.  ``w0`` also polls a push
    trigger and ``s0`` arms request retries, so timers are live."""
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
        scripts.append(_script(cm, agent, mode, cell))
    run_all_scripts(system.transport, scripts, timeout=60.0)
    for _, _, cell in VIEWS.values():
        assert store.cells[cell] == ROUNDS, (cell, store.cells[cell])


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
