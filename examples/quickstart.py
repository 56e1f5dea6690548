#!/usr/bin/env python3
"""Quickstart: keep two replicated views coherent with Flecc.

This is the smallest end-to-end use of the library:

1. Define an *original component* (here: a dict of named counters) and
   the two functions Flecc calls to move state in and out of it.
2. Define a *view* object with its own extract/merge functions and a
   data property describing which slice of the component it works on.
3. Run both views concurrently; Flecc decides who conflicts with whom
   from the property intersection and keeps the primary copy current.

Run:  python examples/quickstart.py
"""

from repro.core import (
    FleccSystem,
    Mode,
    ObjectImage,
    Property,
    PropertySet,
)
from repro.core.system import run_all_scripts
from repro.net import SimTransport
from repro.sim import SimKernel


# --- 1. The original component --------------------------------------------

class CounterStore:
    """The shared state: named counters."""

    def __init__(self):
        self.counters = {"hits": 0, "misses": 0, "errors": 0}


def extract_from_store(store, props):
    """Flecc asks: give me the slice described by these properties."""
    wanted = props.get("counters")
    img = ObjectImage()
    for name, value in store.counters.items():
        if wanted is None or wanted.domain.contains(name):
            img.cells[name] = value
    return img


def merge_into_store(store, image, props):
    """Flecc says: a view pushed these updated cells."""
    for name in image.keys():
        store.counters[name] = image.get(name)


# --- 2. A view ---------------------------------------------------------------

class CounterView:
    """A replica working on a subset of the counters."""

    def __init__(self):
        self.local = {}

    def bump(self, name):
        self.local[name] += 1


def extract_from_view(view, props):
    img = ObjectImage()
    img.cells.update(view.local)
    return img


def merge_into_view(view, image, props):
    for name in image.keys():
        view.local[name] = image.get(name)


def main():
    # Deterministic in-process transport (swap in AioTcpTransport for
    # real sockets — the protocol code is identical).
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)

    system = FleccSystem(
        transport, CounterStore(), extract_from_store, merge_into_store
    )

    # Two views: they overlap on the "misses" counter, so Flecc will
    # treat them as conflicting; a third counter slice would not be.
    frontend, backend = CounterView(), CounterView()
    cm_front = system.add_view(
        "frontend", frontend,
        PropertySet([Property("counters", {"hits", "misses"})]),
        extract_from_view, merge_into_view, mode=Mode.WEAK,
    )
    cm_back = system.add_view(
        "backend", backend,
        PropertySet([Property("counters", {"misses", "errors"})]),
        extract_from_view, merge_into_view, mode=Mode.STRONG,
    )

    def frontend_script():
        yield cm_front.start()                 # register with the directory
        yield cm_front.init_image()            # fetch the initial slice
        yield cm_front.start_use_image()       # critical section
        frontend.bump("hits")
        frontend.bump("misses")
        cm_front.end_use_image()
        yield cm_front.push_image()            # commit to the primary copy
        yield cm_front.kill_image()

    def backend_script():
        yield cm_back.start()
        yield cm_back.init_image()
        yield ("sleep", 20.0)                  # let the frontend commit
        # STRONG mode: start_use acquires exclusive ownership and
        # fresh data (it would invalidate a conflicting active view).
        yield cm_back.start_use_image()
        print(f"backend sees misses={backend.local['misses']} (fresh)")
        backend.bump("errors")
        cm_back.end_use_image()
        yield cm_back.kill_image()

    run_all_scripts(transport, [frontend_script(), backend_script()])

    store = system.directory.component
    print(f"final counters: {store.counters}")
    print(f"protocol messages exchanged: {transport.stats.total}")
    print(transport.stats.summary())


if __name__ == "__main__":
    main()
