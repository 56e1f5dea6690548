"""Discrete-event simulation kernel.

A small, deterministic, callback-based discrete-event engine in the
spirit of SimPy, used as the substrate under the simulated network
transport.  The paper's prototype ran on a real LAN; the simulation
kernel lets the same protocol code run deterministically at laptop scale
(see DESIGN.md, section 2).

Public surface:

- :class:`~repro.sim.kernel.SimKernel` — the event loop / clock
  (``call_at`` / ``call_in`` timers, ``step`` / ``peek`` / ``run``).
- :class:`~repro.sim.events.Event` — a one-shot occurrence with
  callbacks.
- :func:`~repro.sim.rng.make_rng` — seeded random streams.
- :class:`~repro.sim.faults.FaultScenario`,
  :class:`~repro.sim.faults.FaultInjector` — declarative, seedable
  fault injection compiled into transport fault policies + sim events.

The kernel has no processes: view scripts
(:func:`repro.core.system.run_view_script`) step on completion callbacks
and transport timers; on aio, on the loop thread.
"""

from repro.sim.events import Event
from repro.sim.faults import CrashPlan, FaultInjector, FaultScenario, Partition
from repro.sim.kernel import SimKernel
from repro.sim.rng import make_rng, spawn_rng

__all__ = [
    "Event",
    "SimKernel",
    "make_rng",
    "spawn_rng",
    "CrashPlan",
    "FaultInjector",
    "FaultScenario",
    "Partition",
]
