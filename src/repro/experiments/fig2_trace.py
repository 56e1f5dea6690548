"""FIG2 — reproduce the paper's Figure 2 protocol interaction trace.

The scenario: original component C holds property P over {x, y, z};
view V1 is deployed with P = {x, y}, view V2 with P = {x, z} (both in
STRONG mode).  V1 registers, initializes, and works; when V2 asks for
the data, the directory detects the conflict (the property intersection
{x} is non-empty), invalidates V1, and transfers control to V2; finally
both views announce their intention to stop.

``run_fig2()`` returns the recorded :class:`TraceLog`; the module entry
point prints it as a sequence chart plus the full event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core import FleccSystem, Mode, ObjectImage, PropertySet, Property
from repro.core.messages import TraceLog
from repro.core.system import run_all_scripts
from repro.core.trace_render import render_sequence
from repro.experiments.runner import Experiment, cli
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel


class _Component:
    """The original component: three data items x, y, z."""

    def __init__(self) -> None:
        self.data: Dict[str, int] = {"x": 1, "y": 2, "z": 3}


def _extract(comp: _Component, props: PropertySet) -> ObjectImage:
    p = props.get("P")
    img = ObjectImage()
    for k, v in comp.data.items():
        if p is None or p.domain.contains(k):
            img.cells[k] = v
    return img


def _merge(comp: _Component, image: ObjectImage, props: PropertySet) -> None:
    for k in image.keys():
        comp.data[k] = image.get(k)


class _View:
    def __init__(self) -> None:
        self.local: Dict[str, int] = {}


def _extract_view(view: _View, props: PropertySet) -> ObjectImage:
    img = ObjectImage()
    img.cells.update(view.local)
    return img


def _merge_view(view: _View, image: ObjectImage, props: PropertySet) -> None:
    view.local.update(
        {k: image.get(k) for k in image.keys()}
    )


@dataclass
class Fig2Result:
    trace: TraceLog
    final_data: Dict[str, int]
    v1_was_invalidated: bool
    v2_saw_v1_update: bool

    def table(self) -> str:
        return "\n".join([
            "FIG2 — strong-mode interaction trace (paper Figure 2)", "",
            render_sequence(self.trace, actors=["cm:V1", "dir", "cm:V2"]), "",
            "full event log:", self.trace.format(), "",
            f"final component data: {self.final_data}",
        ])


def run_fig2(latency: float = 1.0) -> Fig2Result:
    """Execute the Fig 2 scenario and return the trace + checks."""
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=latency)
    trace = TraceLog()
    component = _Component()
    system = FleccSystem(transport, component, _extract, _merge, trace=trace)

    v1, v2 = _View(), _View()
    cm1 = system.add_view(
        "V1", v1, PropertySet([Property("P", {"x", "y"})]),
        _extract_view, _merge_view, mode=Mode.STRONG,
    )
    cm2 = system.add_view(
        "V2", v2, PropertySet([Property("P", {"x", "z"})]),
        _extract_view, _merge_view, mode=Mode.STRONG,
    )

    observations = {}

    def v1_script():
        # Steps 1-5: create CM, register, ask for current data.
        yield cm1.start()
        yield cm1.init_image()
        # Steps 6-7: mark processing as mutually exclusive and work.
        yield cm1.start_use_image()
        v1.local["x"] = 100  # V1 modifies the shared item
        cm1.end_use_image()
        yield ("sleep", 40.0)
        observations["v1_invalidated"] = cm1.invalidated
        # Steps 20-21: announce intention to stop using the data.
        yield cm1.kill_image()

    def v2_script():
        yield cm2.start()
        yield ("sleep", 15.0)
        # Steps 12-14: V2 asks for data; the directory stops V1 and
        # gives control to V2.
        yield cm2.init_image()
        yield cm2.start_use_image()
        observations["v2_x"] = v2.local.get("x")
        v2.local["z"] = 300
        cm2.end_use_image()
        yield cm2.kill_image()

    run_all_scripts(transport, [v1_script(), v2_script()])
    return Fig2Result(
        trace=trace,
        final_data=dict(component.data),
        v1_was_invalidated=bool(observations.get("v1_invalidated")),
        v2_saw_v1_update=observations.get("v2_x") == 100,
    )


EXPERIMENT = Experiment("fig2_trace", run_fig2)

if __name__ == "__main__":
    cli(EXPERIMENT)
