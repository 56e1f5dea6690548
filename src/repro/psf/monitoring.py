"""The PSF monitoring module (paper §3.1, element ii).

"The monitoring module is responsible for tracking any changes in the
state of the environment (e.g. client, network) and trigger
adaptation."

The monitor is the single mutation point for environment state: code
that changes a link latency or a node attribute does it through the
monitor, which records the change and notifies subscribers (typically
an adaptation loop that re-plans and diffs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.psf.environment import Environment


@dataclass(frozen=True)
class ChangeEvent:
    """One observed environment change."""

    kind: str                      # 'link' | 'node' | 'client'
    subject: Tuple[str, ...]       # (a, b) for links, (node,) for nodes
    attribute: str
    old_value: Any
    new_value: Any


Subscriber = Callable[[ChangeEvent], None]


class Monitor:
    """Environment change tracker + publisher."""

    def __init__(self, environment: Environment) -> None:
        self.environment = environment
        self._subscribers: List[Subscriber] = []
        self.history: List[ChangeEvent] = []

    def subscribe(self, fn: Subscriber) -> Callable[[], None]:
        """Register a callback; returns an unsubscribe function."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

        return unsubscribe

    # -- mutations ---------------------------------------------------------
    def set_link_attr(self, a: str, b: str, attribute: str, value: Any) -> None:
        g = self.environment.topology.graph
        old = g.edges[a, b].get(attribute)
        if old == value:
            return
        g.edges[a, b][attribute] = value
        # Latency changes invalidate cached shortest paths.
        self.environment.topology._path_cache.clear()
        self._publish(ChangeEvent("link", (a, b), attribute, old, value))

    def set_node_attr(self, node: str, attribute: str, value: Any) -> None:
        g = self.environment.topology.graph
        old = g.nodes[node].get(attribute)
        if old == value:
            return
        g.nodes[node][attribute] = value
        self._publish(ChangeEvent("node", (node,), attribute, old, value))

    def _publish(self, event: ChangeEvent) -> None:
        self.history.append(event)
        for fn in list(self._subscribers):
            fn(event)


class AdaptationLoop:
    """Monitor -> planner -> plan diff, the PSF adaptation cycle.

    On every change event the loop re-plans and reports the placement
    diff to its ``on_adapt`` callback.  (Deployment of the diff is the
    deployer's job; experiments often only inspect the diff.)
    """

    def __init__(
        self,
        monitor: Monitor,
        planner: "Planner",
        clients: List["QoSRequirement"],
        on_adapt: Optional[Callable[[Dict[str, list]], None]] = None,
    ) -> None:
        from repro.psf.planning import Planner  # noqa: F401 (typing aid)

        self.monitor = monitor
        self.planner = planner
        self.clients = list(clients)
        self.on_adapt = on_adapt
        self.current_plan = planner.plan(self.clients)
        self.adaptations: List[Dict[str, list]] = []
        self._unsubscribe = monitor.subscribe(self._on_change)

    def _on_change(self, event: ChangeEvent) -> None:
        from repro.psf.planning import diff_plans

        new_plan = self.planner.plan(self.clients)
        diff = diff_plans(self.current_plan, new_plan)
        if diff["add"] or diff["remove"]:
            self.adaptations.append(diff)
            self.current_plan = new_plan
            if self.on_adapt is not None:
                self.on_adapt(diff)

    def update_clients(self, clients: List["QoSRequirement"]) -> None:
        """Client QoS changed (e.g. viewer became buyer): re-plan."""
        self.clients = list(clients)
        self._on_change(
            ChangeEvent("client", ("*",), "qos", None, None)
        )

    def stop(self) -> None:
        self._unsubscribe()
