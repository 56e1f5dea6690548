"""FIG1 — the paper's deployment picture as a runnable scenario.

Figure 1 of the paper shows three domains connected to the Internet:
one runs the original component; the other two serve their local
clients through views whose working data is a subset of the original's.

This experiment builds that world end to end: the PSF planner places a
TravelAgent view in each remote domain (driven by the clients' latency
budgets), the deployment wires live Flecc cache managers over the WAN
topology, a strong-mode reservation workload runs in all three domains,
and the report shows where each client was served from, the latency it
got, and how much coherence traffic crossed the backbone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.apps.airline.flights import (
    extract_from_database,
    merge_into_database,
)
from repro.apps.airline.travel_agent import (
    TravelAgent,
    extract_from_agent,
    lifecycle,
    merge_into_agent,
)
from repro.apps.airline.workload import generate_flight_database
from repro.apps.airline.app_spec import airline_spec
from repro.core import FleccSystem, Mode
from repro.core.system import run_all_scripts
from repro.net.sim_transport import SimTransport
from repro.net.topology import wan_topology
from repro.psf.environment import Environment
from repro.psf.planning import Planner
from repro.psf.qos import QoSRequirement
from repro.sim.kernel import SimKernel
from repro.experiments.report import Table
from repro.experiments.runner import Experiment, cli


@dataclass
class Fig1Result:
    # client domain -> (serving type, node, latency)
    service: Dict[str, Tuple[str, str, float]] = field(default_factory=dict)
    total_messages: int = 0
    backbone_messages: int = 0
    reservations_made: int = 0
    seats_consistent: bool = False

    def table(self) -> Table:
        t = Table(
            ["client domain", "served by", "on node", "latency"],
            title="FIG1 — three-domain deployment (paper Figure 1)",
        )
        for domain in sorted(self.service):
            kind, node, lat = self.service[domain]
            t.add_row(domain, kind, node, lat)
        return t


def run_fig1(
    ops_per_domain: int = 4,
    internet_latency: float = 25.0,
    seed: int = 0,
) -> Fig1Result:
    # --- the Fig 1 world: three domains around the Internet ----------
    domains = {
        "domain1": ["origin-host", "d1-client"],
        "domain2": ["d2-host", "d2-client"],
        "domain3": ["d3-host", "d3-client"],
    }
    topo = wan_topology(
        domains, internet_latency=internet_latency, lan_latency=0.5,
        insecure_backbone=False,
    )
    env = Environment(topo)
    for hosts in domains.values():
        for h in hosts:
            topo.graph.nodes[h]["trusted"] = True
            topo.graph.nodes[h]["capacity"] = 4

    # --- PSF: plan view placement from the clients' QoS ------------------
    spec = airline_spec(database_node="origin-host")
    clients = [
        QoSRequirement(client_node="d1-client", max_latency=10.0),
        QoSRequirement(client_node="d2-client", max_latency=10.0),
        QoSRequirement(client_node="d3-client", max_latency=10.0),
    ]
    plan = Planner(spec, env).plan(clients)

    # --- deploy + wire Flecc over the WAN ------------------------------------
    kernel = SimKernel()
    transport = SimTransport(kernel, topology=topo, strict_wire=False)
    database = generate_flight_database(5, seed=seed)
    flecc = FleccSystem(
        transport, database, extract_from_database, merge_into_database
    )
    transport.place(flecc.directory.address, "origin-host")

    result = Fig1Result()
    agents: List[Tuple[TravelAgent, object, str]] = []
    for client in clients:
        serving = plan.placement_of(plan.client_bindings[client.client_node])
        domain = topo.node_attrs(client.client_node)["domain"]
        result.service[domain] = (
            serving.type_name,
            serving.node,
            plan.estimated_latency[client.client_node],
        )
        if serving.type_name == "TravelAgent":
            agent = TravelAgent(serving.instance_id, sorted(database.flights))
            cm = flecc.add_view(
                serving.instance_id, agent, agent.properties(),
                extract_from_agent, merge_into_agent, mode=Mode.STRONG,
            )
            transport.place(cm.address, serving.node)
            agents.append((agent, cm, domain))

    # --- the workload: every remote domain sells through its view ---------
    flight = sorted(database.flights)[0]
    seats_before = database.seats_available(flight)
    ops = [("reserve", flight, 1)] * ops_per_domain
    made = run_all_scripts(
        transport,
        [lifecycle(cm, agent, ops, think_time=1.0) for agent, cm, _ in agents],
    )
    result.reservations_made = sum(made)
    result.total_messages = transport.stats.total
    result.backbone_messages = _backbone_crossings(transport, topo)
    result.seats_consistent = (
        database.seats_available(flight) == seats_before - result.reservations_made
    )
    return result


def _backbone_crossings(transport: SimTransport, topo) -> int:
    """Messages whose endpoints sit in different domains."""
    def domain_of(address: str) -> str:
        node = transport.node_of(address)
        if node is None:
            return "?"
        return topo.node_attrs(node).get("domain", "?")

    return sum(
        n
        for (src, dst), n in transport.stats.by_pair.items()
        if domain_of(src) != domain_of(dst)
    )


def gates(result: Fig1Result) -> List[str]:
    problems = []
    if result.service.get("domain1", ("",))[0] != "FlightDatabase":
        problems.append("domain1 client not served by the original component")
    for d in ("domain2", "domain3"):
        if result.service.get(d, ("",))[0] != "TravelAgent":
            problems.append(f"{d} client not served by a view")
    if not result.seats_consistent:
        problems.append("strong-mode reservations lost across domains")
    if not all(lat <= 10.0 for _, _, lat in result.service.values()):
        problems.append("a client exceeded its latency budget")
    if result.backbone_messages == 0:
        problems.append("no coherence traffic crossed the backbone?!")
    return problems


EXPERIMENT = Experiment("fig1_deployment", run_fig1, seeded=True, gates=gates)

if __name__ == "__main__":
    cli(EXPERIMENT)
