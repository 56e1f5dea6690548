"""PSF declarative spec + Flecc wiring for the airline application.

Two entry points:

- :func:`airline_spec` — the declarative :class:`ApplicationSpec`
  (flight database + travel-agent view + codec types) that the PSF
  planner consumes.
- :func:`build_airline_system` — the coherence-layer shortcut used by
  the experiments: a FleccSystem over a LAN of travel agents, matching
  the paper's testbed ("travel agents deployed into a LAN and connected
  to a main database running in the same LAN").
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.apps.airline.flights import (
    extract_cells_from_database,
    FlightDatabase,
    extract_from_database,
    merge_into_database,
    seat_conflict_resolver,
)
from repro.apps.airline.security import Decryptor, Encryptor
from repro.apps.airline.travel_agent import TravelAgent, attach_cache_manager
from repro.baselines.common import ProtocolName, make_system
from repro.core.cache_manager import CacheManager
from repro.core.messages import TraceLog
from repro.core.sharding import KeyRangePartitioner, ShardedFleccSystem
from repro.core.system import FleccSystem
from repro.net.sim_transport import SimTransport
from repro.net.topology import lan_topology
from repro.psf.component import ComponentType, Interface
from repro.psf.specification import ApplicationSpec
from repro.psf.view import ViewKind, derive_view
from repro.sim.kernel import SimKernel


def airline_spec(database_node: str = "db-server") -> ApplicationSpec:
    """The §5.1 application as a PSF declarative specification."""
    database = ComponentType.make(
        "FlightDatabase",
        implements=[Interface.make("AirlineReservation", role="primary")],
        functions={"browse", "reserve", "confirm_tickets"},
        variables={"flights"},
        sensitive=True,
        pinned_to=database_node,
    )
    travel_agent = derive_view(
        database,
        ViewKind.CUSTOMIZATION,
        name="TravelAgent",
        functions={"browse", "confirm_tickets"},
        variables={"flights"},
    )
    encryptor = ComponentType.make(
        "Encryptor", implements=[Interface.make("LinkCodec", direction="encrypt")]
    )
    decryptor = ComponentType.make(
        "Decryptor", implements=[Interface.make("LinkCodec", direction="decrypt")]
    )
    return ApplicationSpec.build(
        "airline-reservation",
        [database, travel_agent, encryptor, decryptor],
        service_interface="AirlineReservation",
        encryptor="Encryptor",
        decryptor="Decryptor",
    )


class AirlineSystem:
    """A runnable airline deployment: kernel + transport + Flecc + agents."""

    def __init__(
        self,
        kernel: Optional[SimKernel],
        transport,
        system: FleccSystem,
        database: FlightDatabase,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.system = system
        self.database = database
        self.agents: Dict[str, TravelAgent] = {}
        self.cache_managers: Dict[str, CacheManager] = {}

    def add_travel_agent(
        self,
        agent_id: str,
        served_flights: Iterable[str],
        node: Optional[str] = None,
        **view_options: Any,
    ) -> Tuple[TravelAgent, CacheManager]:
        """A travel agent and its cache manager, placed on ``node`` when
        the transport has a topology; ``view_options`` go to
        :class:`CacheManager` unchanged."""
        agent = TravelAgent(agent_id, served_flights)
        cm = attach_cache_manager(self.system, agent, **view_options)
        if node is not None and getattr(self.transport, "topology", None) is not None:
            self.transport.place(cm.address, node)
        self.agents[agent_id] = agent
        self.cache_managers[agent_id] = cm
        return agent, cm

    @property
    def directory(self):
        return self.system.directory

    @property
    def stats(self):
        return self.transport.stats


def build_airline_system(
    database: FlightDatabase,
    n_agent_hosts: int = 0,
    protocol: ProtocolName | str = ProtocolName.FLECC,
    lan_latency: float = 0.5,
    use_conflict_resolver: bool = True,
    trace: Optional[TraceLog] = None,
    strict_wire: bool = True,
    codec: Optional[object] = None,
    n_shards: int = 1,
    partitioner: Optional[KeyRangePartitioner] = None,
    transport: object = "sim",
    **directory_options: object,
) -> AirlineSystem:
    """The paper's LAN testbed as a simulated system.

    A star LAN hosts the database (``db-server``) and, optionally,
    ``agent-<i>`` hosts; the Flecc directory lives with the database.
    With ``n_shards > 1`` (or an explicit ``partitioner``) the Flecc
    primary copy is partitioned across a sharded directory plane —
    every shard still lives on ``db-server``, matching the paper's
    single-database deployment while parallelizing conflict rounds.

    ``transport`` picks the backend (a :func:`resolve_transport` spec
    or instance).  The default ``"sim"`` builds the simulated LAN; with
    ``"aio"`` the same system runs over real sockets —
    there is no topology to place endpoints on (everything is
    localhost), and ``kernel`` on the returned system is ``None``.

    ``directory_options`` (``delta``, ``durability``,
    ``concurrent_rounds``, ...) reach the system builder, and through
    it every directory, unchanged.
    """
    from repro.net.transport import resolve_transport

    if transport == "sim":
        kernel = SimKernel()
        hosts = ["db-server"] + [f"agent-{i}" for i in range(n_agent_hosts)]
        topology = lan_topology(hosts, latency=lan_latency)
        transport = SimTransport(
            kernel, topology=topology, strict_wire=strict_wire, codec=codec
        )
    elif isinstance(transport, str):
        transport = resolve_transport(transport, codec=codec)
        kernel = getattr(transport, "kernel", None)
    else:
        transport = resolve_transport(transport)
        if codec is not None:
            transport.set_codec(codec)
        kernel = getattr(transport, "kernel", None)
    sharded = n_shards > 1 or partitioner is not None
    if sharded and ProtocolName(protocol) is not ProtocolName.FLECC:
        raise ValueError(
            "sharded directory plane is a Flecc feature; baseline "
            f"protocol {protocol!r} cannot be sharded"
        )
    if sharded:
        build = partial(
            ShardedFleccSystem, n_shards=n_shards, partitioner=partitioner
        )
    else:
        build = partial(make_system, protocol)
    system: FleccSystem = build(
        transport,
        database,
        extract_from_database,
        merge_into_database,
        conflict_resolver=(
            seat_conflict_resolver if use_conflict_resolver else None
        ),
        trace=trace,
        extract_cells=extract_cells_from_database,
        **directory_options,
    )
    if getattr(transport, "topology", None) is not None:
        # Every shard lives with the database; an unsharded directory
        # is its one address.
        directory = system.directory
        for address in getattr(directory, "addresses", [directory.address]):
            transport.place(address, "db-server")
    return AirlineSystem(kernel, transport, system, database)
