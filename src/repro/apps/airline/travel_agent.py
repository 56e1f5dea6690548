"""The travel agent — a replicated view of the flight database.

Mirrors the paper's Fig 3 listing: the agent owns a local working copy
of its served flights, exposes the reservation interface to clients,
and implements the extract/merge functions Flecc calls.  The
``lifecycle`` generator reproduces Fig 3's run() flow (create cache
manager, init, loop of pull/use/confirm/push, kill).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.apps.airline.flights import Flight, ReservationError, flights_property
from repro.core.cache_manager import CacheManager
from repro.core.image import ObjectImage
from repro.core.property_set import PropertySet
from repro.core.system import FleccSystem


class TravelAgent:
    """View object: a local copy of the flights it serves.

    Trigger expressions may reference ``reservations_made`` and
    ``browse_count`` via reflection (paper §4.1's view variables).
    """

    def __init__(self, agent_id: str, served_flights: Iterable[str]) -> None:
        self.agent_id = agent_id
        self.served_flights: List[str] = sorted(served_flights)
        self.local: Dict[str, Flight] = {}
        # View variables available to quality triggers.
        self.reservations_made = 0
        self.browse_count = 0

    # -- client-facing operations -----------------------------------------
    def browse(self, number: str) -> Flight:
        self.browse_count += 1
        try:
            return self.local[number]
        except KeyError:
            raise ReservationError(
                f"agent {self.agent_id} does not serve flight {number}"
            ) from None

    def confirm_tickets(self, seats: int, number: str) -> None:
        """The paper's ``ars.confirmTickets(1, flightNumber)``."""
        flight = self.browse(number)
        if flight.seats_available < seats:
            raise ReservationError(
                f"flight {number} sold out at agent {self.agent_id}"
            )
        flight.seats_available -= seats
        self.reservations_made += seats

    def seats_available(self, number: str) -> int:
        return self.browse(number).seats_available

    # -- Flecc view interface (Fig 3 lines 41-44) ------------------------------
    def merge_into_view(self, image: ObjectImage, props: PropertySet) -> None:
        for number in image.keys():
            self.local[number] = Flight.from_cell(image.get(number))

    def extract_from_view(self, props: PropertySet) -> ObjectImage:
        img = ObjectImage()
        for number, flight in self.local.items():
            img.cells[number] = flight.to_cell()
        return img

    def properties(self) -> PropertySet:
        return flights_property(self.served_flights)


# Module-level adapters with the CacheManager's expected signatures.
def extract_from_agent(agent: TravelAgent, props: PropertySet) -> ObjectImage:
    return agent.extract_from_view(props)


def merge_into_agent(
    agent: TravelAgent, image: ObjectImage, props: PropertySet
) -> None:
    agent.merge_into_view(image, props)


def attach_cache_manager(
    system: FleccSystem, agent: TravelAgent, **view_options: Any
) -> CacheManager:
    """Create the agent's cache manager inside a FleccSystem;
    ``view_options`` go to :class:`CacheManager` unchanged."""
    return system.add_view(
        agent.agent_id,
        agent,
        agent.properties(),
        extract_from_agent,
        merge_into_agent,
        **view_options,
    )


def lifecycle(
    cm: CacheManager,
    agent: TravelAgent,
    operations: Iterable[tuple],
    think_time: float = 1.0,
):
    """Fig 3's run() as a transport-agnostic view script.

    ``operations`` is a sequence of ``("reserve", flight, seats)`` /
    ``("browse", flight)`` / ``("set_mode", mode)`` / ``("pull",)`` /
    ``("push",)`` steps.  Each reserve does pull -> use -> push like the
    paper's loop; the pull/push steps exist for trigger experiments that
    sync explicitly.
    """
    yield cm.start()
    yield cm.init_image()
    for op in operations:
        kind = op[0]
        if kind == "reserve":
            _, number, seats = op
            yield cm.pull_image()
            yield cm.start_use_image()
            agent.confirm_tickets(seats, number)
            if think_time:
                yield ("sleep", think_time)
            cm.end_use_image()
            yield cm.push_image()
        elif kind == "browse":
            _, number = op
            yield cm.start_use_image()
            agent.browse(number)
            cm.end_use_image()
        elif kind == "set_mode":
            yield cm.set_mode(op[1])
        elif kind == "pull":
            yield cm.pull_image()
        elif kind == "push":
            yield cm.push_image()
        elif kind == "sleep":
            yield ("sleep", op[1])
        else:
            raise ValueError(f"unknown operation {op!r}")
    yield cm.kill_image()
    return agent.reservations_made
