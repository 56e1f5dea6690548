"""The flight database — the airline app's *original component*.

Each flight is one Flecc data cell (granularity: per flight), so two
travel agents conflict exactly when their served flight sets overlap —
the sharing structure the paper's Fig 4 experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional

from repro.core.domains import DiscreteSet
from repro.core.image import ObjectImage
from repro.core.property import Property
from repro.core.property_set import PropertySet
from repro.errors import ReproError


class ReservationError(ReproError):
    """A reservation could not be satisfied (e.g. sold out)."""


@dataclass
class Flight:
    """One flight record (one Flecc cell)."""

    number: str
    origin: str
    destination: str
    capacity: int
    seats_available: int
    price: float

    def to_cell(self) -> dict:
        """Wire representation (a plain dict cell value)."""
        return {
            "number": self.number,
            "origin": self.origin,
            "destination": self.destination,
            "capacity": self.capacity,
            "seats_available": self.seats_available,
            "price": self.price,
        }

    @classmethod
    def from_cell(cls, d: dict) -> "Flight":
        return cls(
            number=d["number"],
            origin=d["origin"],
            destination=d["destination"],
            capacity=d["capacity"],
            seats_available=d["seats_available"],
            price=d["price"],
        )


class FlightDatabase:
    """The primary copy of all flight state."""

    def __init__(self, flights: Iterable[Flight] = ()) -> None:
        self.flights: Dict[str, Flight] = {}
        for f in flights:
            self.add_flight(f)

    def add_flight(self, flight: Flight) -> None:
        if flight.number in self.flights:
            raise ReservationError(f"duplicate flight {flight.number}")
        if flight.seats_available > flight.capacity or flight.seats_available < 0:
            raise ReservationError(
                f"flight {flight.number}: seats {flight.seats_available} "
                f"outside [0, {flight.capacity}]"
            )
        self.flights[flight.number] = flight

    # -- query/update API (used directly by locally-served clients) ------
    def browse(
        self, origin: Optional[str] = None, destination: Optional[str] = None
    ) -> List[Flight]:
        out = [
            f for f in self.flights.values()
            if (origin is None or f.origin == origin)
            and (destination is None or f.destination == destination)
        ]
        return sorted(out, key=lambda f: f.number)

    def seats_available(self, number: str) -> int:
        return self._get(number).seats_available

    def reserve(self, number: str, seats: int = 1) -> None:
        """Atomically take seats; raises when not enough remain."""
        f = self._get(number)
        if seats < 1:
            raise ReservationError(f"invalid seat count {seats}")
        if f.seats_available < seats:
            raise ReservationError(
                f"flight {number} has {f.seats_available} seats, wanted {seats}"
            )
        f.seats_available -= seats

    def release(self, number: str, seats: int = 1) -> None:
        f = self._get(number)
        if f.seats_available + seats > f.capacity:
            raise ReservationError(f"release overflows capacity on {number}")
        f.seats_available += seats

    def total_seats_available(self) -> int:
        return sum(f.seats_available for f in self.flights.values())

    def _get(self, number: str) -> Flight:
        try:
            return self.flights[number]
        except KeyError:
            raise ReservationError(f"unknown flight {number}") from None


# ---------------------------------------------------------------------------
# Flecc integration (the functions of paper Fig 3, lines 34-44)
# ---------------------------------------------------------------------------

def flights_property(flight_numbers: Iterable[str]) -> PropertySet:
    """The "Flights" data property from the Fig 4 experiment: the set of
    flights a travel agent serves."""
    return PropertySet([Property("Flights", set(flight_numbers))])


def flight_index_property(lo: int, hi: int) -> PropertySet:
    """An *interval* flight property: serve flights ``FL{lo}..FL{hi}``.

    Exercises the paper's other domain kind (``D_p = [d_min, d_max]``,
    Definition 3): two agents conflict iff their index ranges overlap.
    The extract/merge functions interpret the interval against the
    numeric part of the flight number.
    """
    return PropertySet([Property("FlightIndex", (lo, hi))])


def _flight_index(number: str) -> Optional[int]:
    """Numeric part of an FLxxxx flight number, or None."""
    if number.startswith("FL") and number[2:].isdigit():
        return int(number[2:])
    return None


def _served_numbers(present: Collection[str], props: PropertySet) -> List[str]:
    """The flight numbers among ``present`` that ``props`` selects, sorted."""
    by_name = props.get("Flights")
    by_index = props.get("FlightIndex")
    if by_name is None and by_index is None:
        return sorted(present)
    if by_index is None and isinstance(by_name.domain, DiscreteSet):
        # A named slice: walk the smaller of it and ``present`` (the
        # slice against a whole database, the keys of a delta serve
        # against their slice), looking each up in the other.
        values = by_name.domain.values
        walk, look = (
            (values, present) if len(values) < len(present) else (present, values)
        )
        return sorted(n for n in walk if n in look)
    out = []
    for n in present:
        if by_name is not None and by_name.domain.contains(n):
            out.append(n)
            continue
        if by_index is not None:
            idx = _flight_index(n)
            if idx is not None and by_index.domain.contains(idx):
                out.append(n)
    return sorted(out)


def extract_from_database(db: FlightDatabase, props: PropertySet) -> ObjectImage:
    """``extractFromObject``: snapshot the served flights as cells."""
    img = ObjectImage()
    for number in _served_numbers(db.flights.keys(), props):
        img.cells[number] = db.flights[number].to_cell()
    return img


def extract_cells_from_database(
    db: FlightDatabase, props: PropertySet, keys: Iterable[str]
) -> ObjectImage:
    """Partial extract for delta serves: only ``keys``, no full scan."""
    img = ObjectImage()
    for number in _served_numbers(
        {k for k in keys if k in db.flights}, props
    ):
        img.cells[number] = db.flights[number].to_cell()
    return img


def merge_into_database(
    db: FlightDatabase, image: ObjectImage, props: PropertySet
) -> None:
    """``mergeIntoObject``: apply pushed flight cells to the primary copy."""
    for number in image.keys():
        db.flights[number] = Flight.from_cell(image.get(number))


def seat_conflict_resolver(key: str, current: dict, pushed: dict) -> dict:
    """Domain conflict rule for write-write races on a flight cell.

    A stale push (the pusher had not seen the latest committed update)
    must never *increase* seats_available — that would resurrect seats
    another agent already sold.  Taking the minimum keeps the seat count
    monotone non-increasing under reservation workloads.  Note this is
    state-based resolution (Coda/Bayou style, paper §4.1): perfectly
    simultaneous equal decrements still collapse to one — eliminating
    that requires STRONG mode, which is the paper's point.
    """
    if current["seats_available"] <= pushed["seats_available"]:
        merged = dict(current)
    else:
        merged = dict(pushed)
    merged["seats_available"] = min(
        current["seats_available"], pushed["seats_available"]
    )
    return merged
