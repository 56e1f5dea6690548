"""A slice extract reads the flights its properties name, and gets what a
scan of the whole database against those properties gets, in the same
order, for both the full and the partial extract."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline.flights import (
    Flight,
    FlightDatabase,
    _flight_index,
    extract_cells_from_database,
    extract_from_database,
)
from repro.core import Interval, Property, PropertySet

NUMBERS = [f"FL{i:04d}" for i in range(24)] + ["UA100", "FLxx", "FL", "zz"]

numbers = st.sampled_from(NUMBERS)
databases = st.sets(numbers, max_size=len(NUMBERS)).map(
    lambda present: FlightDatabase(
        Flight(n, "NYC", "SFO", 10, i % 11, 100.0 + i)
        for i, n in enumerate(sorted(present))
    )
)
by_name = st.one_of(
    st.sets(st.one_of(numbers, st.integers(0, 30)), min_size=1),
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
        lambda t: Interval(min(t), max(t))),
)
by_index = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
    lambda t: (min(t), max(t)))


@st.composite
def property_sets(draw):
    props = []
    if draw(st.booleans()):
        props.append(Property("Flights", draw(by_name)))
    if draw(st.booleans()):
        props.append(Property("FlightIndex", draw(by_index)))
    if draw(st.booleans()):
        props.append(Property("Airline", {"UA", "AA"}))
    return PropertySet(props)


def scan(present, props):
    """Every present flight tested against the properties, sorted."""
    name, index = props.get("Flights"), props.get("FlightIndex")
    if name is None and index is None:
        return sorted(set(present))
    out = set()
    for n in present:
        if name is not None and name.domain.contains(n):
            out.add(n)
        elif index is not None:
            idx = _flight_index(n)
            if idx is not None and index.domain.contains(idx):
                out.add(n)
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(databases, property_sets())
def test_extract_equals_the_scan(db, props):
    image = extract_from_database(db, props)
    assert list(image.keys()) == scan(db.flights, props)
    for n in image.keys():
        assert image.get(n) == db.flights[n].to_cell()


@settings(max_examples=300, deadline=None)
@given(databases, property_sets(), st.lists(numbers, max_size=12))
def test_partial_extract_equals_the_scan(db, props, keys):
    image = extract_cells_from_database(db, props, keys)
    assert list(image.keys()) == scan(
        [k for k in keys if k in db.flights], props)
    for n in image.keys():
        assert image.get(n) == db.flights[n].to_cell()
