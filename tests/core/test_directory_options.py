"""One option list: every builder forwards directory and view options
unchanged.

``DirectoryManager.__init__`` is the only place a directory option and
its default are spelt.  ``FleccSystem``, ``ShardedFleccSystem``,
``make_system`` and ``build_airline_system`` take ``**options`` and pass
them down, so each keyword that reaches a directory must be one its
constructor names — for every protocol's directory class — and a
misspelt one must fail loudly instead of being dropped on the way.
``CacheManager.__init__`` is the same for view options:
``FleccSystem.add_view``, ``attach_cache_manager``,
``AirlineSystem.add_travel_agent`` and ``ProtocolFixture.add_agent``
forward ``**view_options`` to it.
"""

import inspect

import pytest

from repro.apps.airline import build_airline_system, generate_flight_database
from repro.apps.airline.travel_agent import TravelAgent, attach_cache_manager
from repro.baselines import common
from repro.baselines.common import make_system
from repro.core import system as system_module
from repro.core.cache_manager import CacheManager
from repro.core.directory import DirectoryManager
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem
from repro.core.triggers import TriggerSet
from repro.net import SimTransport
from repro.sim import SimKernel
from repro.testing import (
    Agent,
    ProtocolFixture,
    Store,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)

#: A non-default value for each plain-valued directory option.
OPTIONS = dict(
    coalesce_rounds=True, round_timeout=7.0, lease_duration=9.0,
    concurrent_rounds=3, profile=True, delta=False,
)


def _spy(directory_cls, seen):
    """``directory_cls`` recording the keywords each instance was built with."""

    class Spy(directory_cls):
        def __init__(self, **kwargs):
            seen.append(kwargs)
            super().__init__(**kwargs)

    return Spy


def _parts():
    store = Store({"a": 1, "b": 2})
    return SimTransport(SimKernel()), store, extract_from_object, merge_into_object


def _flecc_system(spy, **options):
    return FleccSystem(*_parts(), directory_cls=spy, **options)


def _sharded_system(spy, **options):
    return ShardedFleccSystem(*_parts(), n_shards=2, directory_cls=spy, **options)


def _make_system(protocol):
    def build(spy, **options):
        common._DIRECTORY_CLASSES[protocol] = spy
        return make_system(protocol, *_parts(), **options)
    return build


def _airline(protocol):
    def build(spy, **options):
        common._DIRECTORY_CLASSES[protocol] = spy
        return build_airline_system(
            generate_flight_database(4), protocol=protocol, **options
        ).system
    return build


def _sharded_airline(spy, **options):
    return build_airline_system(
        generate_flight_database(4), n_shards=2, directory_cls=spy, **options
    ).system


#: test id -> (the directory class it builds, the builder under test)
BUILDERS = {
    **{
        f"FleccSystem-{cls.__name__}": (cls, _flecc_system)
        for cls in common._DIRECTORY_CLASSES.values()
    },
    "ShardedFleccSystem": (DirectoryManager, _sharded_system),
    "build_airline_system-sharded": (DirectoryManager, _sharded_airline),
    **{
        f"{name}-{protocol.value}": (cls, via(protocol))
        for protocol, cls in common._DIRECTORY_CLASSES.items()
        for name, via in (
            ("make_system", _make_system), ("build_airline_system", _airline)
        )
    },
}
every_builder = pytest.mark.parametrize(
    "directory_cls, build", list(BUILDERS.values()), ids=list(BUILDERS)
)


@pytest.fixture(autouse=True)
def _restore_directory_classes(monkeypatch):
    monkeypatch.setattr(
        common, "_DIRECTORY_CLASSES", dict(common._DIRECTORY_CLASSES)
    )


@every_builder
def test_every_forwarded_keyword_is_a_directory_parameter(directory_cls, build):
    accepted = set(inspect.signature(directory_cls.__init__).parameters)
    seen = []
    system = build(_spy(directory_cls, seen), **OPTIONS)
    assert seen, "no directory was built"
    for kwargs in seen:
        assert set(kwargs) <= accepted
        assert {k: kwargs[k] for k in OPTIONS} == OPTIONS
    system.close()


@every_builder
def test_a_misspelt_option_is_a_type_error_that_names_it(directory_cls, build):
    with pytest.raises(TypeError, match="concurent_rounds"):
        build(_spy(directory_cls, []), concurent_rounds=0)


# -- view options ------------------------------------------------------------

#: A non-default value for each option a caller may hand a view builder.
VIEW_OPTIONS = dict(
    mode="strong", triggers=TriggerSet(pull="t > 5"), trigger_poll_period=7.0,
    request_timeout=50.0, max_retries=2, heartbeat_period=11.0,
)


def _via_add_view(**options):
    system = FleccSystem(*_parts())
    system.add_view("v", Agent(), props_for(["a"]), extract_from_view,
                    merge_into_view, **options)
    return system


def _via_attach_cache_manager(**options):
    system = build_airline_system(generate_flight_database(4)).system
    attach_cache_manager(system, TravelAgent("ta", ["FL0001"]), **options)
    return system


def _via_add_travel_agent(**options):
    airline = build_airline_system(generate_flight_database(4))
    airline.add_travel_agent("ta", ["FL0001"], **options)
    return airline.system


def _via_add_agent(**options):
    fixture = ProtocolFixture()
    fixture.add_agent("v", ["a"], **options)
    return fixture.system


VIEW_BUILDERS = {
    "FleccSystem.add_view": _via_add_view,
    "attach_cache_manager": _via_attach_cache_manager,
    "AirlineSystem.add_travel_agent": _via_add_travel_agent,
    "ProtocolFixture.add_agent": _via_add_agent,
}
every_view_builder = pytest.mark.parametrize(
    "build", list(VIEW_BUILDERS.values()), ids=list(VIEW_BUILDERS)
)


@pytest.fixture
def cm_spy(monkeypatch):
    """Every ``CacheManager`` a builder makes records its keywords here."""
    seen = []

    class Spy(CacheManager):
        def __init__(self, **kwargs):
            seen.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(system_module, "CacheManager", Spy)
    return seen


@every_view_builder
def test_every_forwarded_view_keyword_is_a_cache_manager_parameter(
    build, cm_spy
):
    accepted = set(inspect.signature(CacheManager.__init__).parameters)
    system = build(**VIEW_OPTIONS)
    assert len(cm_spy) == 1
    assert set(cm_spy[0]) <= accepted
    assert {k: cm_spy[0][k] for k in VIEW_OPTIONS} == VIEW_OPTIONS
    system.close()


@every_view_builder
def test_a_misspelt_view_option_is_a_type_error_that_names_it(build):
    with pytest.raises(TypeError, match="heartbeat_perod"):
        build(heartbeat_perod=5.0)
