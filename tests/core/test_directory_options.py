"""One option list: every builder forwards directory options unchanged.

``DirectoryManager.__init__`` is the only place a directory option and
its default are spelt.  ``FleccSystem``, ``ShardedFleccSystem``,
``make_system`` and ``build_airline_system`` take ``**options`` and pass
them down, so each keyword that reaches a directory must be one its
constructor names — for every protocol's directory class — and a
misspelt one must fail loudly instead of being dropped on the way.
"""

import inspect

import pytest

from repro.apps.airline import build_airline_system, generate_flight_database
from repro.baselines import common
from repro.baselines.common import make_system
from repro.core.directory import DirectoryManager
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem
from repro.net import SimTransport
from repro.sim import SimKernel
from repro.testing import Store, extract_from_object, merge_into_object

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
