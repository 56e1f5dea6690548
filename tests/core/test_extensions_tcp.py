"""The §6 extensions over real TCP sockets: the transport seam holds
for the RW-semantics and service layers too."""

import pytest

from repro.apps.airline import Flight, FlightDatabase
from repro.apps.airline.flights import extract_from_database, merge_into_database
from repro.apps.airline.service import RemoteClient, TravelAgentService
from repro.apps.airline.travel_agent import (
    TravelAgent,
    extract_from_agent,
    merge_into_agent,
)
from repro.core import FleccSystem, Mode
from repro.core.rw_semantics import Access, RWCacheManager, RWDirectoryManager
from repro.core.system import run_all_scripts
from repro.net import resolve_transport

from tests.core.harness import (
    Agent,
    Store,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)


@pytest.fixture()
def tcp():
    transport = resolve_transport("tcp")
    yield transport
    transport.close()


def test_rw_read_sharing_over_tcp(tcp):
    directory = RWDirectoryManager(
        transport=tcp, address="dir", component=Store({"a": 7}),
        extract_from_object=extract_from_object,
        merge_into_object=merge_into_object,
    )
    cms = []
    for i in range(3):
        agent = Agent()
        cm = RWCacheManager(
            transport=tcp, directory_address="dir", view_id=f"r{i}",
            view=agent, properties=props_for(["a"]),
            extract_from_view=extract_from_view,
            merge_into_view=merge_into_view, mode=Mode.STRONG,
        )
        cms.append((cm, agent))

    def reader(cm, agent):
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.READ)
        value = agent.local["a"]
        yield ("sleep", 50.0)  # hold shared access concurrently
        cm.end_use_image()
        return value

    results = run_all_scripts(tcp, [reader(cm, a) for cm, a in cms])
    assert results == [7, 7, 7]
    from repro.core import messages as M

    assert M.INVALIDATE not in tcp.stats.by_type
    directory.check_invariants()


def test_service_layer_over_tcp(tcp):
    database = FlightDatabase([Flight("UA100", "NYC", "SFO", 30, 30, 99.0)])
    system = FleccSystem(
        tcp, database, extract_from_database, merge_into_database
    )
    agent = TravelAgent("ta-1", ["UA100"])
    cm = system.add_view(
        "ta-1", agent, agent.properties(),
        extract_from_agent, merge_into_agent, mode=Mode.WEAK,
    )

    def setup():
        yield cm.start()
        yield cm.init_image()

    run_all_scripts(tcp, [setup()])
    service = TravelAgentService(tcp, agent, cm)
    client = RemoteClient(tcp, "c1", service.address)

    def session():
        browse = yield client.browse("UA100")
        buy = yield client.buy("UA100", seats=4)
        return browse["flight"]["seats_available"], buy["seats_left"]

    [(before, after)] = run_all_scripts(tcp, [session()])
    assert before == 30 and after == 26
    assert database.seats_available("UA100") == 26
