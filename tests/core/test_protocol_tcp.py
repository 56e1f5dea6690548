"""Integration: the identical Flecc protocol over real TCP sockets.

The paper's prototype ran over a real network; these tests run the same
engine code (directory + cache managers) across localhost sockets with
the same view scripts (scripts step on completion callbacks and
transport timers; on aio, on the loop thread), asserting the same
protocol outcomes the sim tests establish.
"""

import pytest

from repro.core import (
    DiscreteSet,
    FleccSystem,
    Mode,
    ObjectImage,
    Property,
    PropertySet,
)
from repro.core import messages as M
from repro.core.system import run_all_scripts
from repro.core.triggers import TriggerSet
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
def tcp_system():
    transport = resolve_transport("tcp")
    store = Store({"a": 10, "b": 20})
    system = FleccSystem(transport, store, extract_from_object, merge_into_object)
    yield transport, store, system
    system.close()
    transport.close()


def test_weak_lifecycle_over_sockets(tcp_system):
    transport, store, system = tcp_system
    agent = Agent()
    cm = system.add_view(
        "v1", agent, props_for(["a"]), extract_from_view, merge_into_view
    )

    def script():
        yield cm.start()
        img = yield cm.init_image()
        assert img.get("a") == 10
        yield cm.start_use_image()
        agent.local["a"] = 99
        cm.end_use_image()
        yield cm.push_image()
        yield cm.kill_image()
        return agent.local["a"]

    [result] = run_all_scripts(transport, [script()])
    assert result == 99
    assert store.cells["a"] == 99
    assert system.directory.registered_views() == []


def test_strong_mode_serializability_over_sockets(tcp_system):
    transport, store, system = tcp_system
    store.cells["a"] = 0
    n_agents, n_ops = 3, 3
    cms = []
    for i in range(n_agents):
        agent = Agent()
        cm = system.add_view(
            f"v{i}", agent, props_for(["a"]),
            extract_from_view, merge_into_view, mode=Mode.STRONG,
        )
        cms.append((cm, agent))

    def script(cm, agent):
        yield cm.start()
        yield cm.init_image()
        for _ in range(n_ops):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        yield cm.kill_image()

    run_all_scripts(transport, [script(cm, a) for cm, a in cms])
    assert store.cells["a"] == n_agents * n_ops


def test_fetch_round_over_sockets(tcp_system):
    transport, store, system = tcp_system
    a1, a2 = Agent(), Agent()
    cm1 = system.add_view(
        "v1", a1, props_for(["a"]), extract_from_view, merge_into_view,
        triggers=TriggerSet(validity="true"),
    )
    cm2 = system.add_view(
        "v2", a2, props_for(["a"]), extract_from_view, merge_into_view
    )

    def modifier():
        yield cm2.start()
        yield cm2.init_image()
        yield cm2.start_use_image()
        a2.local["a"] = 1234  # dirty, not pushed
        cm2.end_use_image()

    def reader():
        yield cm1.start()
        yield cm1.init_image()
        yield ("sleep", 200.0)  # ~0.2 s: let the modifier finish
        img = yield cm1.pull_image()
        return img.get("a")

    results = run_all_scripts(transport, [modifier(), reader()])
    assert results[1] == 1234
    assert transport.stats.by_type.get(M.FETCH_REQ, 0) >= 1


def test_message_counts_match_sim_for_identical_workload(tcp_system):
    """The Fig 4 metric is transport-independent: the same single-view
    lifecycle produces the same message-type counts on TCP as in sim."""
    transport, store, system = tcp_system
    agent = Agent()
    cm = system.add_view(
        "v1", agent, props_for(["a"]), extract_from_view, merge_into_view
    )

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] += 1
        cm.end_use_image()
        yield cm.push_image()
        yield cm.kill_image()

    run_all_scripts(transport, [script()])
    by_type = transport.stats.by_type
    # Mirrors test_weak_lifecycle_message_sequence (sim): 4 request/
    # response pairs, no invalidations.
    assert by_type[M.REGISTER] == by_type[M.REGISTER_ACK] == 1
    assert by_type[M.INIT_REQ] == by_type[M.INIT_DATA] == 1
    assert by_type[M.PUSH] == by_type[M.PUSH_ACK] == 1
    assert by_type[M.UNREGISTER] == by_type[M.UNREGISTER_ACK] == 1
    assert M.INVALIDATE not in by_type
