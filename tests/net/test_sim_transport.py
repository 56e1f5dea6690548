"""Unit tests for repro.net.sim_transport."""

import pytest

from repro.errors import TransportError
from repro.net import Message, SimTransport, lan_topology
from repro.sim import SimKernel


def make(topology=None, **kw):
    k = SimKernel()
    return k, SimTransport(k, topology=topology, **kw)


def test_send_delivers_with_default_latency():
    k, tr = make(default_latency=2.5)
    got = []
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: got.append((k.now, m.msg_type)))
    tr.send(Message("HELLO", "a", "b"))
    k.run()
    assert got == [(2.5, "HELLO")]


def test_topology_latency_used_when_nodes_match_addresses():
    topo = lan_topology(["a", "b"], latency=0.5)
    k, tr = make(topology=topo)
    got = []
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: got.append(k.now))
    tr.send(Message("X", "a", "b"))
    k.run()
    assert got == [1.0]


def test_place_maps_logical_address_to_node():
    topo = lan_topology(["host1", "host2"], latency=0.5)
    k, tr = make(topology=topo)
    tr.bind("dir", lambda m: None)
    tr.bind("cm-1", lambda m: None)
    tr.place("dir", "host1")
    tr.place("cm-1", "host2")
    assert tr.latency_between("dir", "cm-1") == 1.0


def test_place_unknown_node_rejected():
    topo = lan_topology(["h"], latency=0.5)
    _, tr = make(topology=topo)
    with pytest.raises(TransportError):
        tr.place("x", "ghost")


def test_place_without_topology_rejected():
    _, tr = make()
    with pytest.raises(TransportError):
        tr.place("x", "n")


def test_message_to_unbound_address_is_dropped():
    k, tr = make()
    tr.bind("a", lambda m: None)
    tr.send(Message("X", "a", "ghost"))
    k.run()
    assert tr.stats.dropped == 1
    assert tr.stats.total == 1


def test_message_to_closed_endpoint_dropped():
    k, tr = make()
    got = []
    tr.bind("a", lambda m: None)
    ep = tr.bind("b", lambda m: got.append(m))
    tr.send(Message("X", "a", "b"))
    ep.close()
    k.run()
    assert got == [] and tr.stats.dropped == 1


def test_double_bind_rejected():
    _, tr = make()
    tr.bind("a", lambda m: None)
    with pytest.raises(TransportError, match="already bound"):
        tr.bind("a", lambda m: None)


def test_endpoint_send_enforces_src():
    _, tr = make()
    ep = tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    with pytest.raises(TransportError, match="cannot send as"):
        ep.send(Message("X", "someone-else", "b"))


def test_strict_wire_round_trips_payloads():
    k, tr = make(strict_wire=True)
    got = []
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: got.append(m))
    original = {"k": [1, 2, {"n": "s"}]}
    tr.send(Message("X", "a", "b", original))
    k.run()
    assert got[0].payload == original
    assert got[0].payload is not original  # copied through the codec


def test_strict_wire_rejects_unencodable_payload():
    _, tr = make(strict_wire=True)
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    with pytest.raises(Exception):
        tr.send(Message("X", "a", "b", {"bad": object()}))


def test_fault_policy_drop():
    k, tr = make()
    tr.fault_policy = lambda m: "drop"
    got = []
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: got.append(m))
    tr.send(Message("X", "a", "b"))
    k.run()
    assert got == [] and tr.stats.dropped == 1


def test_fault_policy_duplicate():
    k, tr = make()
    tr.fault_policy = lambda m: "duplicate"
    got = []
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: got.append(m.msg_id))
    tr.send(Message("X", "a", "b"))
    k.run()
    assert len(got) == 2 and got[0] == got[1]
    assert tr.stats.duplicated == 1


def test_fault_policy_bad_action_raises():
    _, tr = make()
    tr.fault_policy = lambda m: "explode"
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    with pytest.raises(TransportError):
        tr.send(Message("X", "a", "b"))


def test_stats_record_every_send():
    k, tr = make()
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    for _ in range(3):
        tr.send(Message("PING", "a", "b"))
    assert tr.stats.total == 3
    assert tr.stats.by_type["PING"] == 3


def test_schedule_and_cancel():
    k, tr = make()
    ran = []
    tr.schedule(1.0, lambda: ran.append("a"))
    h = tr.schedule(2.0, lambda: ran.append("b"))
    h.cancel()
    k.run()
    assert ran == ["a"]


def test_completion_resolves_through_then():
    k, tr = make()
    comp = tr.completion("c")
    seen = []
    comp.then(lambda c: seen.append((k.now, c.value)))
    k.call_in(3.0, lambda: comp.resolve("hi"))
    k.run()
    assert seen == [(3.0, "hi")]
    assert comp.done and comp.value == "hi"


def test_negative_default_latency_rejected():
    k = SimKernel()
    with pytest.raises(TransportError):
        SimTransport(k, default_latency=-1)
