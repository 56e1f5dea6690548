"""Unit + protocol tests for the reliable-delivery sublayer."""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.core  # noqa: F401 - registers the image type legacy frames carry
from repro.errors import TransportError
from repro.net import BinaryCodec, Message, ReliableTransport, SimTransport
from repro.net.aio_transport import AioTcpTransport
from repro.net import reliability
from repro.net.reliability import R_ACK, R_DATA
from repro.net.transport import TimerHandle, Transport
from repro.sim import SimKernel


@pytest.fixture()
def no_jitter(monkeypatch):
    """Retransmission delays exactly as the backoff computes them."""
    monkeypatch.setattr(reliability, "JITTER", 0.0)


def make(**kw):
    kernel = SimKernel()
    inner = SimTransport(kernel, default_latency=1.0, strict_wire=False)
    rel = ReliableTransport(inner, **kw)
    return kernel, inner, rel


def test_basic_delivery_and_split_accounting():
    kernel, inner, rel = make()
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.msg_type))
    rel.send(Message("HELLO", "a", "b"))
    kernel.run()
    assert got == ["HELLO"]
    # Logical stats: exactly what a raw transport would have recorded.
    assert rel.stats.total == 1 and rel.stats.by_type["HELLO"] == 1
    assert R_DATA not in rel.stats.by_type and R_ACK not in rel.stats.by_type
    # Wire stats: the envelope and its ACK.
    assert inner.stats.by_type[R_DATA] == 1
    assert inner.stats.by_type[R_ACK] == 1
    assert rel.stats.acks_sent == 1
    assert rel.in_flight_count() == 0


def test_drop_is_repaired_by_retransmission(no_jitter):
    kernel, inner, rel = make(ack_timeout=5.0)
    state = {"dropped": False}

    def lossy(msg):
        if msg.msg_type == R_DATA and not state["dropped"]:
            state["dropped"] = True
            return "drop"
        return "deliver"

    inner.fault_policy = lossy
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.msg_type))
    rel.send(Message("DATA", "a", "b", {"k": 1}))
    kernel.run()
    assert got == ["DATA"]
    assert rel.stats.retransmits == 1
    assert rel.in_flight_count() == 0


def test_injected_duplicate_suppressed_but_reacked():
    kernel, inner, rel = make()
    inner.fault_policy = lambda m: "duplicate" if m.msg_type == R_DATA else "deliver"
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    rel.send(Message("DATA", "a", "b", {"n": 7}))
    kernel.run()
    assert got == [7]  # delivered exactly once
    assert rel.stats.duplicates_suppressed == 1
    assert rel.stats.acks_sent == 2  # every copy is (re-)ACKed


def test_lost_ack_retransmission_deduplicated(no_jitter):
    kernel, inner, rel = make(ack_timeout=5.0)
    state = {"acks_dropped": 0}

    def drop_first_ack(msg):
        if msg.msg_type == R_ACK and state["acks_dropped"] == 0:
            state["acks_dropped"] += 1
            return "drop"
        return "deliver"

    inner.fault_policy = drop_first_ack
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    rel.send(Message("DATA", "a", "b", {"n": 1}))
    kernel.run()
    # The sender retransmitted (its ACK was lost); the receiver saw the
    # frame twice but handed it off once.
    assert got == [1]
    assert rel.stats.retransmits >= 1
    assert rel.stats.duplicates_suppressed >= 1
    assert rel.in_flight_count() == 0


def test_in_order_handoff_despite_reordering():
    kernel, inner, rel = make()
    state = {"first": True}

    def delay_first(msg):
        if msg.msg_type == R_DATA and state["first"]:
            state["first"] = False
            return ("delay", 10.0)  # frame 1 overtaken by frame 2
        return "deliver"

    inner.fault_policy = delay_first
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    rel.send(Message("DATA", "a", "b", {"n": 1}))
    rel.send(Message("DATA", "a", "b", {"n": 2}))
    kernel.run()
    assert got == [1, 2]  # send order, not arrival order


def test_give_up_after_max_attempts_behaves_like_loss(no_jitter, monkeypatch):
    monkeypatch.setattr(reliability, "MAX_ATTEMPTS", 3)
    kernel, inner, rel = make(ack_timeout=2.0)
    inner.fault_policy = lambda m: "drop" if m.msg_type == R_DATA else "deliver"
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: None)
    rel.send(Message("DATA", "a", "b"))
    kernel.run()
    assert rel.stats.retransmits == 2  # attempts 2 and 3
    assert rel.stats.dropped == 1     # the final give-up
    assert rel.in_flight_count() == 0


def test_strict_wire_inner_round_trips_envelopes():
    kernel = SimKernel()
    inner = SimTransport(kernel, default_latency=1.0, strict_wire=True)
    rel = ReliableTransport(inner)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m))
    rel.send(Message("DATA", "a", "b", {"n": [1, 2, 3]}))
    kernel.run()
    assert len(got) == 1
    assert got[0].msg_type == "DATA" and got[0].payload == {"n": [1, 2, 3]}


def test_send_after_close_raises():
    kernel, inner, rel = make()
    rel.bind("a", lambda m: None)
    rel.close()
    with pytest.raises(TransportError, match="closed"):
        rel.send(Message("DATA", "a", "b"))


def test_constructor_validation():
    kernel = SimKernel()
    inner = SimTransport(kernel)
    with pytest.raises(TransportError):
        ReliableTransport(inner, ack_timeout=0.0)


# ---------------------------------------------------------------------------
# ACK vectors, the one retransmit timer, the learned timeout
# ---------------------------------------------------------------------------

def _legacy_r_data():
    """An old-shape ``R_DATA``: one message spelled as t/p/i/r keys, no
    flight fields — decoded from the golden frame that pins it."""
    golden = json.loads(
        (Path(__file__).with_name("golden_binary_frames.json")).read_text())
    return BinaryCodec().decode(bytes.fromhex(golden["legacy.r_data"]))


@pytest.mark.parametrize("shape", [
    "old r_data", "r_data without m", "r_ack without acks",
    "r_ack entry too short", "r_ack not a list",
])
def test_a_malformed_envelope_is_dropped_and_counted(shape):
    kernel, inner, rel = make()
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.msg_type))
    payload = {
        "old r_data": _legacy_r_data().payload,
        "r_data without m": {"seq": 1, "ctl": "rel-ctl", "f": 1},
        "r_ack without acks": {"ack": []},
        "r_ack entry too short": {"acks": [["rel-ctl", "rel-ctl"]]},
        "r_ack not a list": {"acks": 7},
    }[shape]
    msg_type = R_ACK if shape.startswith("r_ack") else R_DATA
    rel.send(Message("HELLO", "a", "b"))  # binds the control endpoint
    kernel.run()
    inner.send(Message(msg_type, "x", "rel-ctl", payload))
    kernel.run()  # raised out of the kernel before envelopes were checked
    assert inner.stats.dropped == 1
    # The sublayer still works: nothing from the bad envelope was taken.
    rel.send(Message("HELLO", "a", "b"))
    kernel.run()
    assert got == ["HELLO", "HELLO"] and rel.in_flight_count() == 0


def _spy(inner, verdict=lambda m: "deliver"):
    """Record every R_ACK payload crossing ``inner``; ``verdict``
    decides each frame's fate."""
    vectors = []

    def policy(msg):
        if msg.msg_type == R_ACK:
            vectors.append(msg.payload["acks"])
        return verdict(msg)

    inner.fault_policy = policy
    return vectors


def test_envelope_is_flat_and_keeps_the_logical_id():
    """A sim flight is one message: it leaves from that message's source
    for the receiving control endpoint, and the message rides inside as
    itself, id and reply_to included."""
    kernel, inner, rel = make()
    frames, got = [], []
    inner.fault_policy = lambda m: frames.append(m) or "deliver"
    rel.bind("a", lambda m: None)
    rel.bind("b", got.append)
    sent = Message("DATA", "a", "b", {"k": 1}, reply_to=41)
    rel.send(sent)
    kernel.run()
    data, ack = frames
    assert data.msg_type == R_DATA and (data.src, data.dst) == ("a", "rel-ctl")
    assert data.payload == {"seq": 1, "ctl": "rel-ctl", "f": 1, "m": [sent]}
    assert got == [sent] and got[0].msg_id == sent.msg_id
    assert got[0].reply_to == 41
    assert ack.msg_type == R_ACK and ack.dst == "rel-ctl"
    assert inner.is_bound("rel-ctl")  # the ACK really travels


def test_one_vector_acknowledges_a_whole_flight_across_links():
    kernel, inner, rel = make()
    vectors = _spy(inner)
    for addr in ("a", "b", "c"):
        rel.bind(addr, lambda m: None)
    for n in range(3):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    rel.send(Message("DATA", "c", "b"))
    kernel.run()
    # Four one-message sim flights on the one connection, one vector.
    assert vectors == [[["rel-ctl", "rel-ctl", [1, 2, 3, 4]]]]
    assert rel.stats.acks_sent == 4 and rel.stats.ack_frames_sent == 1
    assert inner.stats.by_type[R_ACK] == 1
    assert rel.in_flight_count() == 0


def test_dropped_vector_every_seq_retransmitted_suppressed_and_reacked(no_jitter):
    kernel, inner, rel = make(ack_timeout=5.0)
    state = {"dropped": 0}

    def drop_first_vector(msg):
        if msg.msg_type == R_ACK and not state["dropped"]:
            state["dropped"] += 1
            return "drop"
        return "deliver"

    vectors = _spy(inner, drop_first_vector)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    for n in (1, 2, 3):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    kernel.run()
    assert got == [1, 2, 3]  # nothing handed off twice
    assert rel.stats.retransmits == 3
    assert rel.stats.duplicates_suppressed == 3
    assert rel.stats.acks_sent == 6 and rel.stats.ack_frames_sent == 2
    # The re-ACK echoes the attempt it answers.
    assert vectors == [[["rel-ctl", "rel-ctl", [1, 2, 3]]],
                       [["rel-ctl", "rel-ctl", [[1, 2], [2, 2], [3, 2]]]]]
    assert rel.in_flight_count() == 0


def test_out_of_order_arrival_across_vectors():
    kernel, inner, rel = make(ack_timeout=50.0)
    state = {"first": True}

    def delay_first(msg):
        if msg.msg_type == R_DATA and state["first"]:
            state["first"] = False
            return ("delay", 10.0)
        return "deliver"

    vectors = _spy(inner, delay_first)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    for n in (1, 2, 3):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    kernel.run()
    # 2 and 3 are acknowledged while they wait for 1; hand-off is in order.
    assert vectors == [[["rel-ctl", "rel-ctl", [2, 3]]],
                       [["rel-ctl", "rel-ctl", [1]]]]
    assert got == [1, 2, 3]
    assert rel.stats.retransmits == 0 and rel.in_flight_count() == 0


def test_vectors_under_a_topology_see_the_latency_of_their_links(no_jitter):
    from repro.net.topology import Topology

    topo = Topology()
    topo.add_link("hub", "near", latency=1.0)
    topo.add_link("hub", "far", latency=30.0)
    kernel = SimKernel()
    inner = SimTransport(kernel, topology=topo, strict_wire=False)
    rel = ReliableTransport(inner, ack_timeout=10.0)
    acked_at = {}

    def note_vector_arrival(msg):
        if msg.msg_type == R_ACK:
            acked_at.setdefault(  # the first vector to each; re-ACKs follow
                msg.dst, kernel.now + inner.latency_between(msg.src, msg.dst))
        return "deliver"

    inner.fault_policy = note_vector_arrival
    for addr, node in (("dm", "hub"), ("n", "near"), ("f", "far")):
        rel.bind(addr, lambda m: None)
        rel.place(addr, node)
    rel.send(Message("DATA", "n", "dm"))
    rel.send(Message("DATA", "f", "dm"))
    kernel.run()
    # One control endpoint per node; each vector took its own link back.
    assert acked_at == {"rel-ctl@near": 2.0, "rel-ctl@far": 60.0}
    assert rel.in_flight_count() == 0
    # The far link learned its round trip instead of retransmitting forever.
    assert rel.rto("f", "dm") > 60.0 and rel.rto("n", "dm") == 10.0


class ManualTransport(Transport):
    """Hand-cranked inner transport: sent frames go on ``wire`` at once
    and queue there until ``deliver``, timers fire when ``fire`` moves
    the clock past them.  ``log`` keeps every frame ever sent."""

    def __init__(self):
        super().__init__()
        self.t = 0.0
        self.timers = []
        self.wire = []
        self.log = []

    def send(self, msg):
        self.stats.record(msg)
        self.wire.append(msg)
        self.log.append(msg)

    def now(self):
        return self.t

    def schedule(self, delay, fn):
        entry = [self.t + delay, fn, False]
        self.timers.append(entry)
        return TimerHandle(lambda: entry.__setitem__(2, True))

    def completion(self, name=""):
        raise NotImplementedError

    def deliver(self):
        while self.wire:
            frames, self.wire = self.wire, []
            for msg in frames:
                self._endpoints[msg.dst].handler(msg)
            self.fire(self.t)  # the receiver's end-of-turn ACK flush

    def vectors(self):
        return [m.payload["acks"] for m in self.log if m.msg_type == R_ACK]

    def fire(self, at):
        self.t = at
        due = [e for e in self.timers if e[0] <= at]
        self.timers = [e for e in self.timers if e[0] > at]
        for _, fn, cancelled in due:
            if not cancelled:
                fn()

    def live_timers(self):
        return [e[0] for e in self.timers if not e[2]]


def _manual(**kw):
    inner = ManualTransport()
    rel = ReliableTransport(inner, **kw)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    return inner, rel, got


def test_one_timer_serves_every_envelope_and_rests_once_all_are_acked(no_jitter):
    inner, rel, got = _manual(ack_timeout=10.0)
    assert inner.live_timers() == []
    for n in range(5):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    assert len(inner.wire) == 5 and rel.in_flight_count() == 5  # one each
    inner.t = 1.0
    rel.send(Message("DATA", "a", "b", {"n": 5}))
    assert inner.live_timers() == [10.0]  # six flights, one timer
    inner.deliver()
    assert got == list(range(6)) and rel.in_flight_count() == 0
    inner.fire(10.0)
    assert inner.live_timers() == []  # nothing unacked: no re-arm
    assert rel.stats.retransmits == 0 and inner.wire == []
    # The next flight wakes it again.
    inner.t = 50.0
    rel.send(Message("DATA", "a", "b", {"n": 6}))
    assert inner.live_timers() == [60.0]


def test_sim_run_terminates_soon_after_the_last_ack():
    kernel, inner, rel = make(ack_timeout=10.0)
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: None)
    for _ in range(20):
        rel.send(Message("DATA", "a", "b"))
    assert kernel.run() <= 11.0  # one resting fire of the timer, no more


def test_on_time_fire_retransmits_at_once(no_jitter):
    inner, rel, _ = _manual(ack_timeout=10.0)
    rel.send(Message("DATA", "a", "b", {"n": 0}))
    inner.wire.clear()  # the frame is lost
    inner.fire(10.0)
    assert rel.stats.retransmits == 1
    assert [m.payload.get("n") for m in inner.wire] == [2]


# ---------------------------------------------------------------------------
# Duplicates, reordering and unbinding, frame by frame
# ---------------------------------------------------------------------------

def test_a_duplicated_flight_is_suppressed_and_reacked():
    inner, rel, got = _manual()
    for n in range(2):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    inner.wire.append(inner.wire[0])  # a duplicate below the sublayer
    inner.deliver()
    assert got == [0, 1]
    assert rel.stats.duplicates_suppressed == 1
    assert inner.vectors() == [[["rel-ctl", "rel-ctl", [1, 2, 1]]]]
    assert rel.in_flight_count() == 0


def test_reordered_flights_are_handed_off_in_send_order():
    inner, rel, got = _manual()
    for n in range(4):
        rel.send(Message("DATA", "a", "b", {"n": n}))
    assert [f.payload["seq"] for f in inner.wire] == [1, 2, 3, 4]
    inner.wire.reverse()
    inner.deliver()
    assert got == [0, 1, 2, 3]
    assert inner.vectors() == [[["rel-ctl", "rel-ctl", [4, 3, 2, 1]]]]
    assert rel.in_flight_count() == 0


def test_unbinding_an_address_mid_flight_takes_its_messages_out(no_jitter):
    """Closing ``a`` abandons its flights whole; ``c``'s flight between
    them is retransmitted, carrying a floor past the abandoned one."""
    inner, rel, got = _manual(ack_timeout=10.0)
    a = rel._endpoints["a"]
    rel.bind("c", lambda m: None)
    rel.send(Message("DATA", "a", "b", {"n": 0}))
    rel.send(Message("DATA", "c", "b", {"n": 1}))
    rel.send(Message("DATA", "a", "b", {"n": 2}))
    sent = list(inner.wire)
    inner.wire.clear()  # all three are lost
    a.close()
    assert rel.in_flight_count() == 1
    inner.fire(10.0)
    (again,) = inner.wire
    assert again.src == "c" and again.msg_id == sent[1].msg_id
    assert (again.payload["seq"], again.payload["f"], again.payload["n"]) == (2, 2, 2)
    inner.deliver()
    assert got == [1] and rel.in_flight_count() == 0
    assert rel.stats.dropped == 0


def test_an_abandoned_flight_does_not_strand_the_connection(no_jitter):
    """A flight emptied by an unbind is never sent again; the next
    flight's floor tells the receiver to stop waiting for it."""
    inner, rel, got = _manual(ack_timeout=10.0)
    a = rel._endpoints["a"]
    rel.bind("c", lambda m: None)
    rel.send(Message("DATA", "a", "b", {"n": 0}))
    inner.wire.clear()  # flight 1 is lost ...
    a.close()           # ... and abandoned
    assert rel.in_flight_count() == 0
    rel.send(Message("DATA", "c", "b", {"n": 1}))
    assert inner.wire[0].payload["seq"] == 2 and inner.wire[0].payload["f"] == 2
    inner.deliver()
    assert got == [1]
    inner.fire(100.0)
    assert rel.stats.retransmits == 0 and rel.stats.dropped == 0


def test_late_but_delivered_original_raises_the_timeout(no_jitter):
    """Round trip 12 against ack_timeout 5: the first message is
    retransmitted spuriously, but the original's ACK (echoing attempt
    1) is a valid 12-unit sample, so the next message is left alone."""
    kernel = SimKernel()
    inner = SimTransport(kernel, default_latency=6.0, strict_wire=False)
    rel = ReliableTransport(inner, ack_timeout=5.0)
    got = []
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: got.append(m.payload["n"]))
    rel.send(Message("DATA", "a", "b", {"n": 1}))
    kernel.run()
    assert rel.stats.retransmits == 1 and rel.stats.duplicates_suppressed == 1
    assert rel.rto("a", "b") > 12.0
    rel.send(Message("DATA", "a", "b", {"n": 2}))
    kernel.run()
    assert got == [1, 2]
    assert rel.stats.retransmits == 1  # no second spurious retransmission


def test_lost_frames_retransmission_does_not_poison_the_estimate(no_jitter):
    """Round trip 2; one frame is lost and repaired 5 units later.  Its
    ACK echoes attempt 2, so the sample is 2, not 7."""
    kernel, inner, rel = make(ack_timeout=5.0)
    state = {"sent": 0}

    def drop_fourth(msg):
        if msg.msg_type == R_DATA:
            state["sent"] += 1
            if state["sent"] == 4:
                return "drop"
        return "deliver"

    inner.fault_policy = drop_fourth
    rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: None)
    for _ in range(4):
        rel.send(Message("DATA", "a", "b"))
        kernel.run()
    assert rel.stats.retransmits == 1 and rel.in_flight_count() == 0
    assert rel._senders[("rel-ctl", "rel-ctl")].srtt == pytest.approx(2.0)
    assert rel.rto("a", "b") < 6.0  # a 7-unit sample would make it > 20


def test_unbinding_an_address_abandons_its_retransmissions(no_jitter):
    kernel, inner, rel = make(ack_timeout=5.0)
    inner.fault_policy = lambda m: "drop" if m.msg_type == R_DATA else "deliver"
    a = rel.bind("a", lambda m: None)
    rel.bind("b", lambda m: None)
    rel.bind("c", lambda m: None)
    rel.send(Message("DATA", "a", "b"))
    rel.send(Message("DATA", "c", "b"))
    assert rel.in_flight_count() == 2
    a.close()
    assert rel.in_flight_count() == 1
    kernel.run(until=13.0)
    assert rel.stats.retransmits == 2  # both of them c's: at 5.0 and 12.5
    assert rel.stats.dropped == 0      # abandoning is not giving up


def test_send_from_two_threads_over_sockets():
    """Two threads x 2000 sends while the loop thread runs the ACK and
    timer paths over the same state: every message is handed off
    exactly once, in per-link order, and nothing stays in flight."""
    n = 2000
    tr = AioTcpTransport(max_queue=3 * n)
    rel = ReliableTransport(tr, ack_timeout=50.0)
    got = {"t0": [], "t1": []}
    done = threading.Event()

    def sink(msg):
        got[msg.src].append(msg.payload["i"])
        if sum(map(len, got.values())) == 2 * n:
            done.set()

    def sender(src):
        for i in range(n):
            rel.send(Message("SEQ", src, "sink", {"i": i}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rel.bind("sink", sink)
        for src in got:
            rel.bind(src, lambda m: None)
        threads = [threading.Thread(target=sender, args=(src,)) for src in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
        assert done.wait(30.0)
        assert got == {"t0": list(range(n)), "t1": list(range(n))}
        deadline = time.monotonic() + 10.0
        while rel.in_flight_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert rel.in_flight_count() == 0
        assert tr.handler_errors == []
        assert rel.stats.total == 2 * n
    finally:
        sys.setswitchinterval(interval)
        rel.close()


# ---------------------------------------------------------------------------
# Protocol-level behaviour over the sublayer
# ---------------------------------------------------------------------------

def _protocol_run(transport, store, n_agents=2, n_ops=3):
    """Strong-mode counter workload (the abl6 shape) on ``transport``."""
    from repro.core.cache_manager import CacheManager
    from repro.core.directory import DirectoryManager
    from repro.core.system import run_all_scripts
    from repro.testing import (
        Agent,
        extract_from_object,
        extract_from_view,
        merge_into_object,
        merge_into_view,
        props_for,
    )

    directory = DirectoryManager(
        transport=transport, address="dir", component=store,
        extract_from_object=extract_from_object,
        merge_into_object=merge_into_object,
    )
    cms = []
    for i in range(n_agents):
        agent = Agent()
        cm = CacheManager(
            transport=transport, directory_address="dir",
            view_id=f"v{i}", view=agent, properties=props_for(["a"]),
            extract_from_view=extract_from_view,
            merge_into_view=merge_into_view, mode="strong",
            request_timeout=300.0, max_retries=5,
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
    return directory


def test_no_fault_runs_are_message_for_message_identical():
    """With no faults, the logical message profile over the sublayer is
    exactly the raw transport's — the ACK overhead lives on the wire
    stats only, so the paper's Fig 4 metric is unchanged."""
    from repro.testing import Store

    kernel = SimKernel()
    raw = SimTransport(kernel, default_latency=1.0, strict_wire=False)
    store_raw = Store({"a": 0})
    _protocol_run(raw, store_raw)

    kernel2 = SimKernel()
    inner = SimTransport(kernel2, default_latency=1.0, strict_wire=False)
    rel = ReliableTransport(inner)
    store_rel = Store({"a": 0})
    _protocol_run(rel, store_rel)

    assert store_raw.cells == store_rel.cells
    assert dict(rel.stats.by_type) == dict(raw.stats.by_type)
    assert rel.stats.total == raw.stats.total
    assert rel.stats.retransmits == 0 and rel.stats.duplicates_suppressed == 0
    # The overhead exists, but only below the sublayer: every data frame
    # is owed one acknowledgement, and vectors carry several per frame.
    assert rel.stats.acks_sent == inner.stats.by_type[R_DATA] == raw.stats.total
    assert 0 < inner.stats.by_type[R_ACK] <= rel.stats.acks_sent
    assert inner.stats.by_type[R_ACK] == rel.stats.ack_frames_sent


def test_duplicate_wire_frames_idempotent_across_protocol():
    """Every wire frame duplicated: REGISTER, PUSH, PULL_REQ, acquire
    rounds and their replies all arrive twice at the sublayer, yet the
    protocol sees each exactly once and the counter stays exact."""
    from repro.testing import Store

    kernel = SimKernel()
    inner = SimTransport(kernel, default_latency=1.0, strict_wire=False)
    inner.fault_policy = lambda m: "duplicate" if m.msg_type == R_DATA else "deliver"
    rel = ReliableTransport(inner)
    store = Store({"a": 0})
    directory = _protocol_run(rel, store, n_agents=2, n_ops=3)
    assert store.cells["a"] == 6
    assert rel.stats.duplicates_suppressed > 0
    directory.check_invariants()
