"""The TCP wire contract, driven through ``resolve_transport("tcp")``
(real sockets on localhost), plus ``ThreadCompletion``.

Event-loop specifics — multiplexing, coalescing, backpressure — live in
``test_aio_transport.py``."""

import sys
import threading
import time

import pytest

from repro.errors import TransportError
from repro.net import Message, ThreadCompletion, resolve_transport


@pytest.fixture()
def transport():
    tr = resolve_transport("tcp")
    yield tr
    tr.close()


def test_send_and_receive_over_sockets(transport):
    got = []
    done = threading.Event()

    def handler(m):
        got.append(m)
        done.set()

    transport.bind("a", lambda m: None)
    transport.bind("b", handler)
    transport.send(Message("HELLO", "a", "b", {"x": 1}))
    assert done.wait(5.0)
    assert got[0].msg_type == "HELLO" and got[0].payload == {"x": 1}


def test_request_reply_roundtrip(transport):
    done = threading.Event()
    answers = []

    def server(m):
        if m.msg_type == "ASK":
            server_ep.send(m.reply("ANSWER", {"n": m.payload["n"] * 2}))

    def client(m):
        answers.append(m)
        done.set()

    server_ep = transport.bind("server", server)
    transport.bind("client", client)
    transport.send(Message("ASK", "client", "server", {"n": 21}))
    assert done.wait(5.0)
    assert answers[0].msg_type == "ANSWER" and answers[0].payload == {"n": 42}
    assert answers[0].reply_to is not None


def test_many_messages_arrive_in_order(transport):
    got = []
    done = threading.Event()

    def handler(m):
        got.append(m.payload["i"])
        if len(got) == 50:
            done.set()

    transport.bind("a", lambda m: None)
    transport.bind("b", handler)
    for i in range(50):
        transport.send(Message("SEQ", "a", "b", {"i": i}))
    assert done.wait(5.0)
    assert got == list(range(50))


def test_frame_length_immune_to_racing_codec_state(transport):
    """Regression: the length prefix must be measured from the actual
    frame bytes, never from shared codec state — framing that consulted
    a codec attribute another encode can overwrite would corrupt the
    stream for every later frame on the connection.  Simulate such a
    stale attribute and check framing stays intact."""
    got = []
    done = threading.Event()
    transport.bind("a", lambda m: None)

    def handler(m):
        got.append(m.payload["i"])
        if len(got) == 20:
            done.set()

    transport.bind("b", handler)
    real_encode = transport.codec.encode

    def racing_encode(msg):
        raw = real_encode(msg)
        # A stale size attribute left by a concurrent encode; framing
        # must not consult it.
        transport.codec.last_encoded_size = 7
        return raw

    transport.codec.encode = racing_encode
    for i in range(20):
        transport.send(Message("SEQ", "a", "b", {"i": i, "pad": "x" * i}))
    assert done.wait(5.0)
    assert got == list(range(20))


def test_send_to_unbound_address_is_counted_as_drop(transport):
    transport.bind("a", lambda m: None)
    transport.send(Message("X", "a", "nowhere"))
    assert transport.stats.dropped == 1


def test_stats_count_bytes(transport):
    delivered = threading.Event()
    transport.bind("a", lambda m: None)
    transport.bind("b", lambda m: delivered.set())
    transport.send(Message("X", "a", "b", {"data": "y" * 100}))
    assert delivered.wait(5.0)  # bytes are counted when the writer flushes
    assert transport.stats.bytes_sent > 100


def test_now_advances_with_wall_clock(transport):
    t1 = transport.now()
    time.sleep(0.02)
    t2 = transport.now()
    # default scale: 1000 units/second => ~20 units after 20 ms
    assert t2 - t1 >= 10


def test_schedule_runs_and_cancel_works(transport):
    ran = []
    ev = threading.Event()
    transport.schedule(10.0, lambda: (ran.append("a"), ev.set()))
    h = transport.schedule(10.0, lambda: ran.append("b"))
    h.cancel()
    assert ev.wait(5.0)
    time.sleep(0.05)
    assert ran == ["a"]


def test_thread_completion_wait_and_value():
    c = ThreadCompletion("t")
    threading.Timer(0.01, lambda: c.resolve(99)).start()
    assert c.wait(5.0) == 99
    assert c.done


def test_thread_completion_timeout():
    c = ThreadCompletion("t")
    with pytest.raises(TransportError, match="timed out"):
        c.wait(0.01)


def test_thread_completion_failure_propagates():
    c = ThreadCompletion("t")
    c.fail(ValueError("nope"))
    with pytest.raises(ValueError, match="nope"):
        c.wait(1.0)


def test_thread_completion_double_resolve_rejected():
    c = ThreadCompletion()
    c.resolve(1)
    with pytest.raises(TransportError):
        c.resolve(2)


def test_thread_completion_then_callback_runs():
    c = ThreadCompletion()
    seen = []
    c.then(lambda comp: seen.append(comp.value))
    c.resolve("v")
    assert seen == ["v"]
    # late registration fires immediately
    c.then(lambda comp: seen.append("late"))
    assert seen == ["v", "late"]


def test_thread_completion_event_is_built_only_for_an_early_waiter():
    c = ThreadCompletion()
    order = []
    c.then(lambda comp: order.append("first"))
    c.then(lambda comp: order.append("second"))
    c.resolve(1)
    assert order == ["first", "second"]
    assert c.wait(1.0) == 1 and c._ev is None   # already done: no Event
    with pytest.raises(TransportError):
        c.fail(ValueError("late"))              # double completion, either verb


@pytest.mark.parametrize("waiter_first", [True, False])
def test_thread_completion_two_threads(waiter_first):
    """2 000 hand-offs between a resolving and a waiting thread, the
    waiter arriving before / after ``resolve``: every wait returns its
    round's value and no wake-up is lost."""
    rounds = 2000
    comps = [ThreadCompletion(f"r{i}") for i in range(rounds)]
    got, errors = [], []

    def waiter():
        try:
            for c in comps:
                got.append(c.wait(5.0))
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    t = threading.Thread(target=waiter)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # force switches inside the hand-off
    try:
        if waiter_first:
            t.start()
            for i, c in enumerate(comps):
                while c._ev is None and t.is_alive():
                    time.sleep(0)       # until the waiter has parked on c
                c.resolve(i)
        else:
            for i, c in enumerate(comps):
                c.resolve(i)
            t.start()
        t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive() and not errors
    assert got == list(range(rounds))
    assert all((c._ev is not None) == waiter_first for c in comps)


def test_reconnect_after_endpoint_rebound(transport):
    """An address closed and re-bound receives later sends on its new
    handler: nothing cached for the old endpoint outlives it."""
    got = []
    ev = threading.Event()
    transport.bind("a", lambda m: None)
    ep = transport.bind("b", lambda m: None)
    transport.send(Message("ONE", "a", "b"))
    time.sleep(0.05)
    ep.close()
    transport.bind("b", lambda m: (got.append(m.msg_type), ev.set()))
    transport.send(Message("TWO", "a", "b"))
    assert ev.wait(5.0)
    assert got == ["TWO"]


def test_send_after_close_rejected():
    tr = resolve_transport("tcp")
    tr.bind("a", lambda m: None)
    tr.close()
    with pytest.raises(TransportError, match="closed"):
        tr.send(Message("X", "a", "a"))


# ---------------------------------------------------------------------------
# Shutdown hygiene: close() must actually reclaim the loop thread
# ---------------------------------------------------------------------------


def test_close_joins_loop_thread_within_timeout():
    before = set(threading.enumerate())
    tr = resolve_transport("tcp")
    done = threading.Event()
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: done.set())
    tr.send(Message("PING", "a", "b"))
    assert done.wait(5.0)
    [loop_thread] = set(threading.enumerate()) - before
    t0 = time.monotonic()
    tr.close(join_timeout=2.0)
    assert time.monotonic() - t0 < 2.5  # bounded even with a live link
    assert not loop_thread.is_alive()  # no leaked daemon loop


def test_close_is_idempotent_and_swallows_timer_races():
    tr = resolve_transport("tcp")
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    # A timer that fires into the closing transport must not raise:
    # schedule() fences the callback once closed.
    tr.schedule(30.0, lambda: tr.send(Message("LATE", "a", "b")))
    tr.close()
    tr.close()  # second close is a no-op, not an error


def test_scheduled_send_racing_close_is_silent():
    tr = resolve_transport("tcp")
    tr.bind("a", lambda m: None)
    tr.bind("b", lambda m: None)
    failures = []
    hook_prev = threading.excepthook
    threading.excepthook = lambda args: failures.append(args)
    try:
        # Fire "immediately": the timer may run before, during, or
        # after close() — all three must be silent.
        for _ in range(5):
            tr.schedule(0.1, lambda: tr.send(Message("RACE", "a", "b")))
        tr.close()
        time.sleep(0.15)
    finally:
        threading.excepthook = hook_prev
    assert failures == []
