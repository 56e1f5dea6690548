"""Tests for the read/write-semantics extension (paper §6, direction 1)."""

import pytest

from repro.core import Mode
from repro.core import messages as M
from repro.core.rw_semantics import Access, RWCacheManager, RWDirectoryManager
from repro.core.system import run_all_scripts
from repro.errors import ProtocolError
from repro.net import Message, SimTransport
from repro.sim import SimKernel

from tests.core.harness import (
    Agent,
    Store,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)


class RWFixture:
    def __init__(self, cells=None):
        self.kernel = SimKernel()
        self.transport = SimTransport(self.kernel, default_latency=1.0)
        self.store = Store(cells or {"a": 10})
        self.directory = RWDirectoryManager(
            transport=self.transport,
            address="dir",
            component=self.store,
            extract_from_object=extract_from_object,
            merge_into_object=merge_into_object,
        )
        self.agents = {}

    def add(self, view_id, cells=("a",), mode=Mode.STRONG, **view_options):
        agent = Agent()
        cm = RWCacheManager(
            transport=self.transport,
            directory_address="dir",
            view_id=view_id,
            view=agent,
            properties=props_for(cells),
            extract_from_view=extract_from_view,
            merge_into_view=merge_into_view,
            mode=mode,
            **view_options,
        )
        self.agents[view_id] = agent
        return cm, agent

    def run_scripts(self, *scripts):
        return run_all_scripts(self.transport, list(scripts))


def test_access_parse():
    assert Access.parse("read") is Access.READ
    assert Access.parse(Access.WRITE) is Access.WRITE
    with pytest.raises(ValueError):
        Access.parse("execute")


def test_concurrent_readers_coexist_without_invalidations():
    fx = RWFixture()
    cms = [fx.add(f"r{i}")[0] for i in range(4)]

    def reader(cm):
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.READ)
        yield ("sleep", 20.0)  # all four hold read access simultaneously
        got = fx.agents[cm.view_id].local["a"]
        cm.end_use_image()
        return got

    results = fx.run_scripts(*(reader(cm) for cm in cms))
    assert results == [10, 10, 10, 10]
    assert M.INVALIDATE not in fx.transport.stats.by_type
    fx.directory.check_invariants()
    assert len(fx.directory.read_sharers) == 4


def test_repeated_reads_by_sharer_are_free():
    fx = RWFixture()
    cm, _ = fx.add("r0")

    def reader():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.READ)
        cm.end_use_image()
        before = fx.transport.stats.total
        for _ in range(5):
            yield cm.start_use_image(access=Access.READ)
            cm.end_use_image()
        return fx.transport.stats.total - before

    [delta] = fx.run_scripts(reader())
    assert delta == 0


def test_writer_revokes_all_readers():
    fx = RWFixture()
    r1, _ = fx.add("r1")
    r2, _ = fx.add("r2")
    w, wagent = fx.add("w")

    def reader(cm):
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.READ)
        cm.end_use_image()
        yield ("sleep", 50.0)
        return cm.read_shared

    def writer():
        yield w.start()
        yield w.init_image()
        yield ("sleep", 15.0)
        yield w.start_use_image(access=Access.WRITE)
        wagent.local["a"] = 42
        w.end_use_image()
        return w.owner

    r1_shared, r2_shared, w_owner = fx.run_scripts(reader(r1), reader(r2), writer())
    assert w_owner
    assert not r1_shared and not r2_shared  # both revoked
    assert fx.directory.read_sharers == set()
    assert fx.transport.stats.by_type[M.INVALIDATE] == 2
    fx.directory.check_invariants()


def test_reader_revokes_conflicting_writer():
    fx = RWFixture()
    w, wagent = fx.add("w")
    r, ragent = fx.add("r")

    def writer():
        yield w.start()
        yield w.init_image()
        yield w.start_use_image(access=Access.WRITE)
        wagent.local["a"] = 99
        w.end_use_image()
        yield ("sleep", 40.0)
        return w.owner

    def reader():
        yield r.start()
        yield r.init_image()
        yield ("sleep", 15.0)
        yield r.start_use_image(access=Access.READ)
        got = ragent.local["a"]
        r.end_use_image()
        return got

    w_owner_after, r_saw = fx.run_scripts(writer(), reader())
    assert r_saw == 99      # reader got the writer's committed value
    assert not w_owner_after
    fx.directory.check_invariants()


def test_read_sharing_saves_messages_vs_write_acquires():
    """The §6 claim: read/write semantics reduce control messages."""

    def run(access):
        fx = RWFixture()
        cms = [fx.add(f"v{i}")[0] for i in range(4)]

        def script(cm):
            yield cm.start()
            yield cm.init_image()
            for _ in range(4):
                yield cm.start_use_image(access=access)
                yield ("sleep", 2.0)
                cm.end_use_image()
                yield ("sleep", 3.0)

        fx.run_scripts(*(script(cm) for cm in cms))
        fx.directory.check_invariants()
        return fx.transport.stats.total

    read_msgs = run(Access.READ)
    write_msgs = run(Access.WRITE)
    assert read_msgs < write_msgs


def test_write_owner_reading_keeps_its_dirty_data():
    """Regression (found by the RW stateful machine): a write owner
    issuing a read acquire must NOT pull the stale primary copy over
    its own uncommitted write — ownership subsumes read access."""
    fx = RWFixture()
    cm, agent = fx.add("w")

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.WRITE)
        agent.local["a"] = 999  # uncommitted write
        cm.end_use_image()
        before = fx.transport.stats.total
        yield cm.start_use_image(access=Access.READ)
        seen = agent.local["a"]
        cm.end_use_image()
        return seen, fx.transport.stats.total - before

    [(seen, delta)] = fx.run_scripts(script())
    assert seen == 999   # the write survived the read
    assert delta == 0    # and the read was free (no ACQUIRE round)
    fx.directory.check_invariants()


def test_weak_mode_ignores_access_annotation():
    fx = RWFixture()
    cm, agent = fx.add("v", mode=Mode.WEAK)

    def script():
        yield cm.start()
        yield cm.init_image()
        before = fx.transport.stats.total
        yield cm.start_use_image(access=Access.READ)
        cm.end_use_image()
        return fx.transport.stats.total - before

    [delta] = fx.run_scripts(script())
    assert delta == 0  # weak-mode use stays local regardless of intent


def test_read_round_on_a_silent_writer_times_out():
    """A READ round runs through the base launcher: a writer that never
    answers its INVALIDATE is dropped by the round watchdog, and the
    round is counted like any other."""
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    directory = RWDirectoryManager(
        transport=transport, address="dir", component=Store({"a": 10}),
        extract_from_object=extract_from_object,
        merge_into_object=merge_into_object, round_timeout=10.0,
    )
    replies = []
    ep = transport.bind("cm", replies.append)  # answers no INVALIDATE
    for vid in ("w", "r"):
        ep.send(Message(M.REGISTER, "cm", "dir", {
            "view_id": vid, "properties": props_for(["a"]), "mode": "strong",
        }))
    ep.send(Message(M.ACQUIRE, "cm", "dir", {"view_id": "w", "access": "write"}))
    kernel.run()
    read = Message(M.ACQUIRE, "cm", "dir", {"view_id": "r", "access": "read"})
    ep.send(read)
    kernel.run(until=kernel.now + 100.0)
    assert [m.msg_type for m in replies if m.reply_to == read.msg_id] == [
        M.PULL_DATA
    ]
    assert directory.quarantined["w"].reason == "round-timeout"
    c = directory.counters
    assert (c["rounds"], c["invalidates_sent"], c["round_timeouts"]) == (1, 1, 1)
    assert directory.read_sharers == {"r"}
    directory.check_invariants()


def test_unregister_clears_read_sharer():
    fx = RWFixture()
    cm, _ = fx.add("r")

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image(access=Access.READ)
        cm.end_use_image()
        yield cm.kill_image()

    fx.run_scripts(script())
    assert fx.directory.read_sharers == set()
    assert fx.directory.registered_views() == []


def test_degraded_strong_read_is_refused_locally():
    """A READ is strong-mode use: once the directory has gone silent
    and the CM has degraded, it is refused at once, like any strong use,
    instead of sending an ACQUIRE nobody will answer."""
    fx = RWFixture()
    cm, _ = fx.add("r", request_timeout=20, max_retries=1)

    def script():
        yield cm.start()
        yield cm.init_image()
        fx.transport.fault_policy = (
            lambda m: "drop" if m.dst == "dir" else "deliver"
        )
        try:
            yield cm.pull_image()
        except ProtocolError:
            pass
        assert cm.degraded
        before = (fx.transport.stats.total, cm.counters["acquires"], fx.kernel.now)
        try:
            yield cm.start_use_image(access=Access.READ)
        except ProtocolError as exc:
            after = (fx.transport.stats.total, cm.counters["acquires"], fx.kernel.now)
            return str(exc), before, after

    [(error, before, after)] = fx.run_scripts(script())
    assert "strong-mode use refused" in error
    assert after == before  # no message, no acquire, no wait
    assert not cm.read_shared
