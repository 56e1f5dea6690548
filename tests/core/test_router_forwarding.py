"""The router's one-shard rule and the transitions out of it.

A view whose route holds one shard is *forwarded*: its own messages
are retargeted, nothing is copied or merged, and what it exchanges is
the unsharded message sequence.  A view that outgrows its shard — a
PUSH carrying another shard's key, a PROP_UPDATE onto a second shard —
leaves that rule, and the first serve afterwards must be complete.
"""

import re

import pytest

from repro.core import messages as M
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem, run_all_scripts
from repro.net.message import reset_message_ids
from repro.net.sim_transport import SimTransport
from repro.sim.kernel import SimKernel
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
    props_for,
)

# 8 cells over 4 shards: {k00,k01} {k02,k03} {k04,k05} {k06,k07}.
CELLS = [f"k{i:02d}" for i in range(8)]


class _Run:
    """One system (sharded at N=4, or the unsharded reference) with
    every message the transport carried on record."""

    def __init__(self, n_shards):
        reset_message_ids()
        self.transport = SimTransport(SimKernel(), default_latency=1.0)
        self.sent = []
        self.transport.fault_policy = self._record
        self.store = Store({c: i for i, c in enumerate(CELLS)})
        if n_shards is None:
            self.system = FleccSystem(
                self.transport, self.store, extract_from_object,
                merge_into_object, extract_cells=extract_cells,
            )
        else:
            self.system = ShardedFleccSystem(
                self.transport, self.store, extract_from_object,
                merge_into_object, n_shards=n_shards,
                extract_cells=extract_cells,
            )
        self.agents = {}

    def _record(self, msg):
        image = msg.payload.get("image")
        self.sent.append((
            msg.msg_type, re.sub(r"#\d+$", "", msg.src),
            re.sub(r"#\d+$", "", msg.dst), msg.msg_id, msg.reply_to,
            getattr(image, "complete", None),
        ))
        return "deliver"

    def view(self, view_id, cells, **kw):
        agent = self.agents[view_id] = Agent()
        return self.system.add_view(
            view_id, agent, props_for(cells), extract_from_view,
            merge_into_view, **kw,
        ), agent

    def of_view(self, view_id):
        """The view's messages in order, ids renumbered by first
        appearance: the unsharded directory is serial, so *when* another
        view's message was minted differs between the runs, while the
        pairing of each reply with its request must not."""
        addr = f"cm:{view_id}"
        ordinal = {None: None}
        out = []
        for mt, src, dst, msg_id, reply_to, complete in self.sent:
            if addr in (src, dst):
                ordinal.setdefault(msg_id, len(ordinal))
                out.append((mt, src, dst, ordinal[msg_id],
                            ordinal.get(reply_to, "?"), complete))
        return out

    def run(self, *scripts):
        run_all_scripts(self.system.transport, list(scripts))

    @property
    def router(self):
        return self.system.plane.router


def _both(script):
    """The script on the unsharded system, then on a 4-shard plane
    (one after the other: message ids restart with each build)."""
    runs = []
    for n_shards in (None, 4):
        run = _Run(n_shards)
        script(run)
        runs.append(run)
    return runs


def _single_shard_script(run):
    """Two strong views contending on shard 0's cells, a weak view with
    a pull/push cycle on shard 3's, and a property update in place."""
    a, agent_a = run.view("a", CELLS[:2], mode="strong")
    b, agent_b = run.view("b", CELLS[:2], mode="strong")
    c, agent_c = run.view("c", CELLS[6:], mode="weak")

    def strong(cm, agent, bump, delay):
        yield ("sleep", delay)
        yield cm.start()
        yield cm.init_image()
        for _ in range(3):
            yield cm.start_use_image()
            agent.local["k00"] += bump
            cm.end_use_image()
            yield ("sleep", 3.0)
        yield cm.kill_image()

    def weak():
        yield c.start()
        yield c.init_image()
        agent_c.local["k07"] += 100
        yield c.push_image()
        yield c.update_properties(props_for(CELLS[6:7]))
        yield c.pull_image()
        yield c.set_mode("strong")
        yield c.kill_image()

    run.run(strong(a, agent_a, 1, 0.0), strong(b, agent_b, 10, 0.5), weak())


def test_single_shard_views_exchange_the_unsharded_message_sequence():
    plain, sharded = _both(_single_shard_script)
    counters = sharded.system.plane.counters
    assert counters["router_fanouts"] == 0
    assert counters["registrations_extended"] == 0
    assert counters["shard_local_rounds"] > 0
    for view_id in "abc":
        # Types, order, msg_id / reply_to pairing, delta-vs-complete.
        assert sharded.of_view(view_id) == plain.of_view(view_id)
    # The router minted no message of its own: the same ids were used.
    assert sorted(m[3] for m in sharded.sent) == sorted(m[3] for m in plain.sent)
    assert sharded.store.cells == plain.store.cells
    # The one ledger, the inner transport's, sees the forwarded traffic
    # in both directions, and only on the two shards the views live on.
    pairs = sharded.transport.stats.by_pair
    to, back = (
        [sum(n for pair, n in pairs.items() if pair[end] == shard)
         for shard in sharded.router.shard_addresses]
        for end in (1, 0)
    )
    assert to[0] == back[0] > 0 and to[3] == back[3] > 0
    assert to[1] == to[2] == back[1] == back[2] == 0


def _foreign_push_script(run):
    """A view registered for shard 0's cells writes a cell shard 3 owns."""
    v, agent = run.view("v", CELLS[:2], mode="weak")
    w, agent_w = run.view("w", CELLS, mode="weak")

    def script():
        yield v.start()
        yield v.init_image()
        agent.local["k00"] = 50
        agent.local["k07"] = 77          # outside the declared footprint
        yield v.push_image()
        yield w.start()
        yield w.init_image()
        agent_w.local["k01"] = 11
        yield w.push_image()
        yield v.pull_image()
        yield v.kill_image()
        yield w.kill_image()

    run.run(script())


def test_push_of_another_shards_key_leaves_the_one_shard_rule():
    plain, sharded = _both(_foreign_push_script)
    counters = sharded.system.plane.counters
    assert counters["registrations_extended"] == 1
    # No cell lost: the foreign key landed on its owner, the end state
    # and the view's copy are the unsharded run's.
    assert sharded.store.cells == plain.store.cells
    assert sharded.store.cells["k07"] == 77
    assert sharded.agents["v"].local == plain.agents["v"].local
    # The serve after the growth is complete, not a delta against the
    # first shard's cursor (the unsharded run serves a delta here).
    pulls = [m for m in sharded.of_view("v") if m[0] == M.PULL_DATA]
    assert pulls and pulls[-1][5] is True
    plain_pulls = [m for m in plain.of_view("v") if m[0] == M.PULL_DATA]
    assert plain_pulls[-1][5] is False


def _grow_by_properties_script(run):
    v, agent = run.view("v", CELLS[:2], mode="weak")
    w, agent_w = run.view("w", CELLS[4:6], mode="weak")

    def script():
        yield v.start()
        yield v.init_image()
        yield w.start()
        yield w.init_image()
        agent_w.local["k04"] = 44
        yield w.push_image()
        agent.local["k01"] = 21
        yield v.push_image()
        yield v.pull_image()             # a delta on shard 0's cursor
        yield v.update_properties(props_for(CELLS[:2] + CELLS[4:6]))
        yield v.pull_image()
        agent.local["k05"] = 55
        yield v.push_image()
        yield v.kill_image()
        yield w.kill_image()

    run.run(script())


def test_prop_update_onto_a_second_shard_leaves_the_one_shard_rule():
    plain, sharded = _both(_grow_by_properties_script)
    counters = sharded.system.plane.counters
    assert counters["router_fanouts"] > 0
    assert counters["cross_shard_rounds"] == 1
    assert sharded.store.cells == plain.store.cells
    assert sharded.agents["v"].local == plain.agents["v"].local
    assert sharded.agents["v"].local["k04"] == 44
    # One delta from shard 0 before the update; after it one serve from
    # each of the two shards, both complete.
    pulls = [m[5] for m in sharded.of_view("v") if m[0] == M.PULL_DATA]
    assert pulls == [False, True, True]


def test_retransmitted_forwarded_request_is_answered_once():
    """The CM's timeout (1.5) is shorter than the round trip (2.0): it
    retransmits an ACQUIRE the router has already retargeted.  The shard
    answers the duplicate from its reply cache; the router lets the
    first answer through and consumes the second."""
    run = _Run(4)
    v, agent = run.view("v", CELLS[2:4], mode="strong", request_timeout=1.5)
    delivered = []
    handler = v.endpoint.handler
    v.endpoint.handler = lambda m: (delivered.append(m), handler(m))[1]

    def script():
        yield v.start()
        yield v.init_image()
        yield v.start_use_image()
        agent.local["k02"] += 1
        v.end_use_image()
        yield ("sleep", 10.0)
        # REGISTER, INIT_REQ and ACQUIRE were each retransmitted once,
        # and each duplicate answer has come and gone.
        assert v.counters["retries"] == 3
        assert run.router.counters["late_replies"] == 3
        yield v.kill_image()

    run.run(script())
    acquires = [m for m in run.sent if m[0] == M.ACQUIRE]
    assert len(acquires) == 2 and acquires[0][3] == acquires[1][3]
    grants = [m for m in delivered if m.msg_type == M.GRANT]
    assert len(grants) == 1
    assert len([m for m in run.sent if m[0] == M.GRANT]) == 2
    assert run.system.plane.shards[1].counters["grants"] == 1
    assert run.store.cells["k02"] == 3


@pytest.mark.parametrize("n_shards", [1, 4])
def test_request_from_an_unregistered_view_is_refused(n_shards):
    run = _Run(n_shards)
    v, _agent = run.view("ghost", CELLS[:2])

    def script():
        yield v.pull_image()

    with pytest.raises(Exception, match="unregistered view"):
        run.run(script())
