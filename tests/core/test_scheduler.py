"""Conflict-aware round scheduler: overlap, no-barging, fault fences.

PR 10 replaces the directory's single in-flight op slot with a
scheduler that may run *independent* rounds (disjoint conflict scopes)
concurrently.  These tests drive :class:`repro.testing.BareDirectory` — a bare
directory behind a slow fake cache-manager hub whose INVALIDATE/FETCH
acks arrive after a simulated delay — so rounds genuinely dwell in flight — and assert:

- serial mode (``concurrent_rounds=1``, the default) keeps the one-op
  FIFO discipline exactly;
- independent rounds overlap (makespan ~ one ack wait, not G of them)
  and the ``concurrent_rounds_hwm`` gauge witnesses it;
- conflicting ops wait FIFO per conflict group — no barging — while
  unrelated ops overtake them;
- the ``queue_wait`` profiler phase records scheduler head-of-line
  wait and stays out of the implicit CPU-time total;
- a handler fault mid-round (commit hook) or at serve time no longer
  wedges the op slot: the loss is recorded, the offender quarantined,
  and the next op proceeds (the PR's wedge regression);
- a hypothesis state machine replays random interleavings on
  ``concurrent_rounds`` in {1, 4, unbounded} and demands identical end
  state, message counts, conflict answers and protocol invariants,
  with an injected assertion that no two overlapping rounds ever had
  intersecting scopes.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.multicast import MulticastDirectory
from repro.core import DiscreteSet, Property, PropertySet
from repro.core import messages as M
from repro.core.directory import DirectoryManager
from repro.core.durability import DurabilitySpec
from repro.core.image import ObjectImage
from repro.core.profiling import PHASES
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem, run_all_scripts
from repro.net.message import Message
from repro.net.sim_transport import SimTransport
from repro.net.stats import MessageStats
from repro.sim import SimKernel
from repro.testing import (
    Agent,
    BareDirectory,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    extract_slice,
    merge_into_object,
    merge_into_view,
    merge_slice,
    pair_group_props,
    props_for,
)
from tests.core.durable_rig import wal_records

ACK_DELAY = 1.0


def _vid(i: int) -> str:
    return f"w{i:05d}"


def _grants_for(h: BareDirectory, *requests: Message):
    """GRANT replies matched to the given requests, in arrival order."""
    ids = {m.msg_id for m in requests}
    return [
        r for r in h.replies
        if r.msg_type == M.GRANT and r.reply_to in ids
    ]


def _paired_fleet(h: BareDirectory, n_groups: int) -> None:
    """Register G pair groups and pull every partner (odd view) active,
    so each leader's ACQUIRE must run a revocation round."""
    for i in range(2 * n_groups):
        h.register(_vid(i), pair_group_props(i))
    h.drain()
    for k in range(n_groups):
        h.pull(_vid(2 * k + 1))
    h.drain()


# ---------------------------------------------------------------------------
# Overlap and no-barging
# ---------------------------------------------------------------------------


def test_serial_default_keeps_one_op_discipline():
    assert DirectoryManager.__init__.__defaults__ is not None
    h = BareDirectory(concurrent_rounds=1, ack_delay=ACK_DELAY)
    assert h.dm.concurrent_rounds == 1
    _paired_fleet(h, 3)
    t0 = h.now()
    reqs = [h.acquire(_vid(2 * k)) for k in range(3)]
    h.drain()
    assert h.now() - t0 > 2.5 * ACK_DELAY  # three ack waits, serialized
    assert h.dm.counters["concurrent_rounds_hwm"] == 1
    assert h.dm.counters["rounds_overlapped"] == 0
    grants = _grants_for(h, *reqs)
    assert [g.reply_to for g in grants] == [m.msg_id for m in reqs]  # FIFO
    h.close()


def test_independent_rounds_overlap():
    h = BareDirectory(concurrent_rounds=0, ack_delay=ACK_DELAY)
    _paired_fleet(h, 3)
    t0 = h.now()
    reqs = [h.acquire(_vid(2 * k)) for k in range(3)]
    h.drain()
    # All three ack waits overlapped: makespan ~ one wait, not three.
    assert h.now() - t0 < 2 * ACK_DELAY
    assert h.dm.counters["concurrent_rounds_hwm"] == 3
    assert h.dm.counters["rounds_overlapped"] == 2
    assert h.transport.stats.concurrent_rounds_hwm == 3  # gauge mirrored
    assert len(_grants_for(h, *reqs)) == 3
    h.dm.check_invariants()
    h.close()


def test_bounded_limit_respected():
    h = BareDirectory(concurrent_rounds=2, ack_delay=ACK_DELAY)
    _paired_fleet(h, 4)
    for k in range(4):
        h.acquire(_vid(2 * k))
    h.drain()
    assert h.dm.counters["concurrent_rounds_hwm"] == 2
    h.close()


def test_conflicting_ops_wait_fifo():
    h = BareDirectory(concurrent_rounds=0, ack_delay=ACK_DELAY)
    _paired_fleet(h, 1)
    r1 = h.acquire(_vid(0))   # revokes the partner; round in flight
    r2 = h.acquire(_vid(1))   # same group: must wait for r1
    h.drain()
    assert h.dm.counters["concurrent_rounds_hwm"] == 1  # never overlapped
    assert h.dm.counters["sched_conflict_waits"] >= 1
    grants = _grants_for(h, r1, r2)
    assert [g.reply_to for g in grants] == [r1.msg_id, r2.msg_id]
    # The second acquire won in the end: the partner holds exclusivity.
    assert h.dm.views[_vid(1)].exclusive
    assert not h.dm.views[_vid(0)].exclusive
    h.close()


def test_independent_op_overtakes_blocked_op():
    h = BareDirectory(concurrent_rounds=0, ack_delay=ACK_DELAY)
    _paired_fleet(h, 2)
    ra = h.acquire(_vid(0))   # group 0: round in flight
    rb = h.acquire(_vid(1))   # group 0: blocked behind ra (no barging)
    rc = h.acquire(_vid(2))   # group 1: independent — starts immediately
    h.drain()
    grants = _grants_for(h, ra, rb, rc)
    order = [g.reply_to for g in grants]
    # The independent round finished before the blocked same-group op
    # (under the old FIFO it would have queued behind both of group 0's).
    assert order.index(rc.msg_id) < order.index(rb.msg_id)
    assert len(grants) == 3  # nobody starved
    h.close()


# ---------------------------------------------------------------------------
# queue_wait profiling
# ---------------------------------------------------------------------------


def test_queue_wait_phase_recorded_and_excluded_from_total():
    assert "queue_wait" in PHASES
    h = BareDirectory(concurrent_rounds=1, ack_delay=ACK_DELAY)
    _paired_fleet(h, 2)
    h.acquire(_vid(0))
    h.acquire(_vid(2))        # independent, but serial mode queues it
    h.drain()
    prof = h.dm.profiler
    qw = prof.phases["queue_wait"]
    assert qw.count >= 2 and qw.total_ns > 0
    # The implicit total is CPU work: head-of-line wait stays out of it
    # (it spans other ops' ack round trips), as does the wal subset.
    expected = sum(
        hist.total_ns for name, hist in prof.phases.items()
        if name != "queue_wait"
        and (name != "wal" or "commit" not in prof.phases)
    )
    assert prof.total_ns() == expected
    assert prof.total_ns("queue_wait") == qw.total_ns
    h.close()


def test_sharded_plane_surfaces_queue_wait_and_concurrency():
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    store = Store({"k00": 0, "k01": 1})
    system = ShardedFleccSystem(
        transport, store, extract_from_object, merge_into_object,
        n_shards=2, extract_cells=extract_cells, profile=True,
        concurrent_rounds=4,
    )
    assert all(dm.concurrent_rounds == 4 for dm in system.plane.shards)
    agent = Agent()
    cm = system.add_view(
        "v1", agent, PropertySet(), extract_from_view, merge_into_view,
    )

    def script():
        yield cm.start()
        yield cm.init_image()

    run_all_scripts(transport, [script()])
    merged = system.plane.merged_profile()
    assert merged is not None
    assert "queue_wait" in merged.phases  # rides the per-shard fold


def test_system_builder_passthrough():
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    system = FleccSystem(
        transport, Store({"a": 1}), extract_from_object, merge_into_object,
        extract_cells=extract_cells, concurrent_rounds=0,
    )
    assert system.directory.concurrent_rounds == 0
    system.close()
    # Unset keeps the directory's own serial default.
    transport2 = SimTransport(SimKernel(), default_latency=1.0)
    system2 = FleccSystem(
        transport2, Store({"a": 1}), extract_from_object, merge_into_object,
        extract_cells=extract_cells,
    )
    assert system2.directory.concurrent_rounds == 1
    system2.close()


def _strong_fleet_overlap(directory_cls, n_views, views_per_cell):
    """``rounds_overlapped`` after ``n_views`` strong views, each sharing
    its cell with ``views_per_cell - 1`` others, ran ten use-windows at
    seeded think times under unbounded round concurrency."""
    transport = SimTransport(SimKernel(), default_latency=1.0)
    store = Store({f"c{i}": 0 for i in range(n_views)})
    system = FleccSystem(
        transport, store, extract_from_object, merge_into_object,
        extract_cells=extract_cells, directory_cls=directory_cls,
        concurrent_rounds=0,
    )
    rng = random.Random(7)

    def script(cm, agent, cell, thinks):
        yield cm.start()
        yield cm.init_image()
        for think in thinks:
            yield ("sleep", think)
            yield cm.start_use_image()
            agent.local[cell] = agent.local.get(cell, 0) + 1
            cm.end_use_image()
        yield cm.kill_image()

    scripts = []
    for i in range(n_views):
        cell, agent = f"c{i // views_per_cell}", Agent()
        cm = system.add_view(
            f"v{i}", agent, props_for([cell]),
            extract_from_view, merge_into_view, mode="strong",
        )
        thinks = [rng.uniform(0, 5) for _ in range(10)]
        scripts.append(script(cm, agent, cell, thinks))
    run_all_scripts(transport, scripts)
    system.directory.check_invariants()
    overlapped = system.directory.counters["rounds_overlapped"]
    system.close()
    return overlapped


def test_round_scopes_follow_an_overridden_conflict_relation():
    """The scheduler asks the relation the round asks: under
    ``MulticastDirectory`` every pair of views conflicts, so no two
    rounds may overlap even on disjoint cells (scopes taken from the
    policy let them, up to a strong-mode violation at 8 views), while
    the stock directory still overlaps rounds of disjoint pairs."""
    for n_views in (2, 4, 8):
        assert _strong_fleet_overlap(MulticastDirectory, n_views, 1) == 0
    assert _strong_fleet_overlap(DirectoryManager, 8, 2) > 0


def test_stats_concurrent_rounds_gauge():
    s = MessageStats()
    s.record_concurrent_rounds(3)
    s.record_concurrent_rounds(2)   # gauge keeps the high-water mark
    assert s.concurrent_rounds_hwm == 3
    s.record_concurrent_rounds(5)
    assert s.concurrent_rounds_hwm == 5
    assert "concurrent_rounds_hwm=5" in s.summary()
    s.reset()
    assert s.concurrent_rounds_hwm == 0


# ---------------------------------------------------------------------------
# Wedge regressions: handler faults mid-round must release the slot
# ---------------------------------------------------------------------------


def test_commit_fault_mid_round_quarantines_and_releases_slot():
    def poisoned_merge(store, image, props):
        if "poison" in image.keys():
            raise ValueError("merge hook exploded")
        merge_slice(store, image, props)

    h = BareDirectory(concurrent_rounds=1, merge_into_object=poisoned_merge)
    _paired_fleet(h, 2)
    h.ack_image = ObjectImage({"poison": 1})  # the partner's dying handover
    r1 = h.acquire(_vid(0))
    h.drain()
    # The fault was fenced: recorded, offender quarantined, round done.
    assert h.dm.counters["round_faults"] == 1
    assert _vid(1) in h.dm.quarantined
    assert len(_grants_for(h, r1)) == 1       # the round still finalized
    assert not h.dm._running                # the slot was released
    # The slot is usable: an unrelated group's round proceeds untouched.
    h.ack_image = None
    r2 = h.acquire(_vid(2))
    h.drain()
    assert len(_grants_for(h, r2)) == 1
    assert h.dm.counters["round_faults"] == 1
    h.dm.check_invariants()
    h.close()


def test_serve_fault_replies_error_and_next_op_proceeds():
    # One-shot bomb: the serve blows up once, then the hook recovers
    # for the next op.
    armed = {"shots": 0}

    def bomb_extract(store, props):
        if armed["shots"] > 0:
            armed["shots"] -= 1
            raise RuntimeError("extract exploded")
        return extract_slice(store, props)

    h = BareDirectory(concurrent_rounds=1, extract_from_object=bomb_extract)
    _paired_fleet(h, 2)
    armed["shots"] = 1
    r1 = h.acquire(_vid(0))   # full revocation round, then serve blows up
    h.drain()
    errors = [
        r for r in h.replies
        if r.msg_type == M.ERROR and r.reply_to == r1.msg_id
    ]
    assert len(errors) == 1
    assert h.dm.counters["serve_faults"] == 1
    assert _vid(0) in h.dm.quarantined      # the requester is suspect
    assert not h.dm._running
    r2 = h.acquire(_vid(2))
    h.drain()
    assert len(_grants_for(h, r2)) == 1       # not wedged
    h.close()


def test_regrant_serve_fault_is_fenced():
    """A re-ACQUIRE from the current holder is served at once (a
    regrant), through the same serve fence as a round's serve: ERROR,
    the holder quarantined, and the next op served."""
    armed = {"shots": 0}

    def bomb_extract(store, props):
        if armed["shots"] > 0:
            armed["shots"] -= 1
            raise RuntimeError("extract exploded")
        return extract_slice(store, props)

    h = BareDirectory(extract_from_object=bomb_extract)
    _paired_fleet(h, 1)
    h.acquire(_vid(0))
    h.drain()
    assert h.dm.views[_vid(0)].exclusive
    armed["shots"] = 1
    again = Message(M.ACQUIRE, "cmhub", "dir", {"view_id": _vid(0), "full": True})
    h.endpoint.send(again)
    h.drain()
    assert [r.msg_type for r in h.replies if r.reply_to == again.msg_id] == [
        M.ERROR
    ]
    assert h.dm.counters["regrants"] == 1
    assert h.dm.counters["serve_faults"] == 1
    assert h.dm.quarantined[_vid(0)].reason == "serve-fault"
    r2 = h.acquire(_vid(1))
    h.drain()
    assert len(_grants_for(h, r2)) == 1
    h.dm.check_invariants()
    h.close()


def test_serve_fault_stashes_and_logs_the_requester(wal_root):
    """An extract hook that keeps raising at serve time: the requester
    is still stashed as ``serve-fault`` and its quarantine is logged —
    the stash runs no application hook."""
    armed = {"on": False}

    def bomb_extract(store, props):
        if armed["on"]:
            raise RuntimeError("extract exploded")
        return extract_slice(store, props)

    spec = DurabilitySpec(root=wal_root, fsync="always", snapshot_every=0)
    h = BareDirectory(extract_from_object=bomb_extract, durability=spec)
    _paired_fleet(h, 1)
    armed["on"] = True
    h.acquire(_vid(0))
    h.drain()
    assert h.dm.counters["serve_faults"] == 1
    assert h.dm.quarantined[_vid(0)].reason == "serve-fault"
    logged = [
        r for r in wal_records(wal_root / spec.name)
        if r.get("k") == "quarantine"
    ]
    assert [(r["v"], r["reason"]) for r in logged] == [
        (_vid(0), "serve-fault")
    ]
    h.close()


# ---------------------------------------------------------------------------
# Randomized interleavings: serial / bounded / unbounded must converge
# ---------------------------------------------------------------------------

LEG_LIMITS = (1, 4, 0)
N_PAIRS = 3
VERBS = (
    "pull_even", "pull_odd", "acquire_even", "acquire_odd",
    "push_even", "push_odd",
)


def _install_scope_check(dm: DirectoryManager) -> None:
    """Assert, at every round start, that the new op's conflict scope is
    disjoint from every in-flight round's scope — the scheduler's core
    safety claim, checked from the inside on every interleaving."""
    orig = dm._start_running

    def checked(op):
        if op.scope is not None:
            for other in dm._running.values():
                assert op.scope.isdisjoint(other.scope), (
                    f"conflicting rounds overlapped: {sorted(op.scope)} "
                    f"vs {sorted(other.scope)}"
                )
        orig(op)

    dm._start_running = checked


def _conflict_answers(dm: DirectoryManager):
    return {
        vid: sorted(dm.conflict_set_of(vid)) for vid in sorted(dm.views)
    }


class SchedulerParityMachine(RuleBasedStateMachine):
    """Random register/pull/acquire/push/unregister/prop-update
    interleavings, mirrored across concurrent_rounds in {1, 4, 0}.

    Each rule issues at most one op per pair group before draining, and
    groups are mutually independent — so every leg must converge to the
    same end state, the same Fig-4 message counts and the same conflict
    answers no matter how the scheduler interleaved the groups.  The
    scope check above rides inside each directory throughout.
    """

    def __init__(self):
        super().__init__()
        self.harnesses = []
        for limit in LEG_LIMITS:
            h = BareDirectory(concurrent_rounds=limit, ack_delay=0.5)
            _install_scope_check(h.dm)
            for i in range(2 * N_PAIRS):
                h.register(_vid(i), pair_group_props(i))
            h.drain()
            self.harnesses.append(h)
        self.churn_next = 0
        self.live_churn = []  # (view_id, group)

    def _apply(self, fn):
        for h in self.harnesses:
            fn(h)
            h.drain()

    @rule(data=st.data())
    def burst(self, data):
        groups = sorted(data.draw(
            st.sets(st.sampled_from(range(N_PAIRS)), min_size=1)
        ))
        plan = [
            (g, data.draw(st.sampled_from(VERBS), label=f"verb for g{g}"))
            for g in groups
        ]

        def run(h):
            for g, verb in plan:
                even, odd = _vid(2 * g), _vid(2 * g + 1)
                if verb == "pull_even":
                    h.pull(even)
                elif verb == "pull_odd":
                    h.pull(odd)
                elif verb == "acquire_even":
                    h.acquire(even)
                elif verb == "acquire_odd":
                    h.acquire(odd)
                elif verb == "push_even":
                    h.push(even, {f"grp{g:05d}": g + 1})
                elif verb == "push_odd":
                    h.push(odd, {f"own{2 * g + 1:05d}": 7})

        self._apply(run)

    @rule(g=st.sampled_from(range(N_PAIRS)))
    def churn_join(self, g):
        c = self.churn_next
        self.churn_next += 1
        vid = f"c{g}x{c:03d}"
        props = PropertySet([
            Property("cells", DiscreteSet({vid, f"grp{g:05d}"}))
        ])
        self._apply(lambda h: h.register(vid, props))
        self.live_churn.append((vid, g))

    @rule(data=st.data())
    def churn_pull(self, data):
        if not self.live_churn:
            return
        vid, _g = data.draw(st.sampled_from(self.live_churn))
        self._apply(lambda h: h.pull(vid))

    @rule(data=st.data())
    def churn_leave(self, data):
        if not self.live_churn:
            return
        entry = data.draw(st.sampled_from(self.live_churn))
        self.live_churn.remove(entry)
        vid, _g = entry

        def run(h):
            h.endpoint.send(Message(
                M.UNREGISTER, "cmhub", "dir", {"view_id": vid}
            ))

        self._apply(run)

    @rule(g=st.sampled_from(range(N_PAIRS)), tag=st.integers(0, 3))
    def reshape(self, g, tag):
        i = 2 * g
        props = PropertySet([
            Property("cells", DiscreteSet({
                f"own{i:05d}", f"grp{g:05d}", f"xtra{g}t{tag}",
            }))
        ])

        def run(h):
            h.endpoint.send(Message(
                M.PROP_UPDATE, "cmhub", "dir",
                {"view_id": _vid(i), "properties": props},
            ))

        self._apply(run)

    @invariant()
    def legs_agree(self):
        stores = [sorted(h.store.items()) for h in self.harnesses]
        assert all(s == stores[0] for s in stores)
        answers = [_conflict_answers(h.dm) for h in self.harnesses]
        assert all(a == answers[0] for a in answers)
        counts = [dict(h.transport.stats.by_type) for h in self.harnesses]
        assert all(c == counts[0] for c in counts)
        for h in self.harnesses:
            h.dm.check_invariants()
            assert not h.dm._running and not h.dm._op_queue

    def teardown(self):
        for h in self.harnesses:
            h.close()


TestSchedulerParity = SchedulerParityMachine.TestCase
TestSchedulerParity.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
