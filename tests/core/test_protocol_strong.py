"""Protocol tests: strong mode — acquisition, invalidation, one-copy
serializability, deferred invalidation, mode switching (paper §4, Fig 2)."""

from repro.core import Mode
from repro.core import messages as M
from repro.errors import ProtocolError

from tests.core.harness import ProtocolFixture


def test_acquire_grants_exclusive_ownership():
    fx = ProtocolFixture()
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        owner_during = cm.owner
        cm.end_use_image()
        return owner_during

    [owner] = fx.run_scripts(script())
    assert owner
    assert fx.system.directory.exclusive_views() == ["v1"]


def test_a_lone_strong_views_second_use_is_a_local_grant():
    """The owner token outlives the critical section: with nobody to
    revoke it, the second ``start_use_image`` sends no ACQUIRE."""
    fx = ProtocolFixture()
    cm, _ = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        for _ in range(2):
            yield cm.start_use_image()
            cm.end_use_image()

    fx.run_scripts(script())
    assert cm.counters["acquires"] == 1
    assert cm.counters["local_grants"] == 1
    assert fx.stats.by_type[M.ACQUIRE] == 1


def test_a_contended_strong_views_uses_are_never_local_grants():
    """Two strong views taking turns on one cell revoke each other's
    token between uses, so every use is a directory round."""
    fx = ProtocolFixture()
    cms = [fx.add_agent(v, ["a"], mode=Mode.STRONG)[0] for v in ("v1", "v2")]

    def script(cm, offset):
        yield cm.start()
        yield cm.init_image()
        yield ("sleep", offset)
        for _ in range(3):
            yield cm.start_use_image()
            cm.end_use_image()
            yield ("sleep", 20.0)

    fx.run_scripts(script(cms[0], 0.0), script(cms[1], 10.0))
    for cm in cms:
        assert cm.counters["acquires"] == 3
        assert cm.counters["local_grants"] == 0


def test_second_acquire_invalidates_first(paper_fig2=True):
    """The Fig 2 scenario: V2's request revokes V1's control."""
    fx = ProtocolFixture(store_cells={"x": 1, "y": 2, "z": 3})
    cm1, a1 = fx.add_agent("v1", ["x", "y"], mode=Mode.STRONG)
    cm2, a2 = fx.add_agent("v2", ["x", "z"], mode=Mode.STRONG)

    def v1():
        yield cm1.start()
        yield cm1.init_image()
        yield cm1.start_use_image()
        a1.local["x"] = 100
        cm1.end_use_image()
        yield ("sleep", 50.0)
        return cm1.owner

    def v2():
        yield cm2.start()
        yield cm2.init_image()
        yield ("sleep", 20.0)  # let v1 acquire first
        yield cm2.start_use_image()
        got_x = a2.local["x"]
        cm2.end_use_image()
        return got_x

    v1_owner_after, v2_saw = fx.run_scripts(v1(), v2())
    assert not v1_owner_after           # v1 was invalidated
    assert v2_saw == 100                # v2 received v1's committed update
    assert fx.system.directory.exclusive_views() == ["v2"]
    assert fx.stats.by_type[M.INVALIDATE] >= 1
    assert fx.stats.by_type[M.INVALIDATE_ACK] >= 1


def test_one_copy_serializability_under_contention():
    """N strong agents decrementing a counter never lose an update."""
    fx = ProtocolFixture(store_cells={"a": 0})
    n_agents, n_ops = 5, 4
    cms = [fx.add_agent(f"v{i}", ["a"], mode=Mode.STRONG) for i in range(n_agents)]

    def script(cm, agent):
        yield cm.start()
        yield cm.init_image()
        for _ in range(n_ops):
            yield cm.start_use_image()
            agent.local["a"] += 1
            yield ("sleep", 1.0)
            cm.end_use_image()
        yield cm.kill_image()

    fx.run_scripts(*(script(cm, a) for cm, a in cms))
    assert fx.store.cells["a"] == n_agents * n_ops
    fx.system.directory.check_invariants()


def test_invariant_holds_at_every_grant():
    fx = ProtocolFixture(store_cells={"a": 0})
    cms = [fx.add_agent(f"v{i}", ["a"], mode=Mode.STRONG) for i in range(3)]
    # check_invariants() runs inside _finalize_op already; this test
    # drives enough interleaving to exercise it repeatedly.
    def script(cm, agent):
        yield cm.start()
        yield cm.init_image()
        for _ in range(3):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
            yield ("sleep", 0.5)

    fx.run_scripts(*(script(cm, a) for cm, a in cms))
    fx.system.directory.check_invariants()


def test_invalidation_deferred_until_end_use():
    fx = ProtocolFixture(store_cells={"a": 1})
    cm1, a1 = fx.add_agent("v1", ["a"], mode=Mode.STRONG)
    cm2, a2 = fx.add_agent("v2", ["a"], mode=Mode.STRONG)
    events = []

    def v1():
        yield cm1.start()
        yield cm1.init_image()
        yield cm1.start_use_image()
        a1.local["a"] = 77
        events.append(("v1-in-use", fx.kernel.now))
        yield ("sleep", 30.0)  # stay in use while v2 tries to acquire
        cm1.end_use_image()
        events.append(("v1-end-use", fx.kernel.now))

    def v2():
        yield cm2.start()
        yield cm2.init_image()
        yield ("sleep", 10.0)
        yield cm2.start_use_image()
        events.append(("v2-granted", fx.kernel.now))
        got = a2.local["a"]
        cm2.end_use_image()
        return got

    _, v2_saw = fx.run_scripts(v1(), v2())
    times = dict(events)
    # v2's grant happened only after v1 left its critical section.
    assert times["v2-granted"] >= times["v1-end-use"]
    # ... and carried v1's in-use modification.
    assert v2_saw == 77


def test_nonconflicting_strong_owners_coexist():
    fx = ProtocolFixture(store_cells={"a": 1, "z": 2})
    cm1, _ = fx.add_agent("v1", ["a"], mode=Mode.STRONG)
    cm2, _ = fx.add_agent("v2", ["z"], mode=Mode.STRONG)

    def script(cm):
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        yield ("sleep", 20.0)
        cm.end_use_image()
        return cm.owner

    r1, r2 = fx.run_scripts(script(cm1), script(cm2))
    assert r1 and r2  # both kept ownership: no conflict between slices
    assert sorted(fx.system.directory.exclusive_views()) == ["v1", "v2"]
    assert M.INVALIDATE not in fx.stats.by_type


def test_repeated_use_by_owner_needs_no_messages():
    fx = ProtocolFixture()
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        cm.end_use_image()
        before = fx.stats.total
        for _ in range(5):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        return fx.stats.total - before

    [delta] = fx.run_scripts(script())
    assert delta == 0  # ownership is sticky: no traffic while unchallenged


def test_switch_strong_to_weak_releases_ownership_and_pushes():
    fx = ProtocolFixture(store_cells={"a": 1})
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] = 42
        cm.end_use_image()
        yield cm.set_mode(Mode.WEAK)
        return cm.mode, cm.owner

    [(mode, owner)] = fx.run_scripts(script())
    assert mode is Mode.WEAK and not owner
    assert fx.store.cells["a"] == 42  # dirty state pushed on the way out
    assert fx.system.directory.exclusive_views() == []
    assert fx.system.directory.views["v1"].mode is Mode.WEAK


def test_switch_weak_to_strong_acquires_on_next_use():
    fx = ProtocolFixture()
    cm, _ = fx.add_agent("v1", ["a"], mode=Mode.WEAK)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.set_mode(Mode.STRONG)
        yield cm.start_use_image()
        owner = cm.owner
        cm.end_use_image()
        return owner

    [owner] = fx.run_scripts(script())
    assert owner
    assert fx.stats.by_type[M.ACQUIRE] == 1
    assert fx.stats.by_type[M.GRANT] == 1


def test_weak_pull_revokes_conflicting_strong_owner():
    fx = ProtocolFixture(store_cells={"a": 1})
    strong_cm, strong_agent = fx.add_agent("vs", ["a"], mode=Mode.STRONG)
    weak_cm, weak_agent = fx.add_agent("vw", ["a"], mode=Mode.WEAK)

    def strong():
        yield strong_cm.start()
        yield strong_cm.init_image()
        yield strong_cm.start_use_image()
        strong_agent.local["a"] = 555
        strong_cm.end_use_image()
        yield ("sleep", 50.0)
        return strong_cm.owner

    def weak():
        yield weak_cm.start()
        yield ("sleep", 20.0)
        img = yield weak_cm.init_image()
        return img.get("a")

    owner_after, weak_saw = fx.run_scripts(strong(), weak())
    assert weak_saw == 555     # one-copy: weak reader saw the owner's write
    assert not owner_after     # owner was revoked by the weak pull
    fx.system.directory.check_invariants()


def test_refused_surrender_fails_set_mode_and_keeps_the_token():
    """Leaving strong mode surrenders dirty state first; when the
    directory refuses that push, SET_MODE is never sent: ``set_mode``
    fails with the push's error, and the view keeps its token and its
    write instead of dropping both."""
    fx = ProtocolFixture(store_cells={"a": 1})
    heal = fx.system.directory.merge_into_object

    def poisoned(store, image, props):
        if 666 in image.cells.values():
            raise RuntimeError("merge hook exploded")
        heal(store, image, props)

    fx.system.directory.merge_into_object = poisoned
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)

    def script():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] = 666
        cm.end_use_image()
        try:
            yield cm.set_mode(Mode.WEAK)
        except ProtocolError as exc:
            return str(exc)

    [error] = fx.run_scripts(script())
    assert "merge hook exploded" in error
    assert M.SET_MODE not in fx.stats.by_type
    assert cm.mode is Mode.STRONG and cm.owner
    d = fx.system.directory
    assert d.exclusive_views() == ["v1"]
    assert d.views["v1"].mode is Mode.STRONG
    assert cm.has_dirty_data()
    assert fx.store.cells["a"] == 1
    d.check_invariants()


def test_a_push_and_an_invalidate_ack_each_extract_the_view_once():
    """One extract per hand-off: the diff and the new sync point come
    from the same ``extract_from_view`` call."""
    fx = ProtocolFixture(store_cells={"a": 1})
    cm, agent = fx.add_agent("v1", ["a"], mode=Mode.STRONG)
    other, _ = fx.add_agent("v2", ["a"], mode=Mode.STRONG)
    extracts = []
    extract = cm.extract_from_view

    def counted(view, props):
        extracts.append(1)
        return extract(view, props)

    cm.extract_from_view = counted

    def owner():
        yield cm.start()
        yield cm.init_image()
        yield cm.start_use_image()
        agent.local["a"] = 2
        cm.end_use_image()
        extracts.clear()
        yield cm.push_image()
        pushed = len(extracts)
        extracts.clear()
        yield ("sleep", 20.0)  # v2 revokes the token meanwhile
        return pushed, len(extracts)

    def contender():
        yield other.start()
        yield other.init_image()
        yield ("sleep", 15.0)
        yield other.start_use_image()
        other.end_use_image()

    [(pushed, revoked), _] = fx.run_scripts(owner(), contender())
    assert pushed == 1
    assert revoked == 1
    assert cm.counters["invalidations"] == 1 and not cm.owner
    assert fx.store.cells["a"] == 2


def _carries(frame, msg_type):
    """Whether an R_DATA frame carries a logical ``msg_type`` (a flight
    lists its messages under "m"; a one-message envelope names the
    type under "t")."""
    p = frame.payload
    if "m" in p:
        return any(sub.msg_type == msg_type for sub in p["m"])
    return p.get("t") == msg_type


def test_a_late_grant_loses_no_write():
    """Every GRANT-carrying frame is held 0.5 behind: the INVALIDATE
    revoking a grant then arrives right behind it, in the same instant.
    The cache manager applies the GRANT in the handler it arrives in, so
    the view is already inside the use the grant opened when the
    INVALIDATE is handled: it is deferred to the end of that use and
    carries the increment with it."""
    from repro.core.system import FleccSystem, run_all_scripts
    from repro.net import ReliableTransport, SimTransport
    from repro.net.message import R_DATA
    from repro.sim import SimKernel
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

    kernel = SimKernel()
    inner = SimTransport(kernel, default_latency=1.0, fault_policy=lambda f: (
        ("delay", 0.5) if f.msg_type == R_DATA and _carries(f, M.GRANT)
        else "deliver"))
    rel = ReliableTransport(inner)
    store = Store({"a": 0})
    system = FleccSystem(rel, store, extract_from_object, merge_into_object,
                         extract_cells=extract_cells)
    views = []
    for i in range(3):
        agent = Agent()
        cm = system.add_view(f"v{i}", agent, props_for(["a"]),
                             extract_from_view, merge_into_view,
                             mode=Mode.STRONG)
        views.append((cm, agent))

    def script(cm, agent):
        yield cm.start()
        yield cm.init_image()
        for _ in range(3):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        yield cm.kill_image()

    run_all_scripts(rel, [script(cm, agent) for cm, agent in views])
    assert store.cells["a"] == 9
    system.directory.check_invariants()
