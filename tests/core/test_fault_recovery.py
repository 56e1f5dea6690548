"""End-to-end fault tolerance: lease expiry, quarantine, crash recovery,
graceful degradation, and duplicate-delivery idempotency."""

import pytest

from repro.core import Mode
from repro.core import messages as M
from repro.errors import ProtocolError
from repro.testing import (
    Agent,
    ProtocolFixture,
    extract_from_view,
    merge_into_view,
    props_for,
)


def add_view(fx, view_id, cells, **kw):
    """add_agent with the fault-tolerance CM knobs exposed."""
    agent = Agent()
    fx.agents[view_id] = agent
    cm = fx.system.add_view(
        view_id, agent, props_for(cells),
        extract_from_view, merge_into_view, **kw,
    )
    return cm, agent


def setup_script(cm):
    yield cm.start()
    yield cm.init_image()


# ---------------------------------------------------------------------------
# Lease-based failure detection (the acceptance scenario)
# ---------------------------------------------------------------------------

def test_lease_expiry_reclaims_strong_ownership_and_cm_recovers():
    """A CM crashes while holding STRONG exclusivity.  The directory's
    lease detector must evict it and reclaim exclusivity so others make
    progress; the restarted CM re-registers and re-syncs."""
    fx = ProtocolFixture(store_cells={"a": 0}, lease_duration=50.0)
    cm1, a1 = add_view(
        fx, "v1", ["a"], mode=Mode.STRONG, heartbeat_period=10.0
    )

    def grab_ownership():
        yield cm1.start()
        yield cm1.init_image()
        yield cm1.start_use_image()  # acquires exclusivity, never ends use

    fx.run_scripts(grab_ownership())
    assert fx.system.directory.exclusive_views() == ["v1"]

    cm1.crash()  # heartbeats stop; the lease is never renewed again
    fx.run(until=fx.kernel.now + 150.0)

    d = fx.system.directory
    assert "v1" not in d.views
    assert d.counters["leases_expired"] == 1
    assert d.exclusive_views() == []
    q = d.quarantined["v1"]
    assert q.reason == "lease-expired"

    # Exclusivity is reclaimable: a new strong view acquires and commits.
    cm2, a2 = add_view(fx, "v2", ["a"], mode=Mode.STRONG)

    def writer():
        yield cm2.start()
        yield cm2.init_image()
        yield cm2.start_use_image()
        a2.local["a"] += 5
        cm2.end_use_image()
        yield cm2.kill_image()

    fx.run_scripts(writer())
    assert fx.store.cells["a"] == 5
    d.check_invariants()

    # The crashed CM restarts: idempotent re-REGISTER + full re-sync.
    comp = cm1.recover()
    fx.run(until=fx.kernel.now + 50.0)
    assert comp.done
    image = comp.value
    assert image.cells == {"a": 5}  # synced past the write it missed
    assert a1.local["a"] == 5
    assert cm1.registered and not cm1.degraded
    assert d.counters["recoveries"] == 1
    assert "v1" not in d.quarantined  # stash consumed by the recovery
    assert cm1.counters["recoveries"] == 1


def test_recovered_cm_state_seq_fast_forwarded():
    """Post-recovery pushes must not be dropped as stale retransmissions:
    the REGISTER_ACK carries the directory's last_state_seq cursor."""
    fx = ProtocolFixture(store_cells={"a": 0}, lease_duration=40.0)
    cm, agent = add_view(fx, "v1", ["a"], mode=Mode.WEAK)

    def write(n):
        yield cm.start_use_image()
        agent.local["a"] += n
        cm.end_use_image()
        yield cm.push_image()

    fx.run_scripts(setup_script(cm))
    fx.run_scripts(write(3))
    assert fx.store.cells["a"] == 3

    cm.crash()
    fx.run(until=fx.kernel.now + 100.0)  # lease expires, view evicted
    assert "v1" in fx.system.directory.quarantined

    comp = cm.recover()
    fx.run(until=fx.kernel.now + 50.0)
    assert comp.done and comp.value.cells == {"a": 3}

    # A fresh process would restart state_seq at 0 and have this push
    # rejected; the fast-forward makes it land.
    fx.run_scripts(write(4))
    assert fx.store.cells["a"] == 7


def test_lease_checker_idle_directory_does_not_spin():
    """With every view unregistered the lease timer must disarm, so a
    bounded kernel run drains (nothing keeps the event queue alive)."""
    fx = ProtocolFixture(store_cells={"a": 0}, lease_duration=20.0)
    cm, _ = add_view(fx, "v1", ["a"])

    def lifecycle():
        yield cm.start()
        yield cm.init_image()
        yield cm.kill_image()

    fx.run_scripts(lifecycle())
    assert fx.system.directory.views == {}
    t = fx.kernel.now
    fx.run()  # terminates: no armed lease timer without views
    assert fx.kernel.now - t <= 20.0


# ---------------------------------------------------------------------------
# Round-timeout quarantine (data-loss fix)
# ---------------------------------------------------------------------------

def test_round_timeout_quarantines_silent_view_with_op_context():
    fx = ProtocolFixture(store_cells={"a": 1}, round_timeout=50.0)
    cm1, _ = add_view(fx, "v1", ["a"], mode=Mode.WEAK)
    cm2, a2 = add_view(fx, "v2", ["a"], mode=Mode.STRONG)
    fx.run_scripts(setup_script(cm1), setup_script(cm2))

    cm1.crash()  # active, conflicting, and silent

    def acquire():
        yield cm2.start_use_image()
        a2.local["a"] += 1
        cm2.end_use_image()
        yield cm2.kill_image()

    fx.run_scripts(acquire())
    d = fx.system.directory
    assert fx.store.cells["a"] == 2  # requester was not wedged
    assert d.counters["round_timeouts"] == 1
    assert d.counters["rounds_quarantined"] == 1
    q = d.quarantined["v1"]
    assert q.reason == "round-timeout"
    assert q.op_context == {"op_kind": "acquire", "requested_by": "v2"}


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

def _silence_directory(fx):
    fx.transport.fault_policy = (
        lambda m: "drop" if m.dst == "dir" else "deliver"
    )


def test_degraded_weak_cm_serves_stale_reads_then_heals():
    fx = ProtocolFixture(store_cells={"a": 9})
    cm, agent = add_view(
        fx, "v1", ["a"], mode=Mode.WEAK, request_timeout=20.0, max_retries=1
    )
    fx.run_scripts(setup_script(cm))

    _silence_directory(fx)

    def failing_pull():
        try:
            yield cm.pull_image()
        except ProtocolError as exc:
            return str(exc)
        return None

    [err] = fx.run_scripts(failing_pull())
    assert "unanswered after 1 retries" in err
    assert cm.degraded and cm.counters["degradations"] == 1

    def stale_read():
        yield cm.start_use_image()  # resolves locally despite silence
        value = agent.local["a"]
        cm.end_use_image()
        return value

    [value] = fx.run_scripts(stale_read())
    assert value == 9
    assert cm.counters["stale_serves"] == 1

    # The link heals: the next answered request clears the flag.
    fx.transport.fault_policy = None

    def healthy_pull():
        yield cm.pull_image()

    fx.run_scripts(healthy_pull())
    assert not cm.degraded


def test_degraded_strong_cm_refuses_use():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, _ = add_view(
        fx, "v1", ["a"], mode=Mode.STRONG, request_timeout=20.0, max_retries=1
    )
    fx.run_scripts(setup_script(cm))
    _silence_directory(fx)

    def try_use():
        errors = []
        try:
            yield cm.start_use_image()  # ACQUIRE goes unanswered
        except ProtocolError as exc:
            errors.append(str(exc))
        try:
            yield cm.start_use_image()  # now refused outright
        except ProtocolError as exc:
            errors.append(str(exc))
        return errors

    [errors] = fx.run_scripts(try_use())
    assert len(errors) == 2
    assert "unanswered" in errors[0]
    assert "strong-mode use refused" in errors[1]
    assert cm.degraded


# ---------------------------------------------------------------------------
# Duplicate delivery idempotency on the raw protocol (no sublayer):
# the directory's reply cache + state sequence numbers must absorb
# duplicated REGISTER, PUSH, PULL_REQ and round replies.
# ---------------------------------------------------------------------------

DUPLICATED = (M.REGISTER, M.PUSH, M.PULL_REQ, M.INVALIDATE_ACK, M.FETCH_REPLY)


def test_duplicated_protocol_messages_are_idempotent():
    fx = ProtocolFixture(store_cells={"a": 0})
    fx.transport.fault_policy = (
        lambda m: "duplicate" if m.msg_type in DUPLICATED else "deliver"
    )
    cm1, a1 = add_view(fx, "v1", ["a"], mode=Mode.STRONG)
    cm2, a2 = add_view(fx, "v2", ["a"], mode=Mode.STRONG)

    def writer(cm, agent, n_ops):
        yield cm.start()
        yield cm.init_image()
        for _ in range(n_ops):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        yield cm.kill_image()

    fx.run_scripts(writer(cm1, a1, 3), writer(cm2, a2, 3))
    assert fx.store.cells["a"] == 6
    assert fx.stats.duplicated > 0
    d = fx.system.directory
    assert d.counters["registers"] == 2  # duplicates replayed, not re-run
    d.check_invariants()


def test_duplicated_weak_push_and_pull_exact():
    fx = ProtocolFixture(store_cells={"a": 0})
    fx.transport.fault_policy = (
        lambda m: "duplicate" if m.msg_type in (M.PUSH, M.PULL_REQ) else "deliver"
    )
    cm1, a1 = add_view(fx, "v1", ["a"], mode=Mode.WEAK)
    cm2, a2 = add_view(fx, "v2", ["a"], mode=Mode.WEAK)

    def pusher():
        yield cm1.start()
        yield cm1.init_image()
        for _ in range(4):
            yield cm1.start_use_image()
            a1.local["a"] += 1
            cm1.end_use_image()
            yield cm1.push_image()
        yield cm1.kill_image()

    def puller():
        yield cm2.start()
        yield cm2.init_image()
        yield ("sleep", 200.0)
        img = yield cm2.pull_image()
        yield cm2.kill_image()
        return img.get("a")

    results = fx.run_scripts(pusher(), puller())
    # Duplicated pushes must not double-commit increments.
    assert fx.store.cells["a"] == 4
    assert results[1] == 4
