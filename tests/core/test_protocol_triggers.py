"""Protocol tests: quality-trigger machinery at run time (paper §4.1,
the mechanism evaluated in Fig 6)."""

from repro.core import Mode
from repro.core import messages as M
from repro.core.triggers import TriggerSet

from tests.core.harness import ProtocolFixture


def test_pull_trigger_fires_periodically():
    fx = ProtocolFixture(store_cells={"a": 0})
    # Pull whenever t > 50, polled every 20 time units.
    cm, _ = fx.add_agent(
        "v1", ["a"], triggers=TriggerSet(pull="t > 50"), trigger_poll_period=20.0
    )

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    fx.run(until=200.0)
    # Polls at 20,40,...: fires from t=60 onwards -> several pulls.
    assert cm.counters["trigger_fires"] >= 3
    assert fx.stats.by_type[M.PULL_REQ] >= 3


def test_push_trigger_fires_only_with_dirty_data():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, agent = fx.add_agent(
        "v1", ["a"], triggers=TriggerSet(push="true"), trigger_poll_period=10.0
    )

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    fx.run(until=100.0)
    assert fx.stats.by_type.get(M.PUSH, 0) == 0  # nothing dirty, no pushes

    def modify():
        yield cm.start_use_image()
        agent.local["a"] = 5
        cm.end_use_image()

    fx.run_scripts(modify())
    fx.run(until=150.0)
    assert fx.stats.by_type.get(M.PUSH, 0) >= 1
    assert fx.store.cells["a"] == 5


def test_trigger_with_view_variable_via_reflection():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, agent = fx.add_agent(
        "v1", ["a"],
        triggers=TriggerSet(pull="pressure > 10"),
        trigger_poll_period=10.0,
    )
    agent.pressure = 0  # reflected view variable

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    fx.run(until=100.0)
    # No trigger pulls yet — the reflected variable is below threshold.
    pulls_before = fx.stats.by_type.get(M.PULL_REQ, 0)
    assert pulls_before == 0
    agent.pressure = 50
    fx.run(until=200.0)
    assert fx.stats.by_type.get(M.PULL_REQ, 0) > pulls_before


def test_triggers_do_not_fire_during_use():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, agent = fx.add_agent(
        "v1", ["a"], triggers=TriggerSet(pull="true"), trigger_poll_period=5.0
    )

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())

    def long_use():
        yield cm.start_use_image()
        before = fx.stats.by_type.get(M.PULL_REQ, 0)
        yield ("sleep", 50.0)  # several poll periods pass while in use
        during = fx.stats.by_type.get(M.PULL_REQ, 0) - before
        cm.end_use_image()
        return during

    [pulls_during_use] = fx.run_scripts(long_use())
    assert pulls_during_use == 0


def test_trigger_poller_stops_after_kill():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, _ = fx.add_agent(
        "v1", ["a"], triggers=TriggerSet(pull="true"), trigger_poll_period=5.0
    )

    def lifecycle():
        yield cm.start()
        yield cm.init_image()
        yield ("sleep", 20.0)
        yield cm.kill_image()

    fx.run_scripts(lifecycle())
    total_at_kill = fx.stats.total
    fx.run(until=500.0)
    assert fx.stats.total == total_at_kill  # silence after kill


def test_set_triggers_at_runtime_changes_behavior():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, _ = fx.add_agent("v1", ["a"], trigger_poll_period=10.0)

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    fx.run(until=100.0)
    assert fx.stats.by_type.get(M.PULL_REQ, 0) == 0

    cm.set_triggers(TriggerSet(pull="true"))
    fx.run(until=200.0)
    assert fx.stats.by_type.get(M.PULL_REQ, 0) >= 3


def test_set_triggers_twice_keeps_one_tick_per_period():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, _ = fx.add_agent("v1", ["a"], trigger_poll_period=10.0)
    ticks = []
    poll = cm._poll_triggers

    def counting_poll():
        ticks.append(fx.transport.now())
        poll()

    cm._poll_triggers = counting_poll

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    cm.set_triggers(TriggerSet(pull="t < 0"))
    cm.set_triggers(TriggerSet(pull="true"))
    fx.run(until=fx.transport.now() + 100.0)
    cm.set_triggers(TriggerSet(push="false", pull="true"))
    fx.run(until=fx.transport.now() + 100.0)
    assert len(ticks) == 20
    gaps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
    assert gaps == {10.0}


def test_no_triggers_means_no_poller_traffic():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm, _ = fx.add_agent("v1", ["a"], trigger_poll_period=1.0)

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    before = fx.stats.total
    fx.run(until=1000.0)
    assert fx.stats.total == before


def test_validity_trigger_consulted_at_each_pull():
    fx = ProtocolFixture(store_cells={"a": 0})
    cm1, _ = fx.add_agent("v1", ["a"], triggers=TriggerSet(validity="t > 100"))
    cm2, _ = fx.add_agent("v2", ["a"])

    def setup(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup(cm1), setup(cm2))

    def early_pull():
        yield cm1.pull_image()  # t < 100: validity false -> no fetch

    fx.run_scripts(early_pull())
    assert fx.stats.by_type.get(M.FETCH_REQ, 0) == 0

    def late_pull():
        yield ("sleep", 200.0)
        yield cm1.pull_image()  # t > 100: validity true -> fetch round

    fx.run_scripts(late_pull())
    assert fx.stats.by_type.get(M.FETCH_REQ, 0) == 1
