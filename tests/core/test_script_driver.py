"""The one view-script driver, on the sim and on aio.

A script steps on completion callbacks and transport timers: a failed
completion is thrown into it, a sleep is a transport timer, an
already-done completion is followed in a loop (not a nested frame), and
on aio every step runs on the transport's loop thread.
"""

import threading

import pytest

from repro import testing
from repro.core.system import FleccSystem, run_all_scripts, run_view_script
from repro.errors import ReproError, TransportError
from repro.net import resolve_transport

BACKENDS = ("sim", "aio")


@pytest.fixture(params=BACKENDS)
def transport(request):
    tr = resolve_transport(request.param)
    yield tr
    tr.close()


def test_failed_completion_is_thrown_into_the_script(transport):
    comp = transport.completion("doomed")
    transport.schedule(1.0, lambda: comp.fail(ValueError("refused")))

    def script():
        try:
            yield comp
        except ValueError as exc:
            yield ("sleep", 0.5)
            return f"caught {exc}"
        return "not caught"

    assert run_view_script(transport, script()).result(10.0) == "caught refused"


def test_uncaught_failure_ends_the_script(transport):
    comp = transport.completion("doomed")
    transport.schedule(0.0, lambda: comp.fail(ValueError("refused")))

    def script():
        yield comp

    handle = run_view_script(transport, script())
    with pytest.raises(ValueError, match="refused"):
        handle.result(10.0)
    assert handle.done


def test_non_completion_yield_raises_repro_error(transport):
    def script():
        yield "not a completion"

    with pytest.raises(ReproError, match="script yielded"):
        run_view_script(transport, script()).result(10.0)


def test_sleep_and_completion_values_reach_the_script(transport):
    comp = transport.completion("later")

    def resolver():
        yield ("sleep", 2.0)
        comp.resolve(7)
        return "resolved"

    def waiter():
        t0 = transport.now()
        value = yield comp
        return value, transport.now() - t0 >= 2.0

    assert run_all_scripts(transport, [waiter(), resolver()], timeout=10.0) == [
        (7, True),
        "resolved",
    ]


def test_sim_deadlock_raises_repro_error():
    transport = resolve_transport("sim")
    never = transport.completion("never")

    def script():
        yield never

    with pytest.raises(ReproError, match="deadlock"):
        run_view_script(transport, script()).result()


def test_aio_result_times_out_on_a_wait_that_never_resolves():
    transport = resolve_transport("aio")
    never = transport.completion("never")

    def script():
        yield never

    handle = run_view_script(transport, script())
    with pytest.raises(ReproError, match="did not finish in time"):
        handle.result(timeout=0.05)
    assert not handle.done  # still waiting: a timeout is not a failure
    never.resolve(None)
    assert handle.result(10.0) is None and handle.done
    transport.close()


def test_schedule_failure_ends_the_script():
    transport = resolve_transport("aio")
    transport.schedule(0.0, lambda: None)  # start the loop, then close it
    transport.close()

    def script():
        yield ("sleep", 0.0)

    with pytest.raises(TransportError, match="closed"):
        run_view_script(transport, script()).result(10.0)


def _resolved(transport, n):
    comps = [transport.completion(f"c{i}") for i in range(n)]
    for i, comp in enumerate(comps):
        comp.resolve(i)
    kernel = getattr(transport, "kernel", None)
    if kernel is not None:
        kernel.run()  # processed: `then` now calls back at once
    return comps


def test_resolved_completions_do_not_nest_frames(transport):
    comps = _resolved(transport, 5000)

    def script():
        total = 0
        for comp in comps:
            total += yield comp
        return total

    assert run_view_script(transport, script()).result(30.0) == sum(range(5000))


def _strong_system(transport):
    store = testing.Store({"a": 0})
    system = FleccSystem(
        transport, store, testing.extract_from_object, testing.merge_into_object
    )
    agent = testing.Agent()
    cm = system.add_view(
        "v", agent, testing.props_for(["a"]),
        testing.extract_from_view, testing.merge_into_view, mode="strong",
    )
    return system, agent, cm


def test_strong_view_local_grants_run_in_one_frame(transport):
    system, agent, cm = _strong_system(transport)

    def script():
        yield cm.start()
        yield cm.init_image()
        for _ in range(5000):
            yield cm.start_use_image()
            agent.local["a"] += 1
            cm.end_use_image()
        yield cm.push_image()
        return agent.local["a"]

    assert run_view_script(transport, script()).result(60.0) == 5000
    system.close()


def test_aio_script_steps_on_the_loop_thread():
    transport = resolve_transport("aio")
    system, agent, cm = _strong_system(transport)
    threads = []

    def script():
        threads.append(threading.get_ident())
        yield cm.start()
        threads.append(threading.get_ident())
        yield cm.init_image()
        threads.append(threading.get_ident())
        yield ("sleep", 1.0)
        threads.append(threading.get_ident())
        yield cm.start_use_image()
        threads.append(threading.get_ident())
        cm.end_use_image()
        yield cm.push_image()
        threads.append(threading.get_ident())

    run_view_script(transport, script()).result(10.0)
    system.close()
    transport.close()
    assert len(threads) == 6
    assert set(threads) == {transport._loop_tid}
    assert transport._loop_tid != threading.get_ident()
