"""Two backends, one protocol: sim / asyncio TCP.

The Flecc engines must be unable to tell which transport they run on.
These tests replay one deterministic protocol script on both backends
and assert *identical* Fig-4 message-type counts and identical end
state — both equal to the golden census frozen from the last run that
also carried the thread-per-connection TCP backend — then prove the
composition claims: ReliableTransport and the sharded directory plane
(ShardRouter) run unmodified on the asyncio backend.
"""

import pytest

from repro import testing
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import FleccSystem, run_all_scripts
from repro.experiments.scale_sweep import GOLDEN_PARITY
from repro.net import AioTcpTransport, resolve_transport
from repro.net.message import reset_message_ids

BACKENDS = ("sim", "aio")


def _lifecycle_run(spec: str, **directory_options):
    """One deterministic two-phase workload; returns (end state, by_type,
    per-view results).  Phases are sequential single-actor lifecycles, so
    message counts cannot depend on wall-clock races — that is what
    makes exact count parity assertable on real sockets."""
    reset_message_ids()
    transport = resolve_transport(spec)
    store = testing.Store({"a": 10, "b": 20})
    system = FleccSystem(
        transport,
        store,
        testing.extract_from_object,
        testing.merge_into_object,
        extract_cells=testing.extract_cells,
        **directory_options,
    )
    weak_agent, strong_agent = testing.Agent(), testing.Agent()
    weak = system.add_view(
        "weak-view", weak_agent, testing.props_for(["a"]),
        testing.extract_from_view, testing.merge_into_view, mode="weak",
    )
    strong = system.add_view(
        "strong-view", strong_agent, testing.props_for(["a", "b"]),
        testing.extract_from_view, testing.merge_into_view, mode="strong",
    )

    def weak_script():
        yield weak.start()
        yield weak.init_image()
        yield weak.start_use_image()
        weak_agent.local["a"] = 99
        weak.end_use_image()
        yield weak.push_image()
        yield weak.kill_image()
        return weak_agent.local.get("a")

    def strong_script():
        yield strong.start()
        yield strong.init_image()
        yield strong.start_use_image()
        strong_agent.local["b"] = strong_agent.local.get("b", 0) + 1
        strong.end_use_image()
        yield strong.kill_image()
        return strong_agent.local.get("b")

    results = run_all_scripts(transport, [weak_script()])
    results += run_all_scripts(transport, [strong_script()])
    state = dict(store.cells)
    by_type = dict(transport.stats.by_type)
    system.close()
    transport.close()
    return state, by_type, results


@pytest.fixture(scope="module")
def lifecycle_runs():
    return {spec: _lifecycle_run(spec) for spec in BACKENDS}


def test_end_state_identical_across_backends(lifecycle_runs):
    states = {spec: run[0] for spec, run in lifecycle_runs.items()}
    assert states["sim"] == states["aio"] == GOLDEN_PARITY["state"]


def test_fig4_message_counts_identical_across_backends(lifecycle_runs):
    counts = {spec: run[1] for spec, run in lifecycle_runs.items()}
    assert counts["sim"] == counts["aio"] == GOLDEN_PARITY["by_type"]
    # The scripted lifecycle has an exact expected message census.
    reference = counts["sim"]
    for mt in (
        "REGISTER", "REGISTER_ACK", "INIT_REQ", "INIT_DATA",
        "UNREGISTER", "UNREGISTER_ACK",
    ):
        assert reference[mt] == 2, (mt, reference)
    assert "BATCH" not in reference  # envelopes never leak into Fig-4


def test_view_results_identical_across_backends(lifecycle_runs):
    results = {spec: run[2] for spec, run in lifecycle_runs.items()}
    assert results["sim"] == results["aio"] == [99, 21]


# ---------------------------------------------------------------------------
# Stacking: the composition layers must not care which backend is under them
# ---------------------------------------------------------------------------


def _strong_increment_workload(system, transport, n_agents=2):
    agents = [testing.Agent() for _ in range(n_agents)]
    views = [
        system.add_view(
            f"v{i}", agents[i], testing.props_for(["a"]),
            testing.extract_from_view, testing.merge_into_view, mode="strong",
        )
        for i in range(n_agents)
    ]

    def script(i):
        view, agent = views[i], agents[i]
        yield view.start()
        yield view.init_image()
        for _ in range(3):
            yield view.start_use_image()
            agent.local["a"] = agent.local.get("a", 0) + 1
            view.end_use_image()
        yield view.kill_image()

    # Sequential scripts: strong mode's serializability is what the
    # cross-cycle increments then prove (3 agents x 3 increments = 9).
    for i in range(n_agents):
        run_all_scripts(transport, [script(i)])


def test_reliable_transport_stacks_on_aio():
    from repro.net.reliability import ReliableTransport

    reset_message_ids()
    inner = resolve_transport("aio")
    transport = ReliableTransport(inner)
    store = testing.Store({"a": 0})
    system = FleccSystem(
        transport, store,
        testing.extract_from_object, testing.merge_into_object,
        extract_cells=testing.extract_cells,
    )
    _strong_increment_workload(system, transport, n_agents=3)
    assert store.cells["a"] == 9
    # Reliability frames (R_DATA/R_ACK) ride the inner transport; the
    # logical Fig-4 census on the wrapper stays envelope-free.
    assert "BATCH" not in transport.stats.by_type
    assert inner.stats.total > 0
    system.close()
    transport.close()


def test_concurrent_scheduler_parity_across_backends(lifecycle_runs):
    """The concurrent round scheduler (PR 10) must be invisible at this
    workload: ``concurrent_rounds=4`` on both backends produces
    the same end state and Fig-4 census as the serial runs."""
    runs = {
        spec: _lifecycle_run(spec, concurrent_rounds=4) for spec in BACKENDS
    }
    states = {spec: run[0] for spec, run in runs.items()}
    counts = {spec: run[1] for spec, run in runs.items()}
    assert states["sim"] == states["aio"]
    assert counts["sim"] == counts["aio"]
    # And identical to the serial-scheduler reference runs.
    assert states["sim"] == lifecycle_runs["sim"][0]
    assert counts["sim"] == lifecycle_runs["sim"][1]


def test_sharded_plane_runs_on_aio():
    reset_message_ids()
    store = testing.Store({"a": 0, "b": 0})
    system = ShardedFleccSystem(
        "aio",
        store,
        testing.extract_from_object,
        testing.merge_into_object,
        n_shards=4,
        extract_cells=testing.extract_cells,
    )
    transport = system.transport  # the ShardRouter, riding the aio backend
    assert isinstance(transport.inner, AioTcpTransport)
    _strong_increment_workload(system, transport, n_agents=3)
    assert store.cells["a"] == 9
    system.close()
    transport.close()
