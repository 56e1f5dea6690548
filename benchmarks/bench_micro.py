"""Micro-benchmarks of Flecc's hot paths.

These are not paper figures; they quantify the per-operation costs the
coherence layer adds (conflict computation, trigger evaluation, image
merging, kernel throughput) so regressions in the substrate are caught.
"""

from repro.core import DiscreteSet, Interval, Property, PropertySet
from repro.core.conflicts import ConflictPolicy, dyn_confl
from repro.core.image import ObjectImage
from repro.core.triggers import Trigger, TriggerSet
from repro.core.versioning import VersionVector
from repro.net.codec import JsonCodec
from repro.net.message import Message
from repro.sim import SimKernel
from repro.testing import ProtocolFixture


def test_property_set_intersection(benchmark):
    a = PropertySet(
        [Property(f"p{i}", Interval(0, 100 + i)) for i in range(10)]
    )
    b = PropertySet(
        [Property(f"p{i}", Interval(50, 200 + i)) for i in range(10)]
    )
    result = benchmark(a.intersect, b)
    assert len(result) == 10


def test_dyn_confl_discrete_domains(benchmark):
    a = PropertySet([Property("Flights", DiscreteSet({f"FL{i}" for i in range(100)}))])
    b = PropertySet([Property("Flights", DiscreteSet({f"FL{i}" for i in range(90, 200)}))])
    assert benchmark(dyn_confl, a, b) == 1


def test_trigger_parse(benchmark):
    src = "(t > 1500) && pending < 5 || !(force == false) && t % 200 == 0"
    trig = benchmark(Trigger, src)
    assert trig.variables == {"t", "pending", "force"}


def test_trigger_evaluate(benchmark):
    trig = Trigger("(t > 1500) && pending < 5 || force")
    env = {"t": 2000.0, "pending": 3, "force": False}
    assert benchmark(trig.evaluate, env) is True


def _conflict_views(n: int = 100):
    """A policy over n registered views with staggered overlapping
    intervals (~20 conflicts each)."""
    props = {
        f"v{i:03d}": PropertySet([Property("cells", Interval(i, i + 10))])
        for i in range(n)
    }
    pol = ConflictPolicy(None, props.get)
    for vid, p in props.items():
        pol.register_view(vid, p)
    return pol


def test_conflict_set_cached(benchmark):
    """100 views, repeated conflict_set — the memoized directory path."""
    pol = _conflict_views()
    result = benchmark(pol.conflict_set, "v050")
    assert len(result) == 20  # intervals within +/-10 of v050, minus itself


def test_conflict_set_uncached(benchmark):
    """Same query with the memo defeated each time by a property update
    of a far view: the cost of a miss."""
    pol = _conflict_views()
    far = pol.properties_of("v099")

    def run():
        pol.update_properties("v099", far)
        return pol.conflict_set("v050")

    assert len(benchmark(run)) == 20


def test_codec_encode(benchmark):
    """Single-pass wire encoding of a typical PUSH-sized payload."""
    codec = JsonCodec()
    raw = benchmark(codec.encode, _push_message())
    assert len(raw) > 100


def _push_message():
    props = PropertySet(
        [Property(f"p{i}", DiscreteSet({f"k{j}" for j in range(10)})) for i in range(5)]
    )
    return Message(
        "PUSH", "cm:v1", "dm",
        {"view_id": "v1", "cells": {f"c{i}": i for i in range(50)}, "props": props},
    )


def test_binary_codec_encode(benchmark):
    """Same PUSH payload through the compact binary codec: the frame
    must be strictly smaller than the JSON one."""
    from repro.net.binary_codec import BinaryCodec

    msg = _push_message()
    codec = BinaryCodec()
    raw = benchmark(codec.encode, msg)
    assert len(raw) < len(JsonCodec().encode(msg))
    assert codec.decode(raw) == msg


def test_image_merge_newer(benchmark):
    def run():
        base = ObjectImage(
            {f"c{i}": i for i in range(200)},
            VersionVector({f"c{i}": 1 for i in range(200)}),
        )
        incoming = ObjectImage(
            {f"c{i}": i * 2 for i in range(200)},
            VersionVector({f"c{i}": 2 if i % 2 else 1 for i in range(200)}),
        )
        return base.merge_newer(incoming)

    assert benchmark(run) == 100


def test_version_vector_unseen(benchmark):
    master = VersionVector({f"c{i}": i for i in range(500)})
    seen = VersionVector({f"c{i}": i // 2 for i in range(500)})
    total = benchmark(master.unseen_updates, seen)
    assert total > 0


def _round_fixture(coalesce: bool, k: int = 16):
    """Directory + k active readers + one always-fetch puller.

    A pull with validity ``true`` makes the directory run a FETCH round
    over all k conflicting active views — the O(n) fan-out the paper
    flags for its centralized protocol.  FETCH rounds leave the readers
    active, so the round is repeatable for the benchmark loop.
    """
    fx = ProtocolFixture(store_cells={"a": 1}, coalesce_rounds=coalesce)
    readers = [fx.add_agent(f"r{i:02d}", ["a"])[0] for i in range(k)]
    puller, _ = fx.add_agent("p", ["a"], triggers=TriggerSet(validity="true"))

    def boot(cm):
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(*[boot(c) for c in readers])
    fx.run_scripts(boot(puller))
    return fx, puller


def _one_round(fx, puller):
    def script():
        yield puller.pull_image()

    fx.run_scripts(script())


def test_round_fanout_uncoalesced(benchmark):
    """FETCH round over 16 views, one frame per view (the baseline)."""
    fx, puller = _round_fixture(coalesce=False)
    benchmark(_one_round, fx, puller)
    assert fx.stats.batches_sent == 0
    assert fx.stats.by_type["FETCH_REQ"] >= 16


def test_round_fanout_coalesced(benchmark):
    """Same round with coalescing: 16 fetches ride one BATCH frame."""
    fx, puller = _round_fixture(coalesce=True)
    benchmark(_one_round, fx, puller)
    assert fx.stats.by_type.get("FETCH_REQ", 0) == 0
    assert fx.stats.batches_sent >= 1
    assert fx.stats.messages_coalesced >= 16


def test_kernel_event_throughput(benchmark):
    """Time to drain 10k timer events."""

    def run():
        k = SimKernel()
        for i in range(10_000):
            k.call_in(float(i % 100), lambda: None)
        return k.run()

    assert benchmark(run) == 99.0
