"""Unit tests for repro.net.stats."""

from collections import Counter
from dataclasses import fields

from repro.net import Message, MessageStats
from repro.net.stats import StatsSnapshot


def _msg(t="PING", src="a", dst="b"):
    return Message(t, src, dst)


def test_record_counts_by_type_and_pair():
    s = MessageStats()
    s.record(_msg("A", "x", "y"))
    s.record(_msg("A", "x", "y"))
    s.record(_msg("B", "y", "x"), size=10)
    assert s.total == 3
    assert s.by_type["A"] == 2 and s.by_type["B"] == 1
    assert s.by_pair[("x", "y")] == 2
    assert s.bytes_sent == 10


def test_count_for_types():
    s = MessageStats()
    for t in ["A", "A", "B", "C"]:
        s.record(_msg(t))
    assert s.count_for_types("A", "C") == 3
    assert s.count_for_types("Z") == 0


def test_count_involving_address():
    s = MessageStats()
    s.record(_msg("A", "dir", "cm1"))
    s.record(_msg("A", "cm2", "dir"))
    s.record(_msg("A", "cm1", "cm2"))
    assert s.count_involving("dir") == 2
    assert s.count_involving("cm1") == 2


def test_snapshot_delta():
    s = MessageStats()
    s.record(_msg("A"))
    snap = s.snapshot()
    s.record(_msg("A"))
    s.record(_msg("B"))
    d = s.snapshot().delta(snap)
    assert d.total == 2
    assert d.by_type == {"A": 1, "B": 1}


def test_reset_clears_everything():
    s = MessageStats()
    s.record(_msg(), size=5)
    s.record_drop(_msg())
    s.reset()
    assert s.total == 0 and s.bytes_sent == 0 and s.dropped == 0
    assert not s.by_type and not s.by_pair


def test_summary_lists_types_by_count():
    s = MessageStats()
    for t in ["B", "A", "A"]:
        s.record(_msg(t))
    out = s.summary()
    assert "total messages: 3" in out
    assert out.index("A") < out.index("B")


def _populated(base: int) -> MessageStats:
    """Every field set: scalars to distinct values, keyed counters to
    one shared and one private key."""
    s = MessageStats()
    for i, f in enumerate(fields(s)):
        value = getattr(s, f.name)
        if isinstance(value, Counter):
            value.update({"shared": base + i, f"only{base}": 1})
        else:
            setattr(s, f.name, base + i)
    return s


def test_every_field_merges_resets_and_snapshots():
    a = _populated(10)
    earlier = a.snapshot()
    b = _populated(100)
    # Every snapshot field moves by exactly what separates the two.
    moved = b.snapshot().delta(earlier)
    for f in fields(StatsSnapshot):
        expected = (
            {"shared": 90, "only100": 1}
            if isinstance(getattr(a, f.name), Counter) else 90
        )
        assert getattr(moved, f.name) == expected, f.name
    a.reset()
    for f in fields(a):
        value = getattr(a, f.name)
        assert (not value) if isinstance(value, Counter) else value == 0


def test_reliability_counters_merge_reset_and_summarise():
    a = MessageStats()
    for _ in range(6):
        a.record_ack(_msg("R_DATA"))
    a.record_ack_frames(2)
    a.record_ack_frames(1)
    assert a.acks_sent == 6 and a.ack_frames_sent == 3
    assert "acks=6 in 3 frames" in a.summary()
    a.reset()
    assert a.acks_sent == 0 and a.ack_frames_sent == 0
