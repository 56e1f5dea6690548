"""Directory op-path profiling: cheap per-phase latency histograms.

The scale sweep (PR 7) showed that past a few thousand views the wall
is the directory manager, not the wire — but the message counters
cannot say *where inside an operation* the time goes.  This module adds
that observability: a :class:`DirectoryProfiler` holds one
:class:`PhaseHistogram` per op phase — conflict lookup, target build,
round fan-out, serve, commit, WAL append, register — fed with
monotonic-clock (``time.perf_counter_ns``) durations by the directory
when it is constructed with ``profile=True``.

Cost model: recording is one dict lookup, three integer adds and a
``bit_length`` bucket index — no allocation, no locks — so profiling
can stay on during benchmark ramps without perturbing what it measures.
When profiling is off the directory holds no profiler at all and the
hot paths pay a single ``is None`` test.

Histograms bucket by powers of two of nanoseconds (bucket *i* counts
durations with ``ns.bit_length() == i``), which gives ~2x resolution
from nanoseconds to seconds in 40 integers; percentiles are
bucket-upper-bound approximations, good to a factor of two, which is
plenty for "did per-op cost grow with fleet size" questions.
"""

from __future__ import annotations

import time
from typing import Dict, List

# Canonical op phases, in pipeline order (phases are open-ended: a
# profiler accepts any label, these are the ones the directory emits).
PHASES = (
    "register",   # REGISTER handling (index + slice bookkeeping)
    "queue_wait", # enqueue -> round start (scheduler head-of-line wait)
    "conflict",   # conflict-set lookup for a queued op
    "targets",    # round target selection from the activity sets
    "fanout",     # sending the round's INVALIDATE/FETCH messages
    "serve",      # building the GRANT/INIT_DATA/PULL_DATA payload
    "commit",     # merging an image into the primary copy (incl. WAL)
    "wal",        # the WAL append alone (subset of commit)
)

clock_ns = time.perf_counter_ns


class PhaseHistogram:
    """Power-of-two-bucket latency histogram over nanosecond samples."""

    NBUCKETS = 40  # 2^39 ns ≈ 550 s: beyond any sane phase duration

    __slots__ = ("count", "total_ns", "max_ns", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self.buckets: List[int] = [0] * self.NBUCKETS

    def record(self, ns: int) -> None:
        if ns < 0:
            ns = 0
        self.count += 1
        self.total_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns
        b = ns.bit_length()
        if b >= self.NBUCKETS:
            b = self.NBUCKETS - 1
        self.buckets[b] += 1

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile_ns(self, q: float) -> int:
        """Approximate q-quantile (bucket upper bound), q in [0, 1]."""
        if not self.count:
            return 0
        threshold = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= threshold and n:
                return (1 << i) - 1 if i else 0
        return self.max_ns

    def merge(self, other: "PhaseHistogram") -> "PhaseHistogram":
        self.count += other.count
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        return self

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "mean_ns": round(self.mean_ns, 1),
            "p50_ns": self.percentile_ns(0.50),
            "p99_ns": self.percentile_ns(0.99),
            "max_ns": self.max_ns,
        }


class DirectoryProfiler:
    """Per-phase op timing for one directory manager (fold several with
    :meth:`merge`; a sharded plane's ``merged_profile()`` does)."""

    __slots__ = ("phases", "ops")

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseHistogram] = {}
        self.ops = 0

    def record(self, phase: str, ns: int) -> None:
        hist = self.phases.get(phase)
        if hist is None:
            hist = self.phases[phase] = PhaseHistogram()
        hist.record(ns)

    def note_op(self) -> None:
        """Count one queued operation (acquire/pull/init) started."""
        self.ops += 1

    def total_ns(self, *phases: str) -> int:
        """Summed phase time (all phases when none are named).

        ``wal`` is a subset of ``commit``: when both are present and no
        explicit phase list is given, ``wal`` is excluded so the total
        does not double-count the append.  ``queue_wait`` is *elapsed*
        scheduler wait (it spans ACK round trips of other ops), not CPU
        work, so it is likewise excluded from the implicit total and
        must be asked for by name.
        """
        if phases:
            names: List[str] = list(phases)
        else:
            names = [
                p for p in self.phases
                if p != "queue_wait"
                and (p != "wal" or "commit" not in self.phases)
            ]
        return sum(
            self.phases[p].total_ns for p in names if p in self.phases
        )

    def merge(self, other: "DirectoryProfiler") -> "DirectoryProfiler":
        """Fold another profiler in (per-shard profiles → plane profile)."""
        self.ops += other.ops
        for phase, hist in other.phases.items():
            mine = self.phases.get(phase)
            if mine is None:
                mine = self.phases[phase] = PhaseHistogram()
            mine.merge(hist)
        return self

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        ordered = [p for p in PHASES if p in self.phases]
        ordered += sorted(p for p in self.phases if p not in PHASES)
        return {p: self.phases[p].as_dict() for p in ordered}

    def summary(self) -> str:
        """Human-readable per-phase table (experiment reports)."""
        lines = [f"directory op profile: {self.ops} ops"]
        for phase, d in self.as_dict().items():
            lines.append(
                f"  {phase:<10} n={d['count']:<8} mean={d['mean_ns']/1000:.1f}us "
                f"p50={d['p50_ns']/1000:.1f}us p99={d['p99_ns']/1000:.1f}us "
                f"max={d['max_ns']/1000:.1f}us"
            )
        return "\n".join(lines)
