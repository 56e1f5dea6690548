"""Load generation: one event-driven driver, no per-view threads.

Every view's ops are chained through ``Completion.then`` (as in
``scale_sweep._CmDriver``) and started from the transport's own timer,
so all of them run on one thread — the transport's loop thread.  The
main thread only sleeps to the next slice boundary or open-loop
arrival and hands that arrival to the loop.  An *op* is
Fig 3's loop body, timed from issue (closed loop) or from its due time
(open loop) to the push ack; a failed op is counted and the view's next
op is issued, a view is never stopped.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from .calibrate import Yardstick
from .inputs import Inputs
from .spec import CAPACITY, END_TO_END, OP_TIMEOUT_S, SLICED
from .stack import SETUP_TIMEOUT_S, Stack

now = time.perf_counter
#: Transport time units (ms) between yardstick samples: ~0.6 % of the
#: loop thread's time.
CALIBRATE_MS = 50.0


class ViewDriver:
    """One view's op chain: [pull ->] start_use -> use -> end_use [-> push]."""

    def __init__(self, load: "Load", index: int) -> None:
        self.load = load
        self.cm = load.stack.cms[index]
        self.agent = load.stack.agents[index]
        self.flights = load.inputs.slices[index]
        self.picks = load.inputs.picks[index]
        self.buys = load.inputs.buys[index]
        self.weak = load.inputs.shape.mode == "weak"
        self.k = 0
        self.busy = False
        self.queue: Deque[float] = deque()   # due times waiting behind an op
        self.lock = threading.Lock()
        self.sold = [0] * len(self.flights)      # acked reservations
        self.unsure = [0] * len(self.flights)    # reserved, push not acked
        self.last_seen: Dict[str, int] = {}
        self.due = 0.0
        self.buy = False
        self.pick = 0

    def arrive(self, due: float) -> None:
        """An op is due now; it queues if the view is still in one."""
        with self.lock:
            if self.busy:
                self.queue.append(due)
                return
            self.busy = True
        self.load.view_busy(+1)
        self.issue(due)

    def issue(self, due: float) -> None:
        k = self.k % len(self.picks)
        self.k += 1
        self.due, self.pick, self.buy = due, self.picks[k], self.buys[k]
        if self.weak:
            self.cm.pull_image().then(self.pulled)
        else:
            self.cm.start_use_image().then(self.granted)

    def pulled(self, comp: Any) -> None:
        try:
            comp.value
        except Exception:  # noqa: BLE001 - counted as a failed op
            self.finish(False)
            return
        self.cm.start_use_image().then(self.granted)

    def granted(self, comp: Any) -> None:
        try:
            comp.value
        except Exception:  # noqa: BLE001 - refused: the CM kept the lock free
            self.finish(False)
            return
        flight = self.flights[self.pick]
        try:
            seats = self.agent.seats_available(flight)
            if seats > self.last_seen.get(flight, CAPACITY):
                self.load.seat_increases += 1
            if self.load.op_sleep_s:
                time.sleep(self.load.op_sleep_s)
            if self.buy:
                self.agent.confirm_tickets(1, flight)
                seats -= 1
            self.last_seen[flight] = seats
        finally:
            self.cm.end_use_image()
        if self.buy:
            self.cm.push_image().then(self.pushed)
        else:
            self.finish(True)

    def pushed(self, comp: Any) -> None:
        try:
            comp.value
        except Exception:  # noqa: BLE001 - the commit may or may not have landed
            self.unsure[self.pick] += 1
            self.finish(False)
            return
        self.sold[self.pick] += 1
        self.finish(True)

    def finish(self, ok: bool) -> None:
        done = now()
        load = self.load
        load.records.extend(
            (self.due, done, ok and done - self.due <= OP_TIMEOUT_S))
        if load.closed_loop and not load.stopping:
            # The next op belongs to the view that has waited longest —
            # this one again when every view is in flight.
            load.idle.append(self)
            load.idle.popleft().issue(done)
            return
        with self.lock:
            if self.queue:
                due: Optional[float] = self.queue.popleft()
            else:
                due, self.busy = None, False
        if due is None:
            load.view_busy(-1)
        else:
            self.issue(due)


class Load:
    """All views of one stack plus the clock that slices the window."""

    def __init__(self, stack: Stack, inputs: Inputs, op_sleep_s: float = 0.0
                 ) -> None:
        self.stack = stack
        self.inputs = inputs
        self.op_sleep_s = op_sleep_s
        self.closed_loop = inputs.arrival_s is None
        self.stopping = False
        # (due, done, ok) per op, flat: a fast leg completes 10^5 ops, and
        # as tuples they would be a fifth of the process's peak RSS.
        self.records = array("d")
        self.late_s: List[float] = []
        self.samples: List[Tuple[float, float]] = []        # wall, process CPU
        self.seat_increases = 0
        self.abandoned = 0
        self.idle: Deque[ViewDriver] = deque()   # closed loop: awaiting a turn
        self.yardstick = Yardstick()
        self._busy = 0      # views inside an op
        self._handed = 0    # arrivals the main thread gave to the loop
        self._arrived = 0   # arrivals the loop gave to their view
        self._quiet = threading.Condition()
        self.views = [ViewDriver(self, i) for i in range(len(stack.cms))]
        tracer = stack.tracer
        if tracer:
            for v in self.views:
                v.issue = tracer.wrap("driver", "issue", v.issue, new_op=True)
                for step in ("pulled", "granted", "pushed"):
                    tracer.wrap_method(v, step, "driver", step)

    def view_busy(self, delta: int) -> None:
        with self._quiet:
            self._busy += delta
            self._quiet.notify_all()

    def _wait_quiet(self, timeout: float) -> bool:
        """Every arrival handed to the loop has reached its view, and no
        view is in an op."""
        with self._quiet:
            return self._quiet.wait_for(
                lambda: self._arrived == self._handed and self._busy == 0,
                timeout,
            )

    def _tick(self) -> None:
        """Time the yardstick on the loop thread every CALIBRATE_MS until
        the run ends."""
        if self.stopping:
            return
        self.yardstick.sample()
        self.stack.transport_chain()[-1].schedule(CALIBRATE_MS, self._tick)

    def _hand(self, view: ViewDriver, due: float, timed: bool) -> None:
        """Main thread: give one arrival to the loop thread."""
        self._handed += 1
        self.stack.on_loop(lambda: self._arrive(view, due, timed))

    def _arrive(self, view: ViewDriver, due: float, timed: bool) -> None:
        if timed:
            self.late_s.append(now() - due)
        view.arrive(due)
        with self._quiet:
            self._arrived += 1
            self._quiet.notify_all()

    def run(self, warmup_s: float, measure_s: float, slices: int,
            on_window: Callable[[bool], None] = lambda _open: None) -> None:
        """Warm up, then measure ``slices`` equal slices; returns once
        every op in flight has completed (or timed out)."""
        self.stack.on_loop(self._tick)
        begin = now()
        in_flight = ((self.closed_loop and self.inputs.shape.in_flight)
                     or len(self.views))
        self.idle.extend(self.views[in_flight:])
        for v in self.views[:in_flight]:
            self._hand(v, begin, False)
        if not self.closed_loop:
            # First grants done before the clock starts: one op per view.
            self._wait_quiet(SETUP_TIMEOUT_S)
            begin = now()
        bounds = [begin + warmup_s + k * measure_s / slices
                  for k in range(slices + 1)]
        events: List[Tuple[float, int]] = [(t, -1) for t in bounds]
        if not self.closed_loop:
            events += [
                (begin + at, view) for at, view in
                zip(self.inputs.arrival_s, self.inputs.arrival_view)
                if at < warmup_s + measure_s
            ]
            events.sort()
        boundary = 0
        for due, view in events:
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            if view >= 0:
                self._hand(self.views[view], due, boundary > 0)
                continue
            if boundary == 0:
                on_window(True)
            self.samples.append((now(), time.process_time()))
            if boundary == slices:
                on_window(False)
            boundary += 1
        self.stopping = True
        if not self._wait_quiet(OP_TIMEOUT_S + 3.0):
            self.abandoned = self._busy   # still in flight: failed ops

    # -- results -----------------------------------------------------------
    def ops(self) -> np.ndarray:
        """One row per finished op: due, done, ok (1.0 or 0.0)."""
        return np.frombuffer(self.records).reshape(-1, 3)

    def summary(self) -> Dict[str, Any]:
        """Per-slice values and their calm quartile for the sliced
        metrics, at reference speed and raw, plus counts over the timed
        window."""
        due, done, ok = self.ops().T
        ok = ok > 0
        lat_ms = (done - due) * 1e3
        edges = [t for t, _ in self.samples]
        cpu = [c for _, c in self.samples]
        scaled: Dict[str, List[float]] = {m: [] for m in SLICED}
        raw: Dict[str, List[float]] = {m: [] for m in SLICED}
        counts, factors = [], []
        for k in range(len(edges) - 1):
            mask = (done >= edges[k]) & (done < edges[k + 1]) & ok
            n = int(mask.sum())
            counts.append(n)
            slow = self.yardstick.factor(edges[k], edges[k + 1])
            factors.append(slow)
            values = {
                "ops_per_s": n / (edges[k + 1] - edges[k]),
                "op_p50_ms": _pct(lat_ms[mask], 50),
                "op_p90_ms": _pct(lat_ms[mask], 90),
                "cpu_ms_per_op": (cpu[k + 1] - cpu[k]) * 1e3 / max(n, 1),
            }
            for metric, value in values.items():
                raw[metric].append(value)
                if metric != "ops_per_s":
                    value /= slow
                elif self.closed_loop:   # open loop: the schedule sets it
                    value *= slow
                scaled[metric].append(value)
        window = (done >= edges[0]) & (done < edges[-1])
        attempted = int(window.sum()) + self.abandoned
        failed = int((window & ~ok).sum()) + self.abandoned
        late_ms = np.array(self.late_s or [0.0]) * 1e3
        return {
            "slices": scaled,
            "values": {m: _calm(m, v) for m, v in scaled.items()},
            "raw": {m: _calm(m, v) for m, v in raw.items()},
            "speed_factors": factors,
            "slice_ops": counts,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / max(attempted, 1),
            "op_p99_ms": _pct(lat_ms[window & ok], 99),
            "late_start_p99_ms": _pct(late_ms, 99),
            "ok_ops": int((window & ok).sum()),
            "ops_per_s_window": int((window & ok).sum()) / (edges[-1] - edges[0]),
        }


_HIGHER = {m.name for m in END_TO_END if m.better == "higher"}


def _calm(metric: str, slices: List[float]) -> float:
    """The calm quartile of a metric's per-slice values: the 25th
    percentile of a cost, the 75th of a throughput.  On a shared host
    noise only ever adds time, and it comes in bursts that reach the
    tail first: a run's p90 read 20-40 % higher in the slices where the
    yardstick jittered, and the median of slices carried that from run
    to run (spread 0.17 on ``hot_pairs.composed``; 0.10 this way)."""
    return float(np.percentile(slices, 75 if metric in _HIGHER else 25))


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
