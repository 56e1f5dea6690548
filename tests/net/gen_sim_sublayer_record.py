"""Freeze what the reliable-delivery sublayer puts on the simulator's wire.

Run against a checkout of the commit whose behaviour is to be pinned::

    PYTHONPATH=<that checkout>/src:<this repo> \\
        python tests/net/gen_sim_sublayer_record.py <commit> OUT.json

:func:`record` drives a fixed script through a
:class:`~repro.net.reliability.ReliableTransport` over a strict-wire
binary :class:`~repro.net.sim_transport.SimTransport` on a four-node
topology: six endpoints (pairs of them share a node, so their flights
share a connection) exchange requests and replies while a seeded fault policy
drops, duplicates and delays frames of both kinds, and one endpoint is
closed mid-run with flights of its own unacknowledged; its node's
later flights carry the floor past them.  It returns, in
the order they happened, every frame handed to the inner transport
(time, verdict, type, source, destination, and for a flight its
sequence number, floor, attempt and message ids; for an ``R_ACK`` its
vector) and every hand-off to an endpoint, then both transports'
counters.  Message ids restart at 1 first, as in every experiment run,
so neither the ids nor the byte counts depend on what else ran in the
process.

``tests/net/sim_sublayer_record.json`` was produced this way at commit
d3b4006, the last one that gathered a flight per inner flush
(``Transport.at_flush``) before framing it.  ``test_sim_sublayer_record.py``
holds the current code to it: the sublayer now frames each send at
once, and the simulator must see the same wire, the same hand-offs
and the same jitter stream as before.
"""

import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.net.message import R_ACK, R_DATA, Message, reset_message_ids
from repro.net.reliability import ReliableTransport
from repro.net.sim_transport import SimTransport
from repro.net.topology import Topology
from repro.sim.kernel import SimKernel

SEED = 48
PLACEMENT = {"dm": "hub", "a": "n1", "d": "n1", "b": "n2", "c": "n3",
             "e": "n3"}
CLOSE_AT = 31.0


def _topology() -> Topology:
    topo = Topology()
    topo.add_link("hub", "n1", latency=1.0)
    topo.add_link("hub", "n2", latency=3.0)
    topo.add_link("hub", "n3", latency=7.0)
    topo.add_link("n1", "n2", latency=2.0)
    return topo


def record() -> Dict[str, Any]:
    reset_message_ids()
    kernel = SimKernel()
    rng = random.Random(SEED)
    events: List[List[Any]] = []

    def policy(frame: Message) -> Any:
        draw = rng.random()
        if draw < 0.12:
            verdict: Any = "drop"
        elif draw < 0.2:
            verdict = "duplicate"
        elif draw < 0.32:
            verdict = ("delay", round(rng.uniform(0.5, 15.0), 3))
        else:
            verdict = "deliver"
        row: List[Any] = ["frame", kernel.now,
                          verdict if isinstance(verdict, str) else list(verdict),
                          frame.msg_type, frame.src, frame.dst, frame.msg_id]
        p = frame.payload
        if frame.msg_type == R_DATA:
            row += [p["seq"], p["ctl"], p["f"], p.get("n", 1),
                    [m.msg_id for m in p["m"]]]
        elif frame.msg_type == R_ACK:
            row.append(p["acks"])
        events.append(row)
        return verdict

    inner = SimTransport(kernel, topology=_topology(), codec="binary",
                         fault_policy=policy)
    rel = ReliableTransport(inner, ack_timeout=8.0, seed=SEED)

    def handler(addr: str):
        def on(msg: Message) -> None:
            events.append(["handoff", kernel.now, addr, msg.msg_type, msg.src,
                           msg.payload.get("i"), msg.msg_id, msg.reply_to])
            if msg.msg_type == "REQ" and rel.is_bound(addr):
                rel.send(msg.reply("REP", {"i": msg.payload["i"]}))
        return on

    endpoints = {}
    for addr, node in PLACEMENT.items():
        endpoints[addr] = rel.bind(addr, handler(addr))
        rel.place(addr, node)

    def send(src: str, dst: str, i: int) -> None:
        if rel.is_bound(src):
            rel.send(Message("REQ", src, dst, {"i": i}))

    # Requests to the hub from every node, bursts included; the hub's
    # own requests out to each node; c's last ones still unacknowledged
    # (or lost) when c closes, and e's after it.
    script = [(0.0, "a", "dm"), (0.0, "a", "dm"), (0.0, "d", "dm"),
              (1.5, "b", "dm"), (2.0, "c", "dm"), (2.0, "dm", "c"),
              (4.0, "dm", "a"), (4.0, "dm", "b"), (6.0, "d", "b"),
              (9.0, "b", "a"), (12.0, "c", "dm"), (12.5, "c", "dm"),
              (14.0, "dm", "d"), (20.0, "a", "dm"), (27.0, "c", "dm"),
              (28.0, "c", "dm"), (29.0, "dm", "c"), (30.0, "c", "b")]
    script += [(40.0 + 3.0 * k, src, dst) for k, (src, dst) in enumerate(
        [("a", "dm"), ("b", "dm"), ("d", "a"), ("dm", "b"), ("dm", "c"),
         ("b", "d"), ("a", "dm"), ("e", "dm"), ("dm", "a"), ("d", "dm"),
         ("e", "dm"), ("b", "dm"), ("dm", "e")])]
    for i, (at, src, dst) in enumerate(script):
        kernel.call_at(at, lambda s=src, d=dst, i=i: send(s, d, i))
    kernel.call_at(CLOSE_AT, endpoints["c"].close)
    end = kernel.run()

    def counters(stats: Any) -> Dict[str, Any]:
        return {
            "total": stats.total,
            "by_type": dict(sorted(stats.by_type.items())),
            "bytes_sent": stats.bytes_sent,
            "dropped": stats.dropped,
            "duplicated": stats.duplicated,
            "acks_sent": stats.acks_sent,
            "ack_frames_sent": stats.ack_frames_sent,
            "retransmits": stats.retransmits,
            "duplicates_suppressed": stats.duplicates_suppressed,
        }

    return {
        "events": events,
        "end": end,
        "in_flight": rel.in_flight_count(),
        "rto": {f"{s}->{d}": rel.rto(s, d)
                for s in PLACEMENT for d in PLACEMENT if s < d},
        "reliable": counters(rel.stats),
        "wire": counters(inner.stats),
    }


def main(commit: str, out: str) -> None:
    doc = {"commit": commit, "seed": SEED, **record()}
    events = doc.pop("events")
    # One event a line: a diff against a later run names the first
    # frame that moved.
    body = json.dumps(doc, indent=1, sort_keys=True)
    lines = ",\n  ".join(json.dumps(e) for e in events)
    text = body[:-2] + f',\n "events": [\n  {lines}\n ]\n}}\n'
    json.loads(text)  # well-formed
    Path(out).write_text(text)
    kinds = {}
    for e in events:
        kinds[e[0]] = kinds.get(e[0], 0) + 1
    print(f"{out}: {kinds}, reliable {doc['reliable']}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
