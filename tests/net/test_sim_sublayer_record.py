"""The simulator's reliable-delivery sublayer, held to a frozen record.

``sim_sublayer_record.json`` is what ``gen_sim_sublayer_record.py``
recorded at an older commit: every frame the sublayer handed the
simulated wire under seeded drops, duplicates and delays, every
hand-off to an endpoint (one of them closed mid-run) and both
transports' counters.  The sublayer must still produce it exactly:
same frames in the same order at the same times, same retransmission
jitter, same hand-offs, same counters.
"""

import json
from pathlib import Path

from tests.net.gen_sim_sublayer_record import CLOSE_AT, SEED, record

FROZEN = json.loads(
    Path(__file__).with_name("sim_sublayer_record.json").read_text())


def test_the_sim_sublayer_reproduces_its_frozen_record():
    now = json.loads(json.dumps(record()))  # tuples as the JSON has them
    frozen = {k: v for k, v in FROZEN.items() if k not in ("commit", "seed")}
    assert FROZEN["seed"] == SEED
    for i, (got, want) in enumerate(zip(now["events"], frozen["events"])):
        assert got == want, f"event {i} moved"
    assert len(now["events"]) == len(frozen["events"])
    assert now == frozen


def test_the_record_covers_what_it_freezes():
    events = FROZEN["events"]
    verdicts = {e[2] if isinstance(e[2], str) else e[2][0]
                for e in events if e[0] == "frame"}
    assert verdicts == {"deliver", "drop", "duplicate", "delay"}
    attempts = [e[10] for e in events if e[0] == "frame" and e[3] == "R_DATA"]
    assert max(attempts) > 2  # retransmitted more than once
    # c closed with a flight of its own unacknowledged: never sent again,
    # and a later flight from its node carried the floor past it.
    assert not [e for e in events if e[0] == "frame" and e[3] == "R_DATA"
                and e[4] == "c" and e[1] > CLOSE_AT]
    assert [e for e in events if e[0] == "handoff" and e[4] == "c"
            and e[1] > CLOSE_AT]
    assert FROZEN["in_flight"] == 0
    assert FROZEN["reliable"]["duplicates_suppressed"] > 0
