#!/usr/bin/env python3
"""The same protocol over real TCP sockets (localhost).

The paper's prototype ran over a real network; this example runs the
exact same directory/cache-manager code as the other examples, but on
:class:`~repro.net.aio_transport.AioTcpTransport` — every control
message is a length-prefixed JSON frame over a real socket.  The view
scripts run exactly as on the sim: scripts step on completion callbacks
and transport timers; on aio, on the loop thread.

Run:  python examples/tcp_sockets.py
"""

from repro.apps.airline import Flight, FlightDatabase
from repro.apps.airline.flights import (
    extract_from_database,
    merge_into_database,
)
from repro.apps.airline.travel_agent import (
    TravelAgent,
    extract_from_agent,
    lifecycle,
    merge_into_agent,
)
from repro.core import FleccSystem, Mode
from repro.core.system import run_all_scripts
from repro.net import AioTcpTransport


def main():
    transport = AioTcpTransport()  # real sockets on 127.0.0.1
    database = FlightDatabase(
        [Flight("UA100", "NYC", "SFO", 180, 180, 320.0)]
    )
    system = FleccSystem(
        transport, database, extract_from_database, merge_into_database
    )

    agents = []
    for i in range(3):
        agent = TravelAgent(f"agent-{i}", ["UA100"])
        cm = system.add_view(
            agent.agent_id, agent, agent.properties(),
            extract_from_agent, merge_into_agent, mode=Mode.STRONG,
        )
        agents.append((agent, cm))

    print("directory listening on port", transport.port)

    # Three strong-mode agents race on the same flight over real TCP;
    # one-copy serializability guarantees no reservation is lost.
    scripts = [
        lifecycle(cm, agent, [("reserve", "UA100", 1)] * 4, think_time=0.0)
        for agent, cm in agents
    ]
    made = run_all_scripts(transport, scripts)

    print(f"reservations per agent: {made}")
    print(f"UA100 seats remaining: {database.seats_available('UA100')} "
          f"(started with 180, sold {sum(made)})")
    print(f"messages over TCP: {transport.stats.total} "
          f"({transport.stats.bytes_sent} bytes)")
    assert database.seats_available("UA100") == 180 - sum(made)
    transport.close()


if __name__ == "__main__":
    main()
