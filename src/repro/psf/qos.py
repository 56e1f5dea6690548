"""Client QoS requirements (paper §5.1).

"The airline reservation system provides several levels of QoS for
clients, where each level is defined by the transaction privacy, the
maximum latency for accessing the database, and the type of operations
to be performed (e.g. browsing the database or buying the tickets)."
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.modes import Mode


class Operation(str, Enum):
    """The client's operation type, which implies consistency needs."""

    BROWSE = "browse"  # stale data acceptable -> weak consistency
    BUY = "buy"        # fresh data required   -> strong consistency

    @property
    def implied_mode(self) -> Mode:
        return Mode.WEAK if self is Operation.BROWSE else Mode.STRONG


@dataclass(frozen=True)
class QoSRequirement:
    """One client's service-level request.

    Attributes:
        client_node: Node where the client runs.
        max_latency: Budget for one client->service message (time units).
        privacy: Must traffic over insecure links be encrypted?
        operation: Browse or buy (drives the consistency mode).
    """

    client_node: str
    max_latency: float = float("inf")
    privacy: bool = False
    operation: Operation = Operation.BROWSE
