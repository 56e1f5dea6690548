"""The multicast (application-oblivious) baseline protocol.

Paper §5.2: "The multicast-based protocol does not discriminate between
cache managers and asks all of them to send updates.  Thus, the number
of messages between the directory manager and the cache manager
reflects the maximum one might see in an application-oblivious
protocol."

Implementation: a directory that (a) treats *every* registered view as
conflicting with every other — property information is ignored — and
(b) always performs the fetch round on pulls (it cannot know whether
the data is fresh without asking everyone).
"""

from __future__ import annotations

from typing import List

from repro.core.directory import DirectoryManager
from repro.net.message import Message


class MulticastDirectory(DirectoryManager):
    """Directory that asks all cache managers, ignoring data properties."""

    def conflict_set_of(self, view_id: str) -> List[str]:
        """Everyone (except the requester) conflicts — worst case."""
        return sorted(v for v in self.views if v != view_id)

    def _need_fresh(self, msg: Message) -> bool:
        # Freshness cannot be assumed without application knowledge:
        # every pull/init collects updates from every registered view.
        return True
