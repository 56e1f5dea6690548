"""Shared construction for the three compared protocols.

:func:`make_system` builds a :class:`~repro.core.system.FleccSystem`
whose directory implements the requested protocol, so experiment code
can sweep ``for protocol in ProtocolName: ...`` with no other changes.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

from repro.baselines.multicast import MulticastDirectory
from repro.core.directory import (
    DirectoryManager,
    ExtractFromObject,
    MergeIntoObject,
)
from repro.core.system import FleccSystem
from repro.net.transport import Transport


class ProtocolName(str, Enum):
    """The three protocols compared in the paper's Fig 4."""

    FLECC = "flecc"
    TIME_SHARING = "time-sharing"
    MULTICAST = "multicast"


_DIRECTORY_CLASSES = {
    ProtocolName.FLECC: DirectoryManager,
    # Time-sharing uses the plain directory; the difference is the
    # serial schedule applied by TimeSharingRunner.
    ProtocolName.TIME_SHARING: DirectoryManager,
    ProtocolName.MULTICAST: MulticastDirectory,
}


def make_system(
    protocol: ProtocolName | str,
    transport: Transport,
    component: Any,
    extract_from_object: ExtractFromObject,
    merge_into_object: MergeIntoObject,
    **system_options: Any,
) -> FleccSystem:
    """Build a FleccSystem running the requested protocol's directory.

    ``system_options`` are :class:`~repro.core.system.FleccSystem`'s
    (and through it the directory's) keyword options, unchanged."""
    return FleccSystem(
        transport,
        component,
        extract_from_object,
        merge_into_object,
        directory_cls=_DIRECTORY_CLASSES[ProtocolName(protocol)],
        **system_options,
    )
