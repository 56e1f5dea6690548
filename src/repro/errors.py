"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class TransportError(ReproError):
    """Errors raised by the network substrate (sim or TCP transports)."""


class CodecError(TransportError):
    """A message could not be encoded or decoded."""


class ProtocolError(ReproError):
    """A Flecc protocol invariant was violated or a message was malformed."""


class TriggerSyntaxError(ReproError):
    """A quality-trigger expression failed to lex or parse."""


class TriggerEvalError(ReproError):
    """A quality-trigger expression failed to evaluate."""


class PropertyError(ReproError):
    """An invalid data property or property set was constructed."""


class PlanningError(ReproError):
    """The PSF planner could not satisfy the requested deployment."""


class DeploymentError(ReproError):
    """The PSF deployer failed to instantiate a plan."""


class ViewError(ReproError):
    """An invalid view definition or view operation."""
