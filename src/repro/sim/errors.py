"""Exception types used by the discrete-event simulation kernel.

The kernel keeps its error hierarchy small and explicit: anything that a
model can reasonably ``except`` derives from :class:`SimulationError`;
programming mistakes inside the kernel raise plain :class:`RuntimeError`.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "StopSimulation",
    "DeadlockError",
]


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class StopSimulation(SimulationError):
    """Raised internally to terminate :meth:`Simulator.run` early.

    Models normally never see this; it is consumed by the event loop when
    ``Simulator.stop()`` is called or the ``until`` event triggers.
    """


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when no events remain but a
    termination condition (``until``) was requested and never became true.

    A deadlock in a message-passing model almost always means a blocking
    ``recv`` whose matching ``send`` never happens — exactly the failure
    mode RCCE programs on the real SCC exhibit, so we surface it loudly
    instead of silently returning.
    """
