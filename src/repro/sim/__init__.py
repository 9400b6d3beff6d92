"""Deterministic discrete-event simulation kernel.

A small, simpy-flavoured DES used as the substrate for the SCC chip model:
generator-based processes, one-shot events, an all-of join, FIFO
resources/stores and the measurement helpers the paper's evaluation needs
(quartiles, step-signal integration for energy).

Quick example
-------------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def worker(sim, results):
...     yield sim.timeout(1.5)
...     results.append(sim.now)
>>> results = []
>>> _ = sim.process(worker(sim, results))
>>> sim.run()
>>> results
[1.5]
"""

from .core import Infinity, Simulator
from .errors import DeadlockError, SimulationError, StopSimulation
from .events import AllOf, Event, Timeout
from .monitor import StatAccumulator, TimeSeries, quantile, running_sum
from .process import Process
from .resources import Request, Resource, Store

__all__ = [
    "Simulator",
    "Infinity",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Resource",
    "Request",
    "Store",
    "SimulationError",
    "StopSimulation",
    "DeadlockError",
    "StatAccumulator",
    "TimeSeries",
    "quantile",
    "running_sum",
]
