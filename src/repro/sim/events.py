"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence on the simulated timeline.  It
starts *pending*, may later be *triggered* with a value (success) or an
exception (failure), and once *processed* its callbacks have run and
waiting processes have been resumed.

The design follows the classic simpy/SystemC structure: processes are
generators that ``yield`` events; the kernel resumes a process when the
yielded event is processed.  The composite :class:`AllOf` lets one wait
on several events at once, which the runners use to join every stage
process of a run.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core import Simulator

__all__ = ["PENDING", "Event", "Timeout", "AllOf"]


class _PendingType:
    """Sentinel marking an event that has not been triggered yet."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.core.Simulator`.

    Notes
    -----
    Events deliberately expose a tiny mutable surface:

    * :meth:`succeed` / :meth:`fail` trigger the event;
    * :attr:`callbacks` is the list of functions invoked (with the event as
      sole argument) when the kernel processes the event.

    Triggering an already-triggered event raises ``RuntimeError`` — silent
    double-triggers hide race conditions in models.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is then ``None``)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        For failed events this is the exception instance.
        """
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if self._scheduled:
            raise RuntimeError(f"{self!r} scheduled twice")
        self._ok = True
        self._value = value
        # Inlined sim._schedule(self): succeed() is the kernel's hottest
        # scheduling entry point.  1 == Simulator.PRIORITY_NORMAL (the
        # constant lives in core, which imports this module).
        sim = self.sim
        self._scheduled = True
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on this
        event, unless :meth:`defused` is set by a handler first.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Used as a callback to chain events together.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- failure propagation control --------------------------------------
    @property
    def defused(self) -> bool:
        """Whether a failure has been marked as handled."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not crash."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units.

    ``delay`` must be non-negative; zero-delay timeouts are legal and are
    processed after all events already scheduled at the current instant
    (FIFO within a timestamp).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Flat initialisation (no super() chain, scheduling inlined):
        # Timeout is by far the most-allocated event type.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay
        sim._seq += 1
        heappush(sim._queue, (sim._now + delay, 1, sim._seq, self))


class AllOf(Event):
    """Composite event that succeeds once *all* component events succeed.

    Its value is the list of the components' values, in the order the
    events were given.  The first component failure fails it with that
    exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        # Check already-processed events immediately; subscribe to the rest.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and self._value is PENDING:
            self.succeed([])

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed([e._value for e in self._events])
