"""The event loop: :class:`Simulator`.

The simulator owns the event calendar (a binary heap of
``(time, priority, sequence, event)`` tuples) and advances virtual time by
processing events in timestamp order.  Ties are broken by priority (the
``until`` horizon marker first) and then insertion order, giving
deterministic FIFO semantics within one instant — essential for
reproducible pipeline traces.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .errors import DeadlockError, StopSimulation
from .events import AllOf, Event, Timeout
from .process import Process

__all__ = ["Simulator", "Infinity"]

Infinity: float = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim, log):
    ...     yield sim.timeout(2.0)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim, log))
    >>> sim.run()
    >>> log
    [2.0]
    """

    #: priority for ordinary events
    PRIORITY_NORMAL = 1
    #: priority for urgent events (the ``until`` horizon marker),
    #: processed first within a tick
    PRIORITY_URGENT = 0

    def __init__(self, start_time: float = 0.0) -> None:
        if start_time < 0:
            raise ValueError("start_time must be >= 0")
        self._now: float = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._event_count: int = 0
        # Optional operational event log (duck-typed repro.obsv.EventLog;
        # set by PipelineRunner so the kernel never imports repro.obsv).
        # Consulted only at run() entry/exit — never inside the loop.
        self.obs_log: Optional[Any] = None

    # -- introspection -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events processed so far (monotone; useful in tests)."""
        return self._event_count

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling (kernel-internal; used by Event/Timeout) -----------------
    def _schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    # -- execution ------------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is empty;
            * a number — run until simulation time reaches it (the clock is
              advanced exactly to ``until``);
            * an :class:`Event` — run until that event is processed and
              return its value.

        Raises
        ------
        DeadlockError
            If ``until`` is an event and the calendar empties before the
            event triggers.
        """
        until_event: Optional[Event] = None
        until_time: Optional[float] = None

        if until is None:
            pass
        elif isinstance(until, Event):
            until_event = until
            if until_event.callbacks is None:
                return until_event.value  # already processed
            until_event.callbacks.append(self._stop_callback)
        else:
            until_time = float(until)
            if until_time < self._now:
                raise ValueError(
                    f"until ({until_time}) must not be in the past (now={self._now})"
                )
            # A plain event at the horizon stops the loop.
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(self._stop_callback)
            self._schedule(stop, delay=until_time - self._now,
                           priority=self.PRIORITY_URGENT)

        # Heap, pop, clock and counter are loop locals: at ~60k events per small
        # run the per-event attribute and call overhead is the single
        # largest cost in the whole simulator.  The two assertions are the
        # kernel's lifecycle checks: a calendar entry never lies in the
        # past, and an event is processed once.
        queue = self._queue
        pop = heappop
        obs = self.obs_log
        if obs is not None and obs.enabled:
            obs.debug("sim.run.enter", sim_now=self._now,
                      pending=len(queue))
        processed = 0
        now = self._now
        try:
            while queue:
                t, _, _, event = pop(queue)
                assert t >= now, (
                    f"simulated clock moved backwards: {now!r} -> {t!r} "
                    f"({event!r})")
                self._now = now = t
                processed += 1

                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None, f"{event!r} processed twice"
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # An unhandled failure: crash the simulation with the
                    # original exception so the model author sees the
                    # real stack trace.
                    raise event._value
        except StopSimulation as stop_exc:
            if until_event is not None:
                if not until_event.ok:
                    raise until_event.value
                return until_event.value
            return stop_exc.args[0] if stop_exc.args else None
        finally:
            self._event_count += processed
            if obs is not None and obs.enabled:
                obs.debug("sim.run.exit", sim_now=self._now,
                          events=processed)

        if until_event is not None:
            raise DeadlockError(
                "event calendar ran dry before the awaited event triggered "
                f"(now={self._now}); a blocking receive is probably never matched"
            )
        if until_time is not None:
            self._now = until_time
        return None

    def stop(self, value: Any = None) -> None:
        """Abort :meth:`run` from inside a callback or process."""
        raise StopSimulation(value)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event._value)

    def __repr__(self) -> str:
        return (
            f"<Simulator now={self._now} pending={len(self._queue)} "
            f"processed={self._event_count}>"
        )
