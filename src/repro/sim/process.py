"""Generator-based processes for the discrete-event kernel.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  When the yielded event is processed the kernel resumes the
generator, sending the event's value back in (or throwing its exception).
This is the co-routine style used throughout the SCC model: every simulated
core, router, memory controller and pipeline stage is one process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    A ``Process`` is itself an :class:`Event`: it triggers when the
    generator returns (successfully, with the ``return`` value) or raises
    (failure).  This makes ``yield some_process`` a natural join operation.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to execute.
    name:
        Optional human-readable name used in tracebacks and repr.
    """

    __slots__ = ("_generator", "name", "_target", "_send", "_throw",
                 "_resume_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Hot-path caches: the generator entry points and the one bound
        # callback object used for every wait this process ever performs.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        # Bootstrap: resume the process at the current simulation instant.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        sim._schedule(init)

    # -- public API --------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    # -- kernel plumbing -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        send = self._send
        while True:
            try:
                if event._ok:
                    result = send(event._value)
                else:
                    # The exception is being delivered; consider it handled.
                    event._defused = True
                    result = self._throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._finish()
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._finish()
                return

            if not isinstance(result, Event):
                self._generator.throw(
                    RuntimeError(
                        f"process {self.name!r} yielded a non-event: {result!r}"
                    )
                )
                return

            if result.callbacks is not None:
                # Event still pending or scheduled: wait for it.
                result.callbacks.append(self._resume_cb)
                self._target = result
                return

            # Event already processed: feed its outcome straight back in.
            event = result

    def _finish(self) -> None:
        """Trigger the process event; drop the generator entry points.

        The cached bound methods (``_resume_cb`` on this process,
        ``_send``/``_throw`` on its generator) would otherwise keep a
        reference cycle through the finished process alive until the
        next cyclic GC pass.
        """
        del self._resume_cb, self._send, self._throw
        self.sim._schedule(self)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
