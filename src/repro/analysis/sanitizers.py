"""Runtime sanitizers for the non-coherent SCC model.

The SCC has no cache coherence: MPB message passing is only correct
under the RCCE flag protocol, and nothing in the model enforces that
protocol at runtime.  This module adds opt-in checkers — enabled with
``repro run --sanitize`` or by passing a :class:`SanitizerSuite` to
:class:`~repro.pipeline.runner.PipelineRunner` — that turn silent
corruption into loud, attributed diagnostics:

``mpb_race``
    Write-write and read-during-write hazards on a tile's
    message-passing-buffer window, and writes that happen without an
    RCCE handshake (rendezvous or flag write) opening the window first.
``event_lifecycle``
    Teardown accounting: calendar entries with live waiters and
    processes that never finished.

The event kernel checks its own invariants (no calendar entry before
the clock, no event processed twice) with assertions in
:meth:`Simulator.run <repro.sim.Simulator.run>`, sanitized or not.

Wiring
------
The suite hangs off the run's :class:`~repro.telemetry.Telemetry` hub
(``telemetry.sanitizers``); the RCCE and MPB models call its
hooks, and the runner calls :meth:`SanitizerSuite.check_teardown` after
the run.  Every diagnostic is recorded on the suite, emitted as a
``sanitizer`` telemetry event and counted under
``sanitizer.<name>.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from ..scc.topology import CORES_PER_TILE

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..sim import Simulator
    from ..telemetry import Telemetry

__all__ = ["Diagnostic", "SanitizerSuite", "SANITIZER_NAMES"]

#: the checkers a suite runs, in reporting order
SANITIZER_NAMES = ("mpb_race", "event_lifecycle")


@dataclass(frozen=True)
class Diagnostic:
    """One sanitizer finding."""

    #: which checker fired (one of :data:`SANITIZER_NAMES`)
    sanitizer: str
    message: str
    #: simulated time of the violation
    t: float
    #: offending core (when attributable)
    core: Optional[int] = None
    #: tile owning the violated resource (when attributable)
    tile: Optional[int] = None

    def format(self) -> str:
        where = ""
        if self.core is not None:
            where += f" core={self.core}"
        if self.tile is not None:
            where += f" tile={self.tile}"
        return f"[{self.sanitizer}] t={self.t:.6f}{where}: {self.message}"


class SanitizerSuite:
    """All runtime checkers of one run, plus their diagnostics.

    Parameters
    ----------
    telemetry:
        Optional hub to mirror diagnostics into (``sanitizer`` events
        and ``sanitizer.*.diagnostics`` counters).  The suite's own
        :attr:`diagnostics` list is always authoritative — it fills
        even when the hub is disabled or absent.
    """

    def __init__(self, telemetry: Optional["Telemetry"] = None) -> None:
        self.telemetry = telemetry
        self.diagnostics: List[Diagnostic] = []
        # mpb_race state
        self._mpb_sessions: Dict[Tuple[int, int], int] = {}
        self._mpb_last_write: Dict[int, Tuple[int, float, float]] = {}
        self._mpb_reported: Set[Tuple[str, int, int]] = set()

    # -- reporting ---------------------------------------------------------
    def report(self, sanitizer: str, message: str, t: float,
               core: Optional[int] = None,
               tile: Optional[int] = None) -> Diagnostic:
        """Record one finding (and mirror it into the telemetry hub)."""
        diag = Diagnostic(sanitizer=sanitizer, message=message, t=t,
                          core=core, tile=tile)
        self.diagnostics.append(diag)
        tel = self.telemetry
        if tel is not None:
            tel.emit("sanitizer", sanitizer, t, core=core, tile=tile,
                     message=message)
            if tel.enabled:
                tel.counters.inc(f"sanitizer.{sanitizer}.diagnostics")
        return diag

    def of(self, sanitizer: str) -> List[Diagnostic]:
        """Diagnostics of one checker."""
        return [d for d in self.diagnostics if d.sanitizer == sanitizer]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def summary(self) -> str:
        if self.clean:
            return "sanitizers: 0 diagnostics"
        lines = [f"sanitizers: {len(self.diagnostics)} diagnostic(s)"]
        lines += [f"  {d.format()}" for d in self.diagnostics]
        return "\n".join(lines)

    # -- mpb_race hooks (called from repro.rcce) ---------------------------
    @staticmethod
    def _tile_of(core: int) -> int:
        return core // CORES_PER_TILE

    def on_mpb_handshake(self, window_core: int, peer_core: int,
                         t: float) -> None:
        """An RCCE handshake (rendezvous or flag write) opened
        ``window_core``'s MPB window for ``peer_core``."""
        key = (window_core, peer_core)
        self._mpb_sessions[key] = self._mpb_sessions.get(key, 0) + 1

    def on_mpb_complete(self, window_core: int, peer_core: int,
                        t: float) -> None:
        """The synchronized access that the handshake opened finished."""
        key = (window_core, peer_core)
        open_count = self._mpb_sessions.get(key, 0)
        if open_count > 0:
            self._mpb_sessions[key] = open_count - 1

    def on_mpb_write(self, window_core: int, src_core: int,
                     t0: float, t1: float) -> None:
        """``src_core`` wrote a chunk into ``window_core``'s window over
        ``[t0, t1]``."""
        tile = self._tile_of(window_core)
        if self._mpb_sessions.get((window_core, src_core), 0) <= 0:
            key = ("unsync", window_core, src_core)
            if key not in self._mpb_reported:
                self._mpb_reported.add(key)
                self.report(
                    "mpb_race",
                    f"core {src_core} wrote core {window_core}'s MPB "
                    f"window without an RCCE flag handshake",
                    t0, core=src_core, tile=tile)
        last = self._mpb_last_write.get(window_core)
        if last is not None:
            other_src, o0, o1 = last
            if other_src != src_core and t0 < o1 and o0 < t1:
                key = ("ww", window_core,
                       min(src_core, other_src) * 10_000
                       + max(src_core, other_src))
                if key not in self._mpb_reported:
                    self._mpb_reported.add(key)
                    self.report(
                        "mpb_race",
                        f"write-write race on core {window_core}'s MPB "
                        f"window: cores {other_src} and {src_core} "
                        f"overlap in [{max(t0, o0):.6f}, "
                        f"{min(t1, o1):.6f}]",
                        t0, core=src_core, tile=tile)
        self._mpb_last_write[window_core] = (src_core, t0, t1)

    def on_mpb_read(self, window_core: int, reader_core: int,
                    t0: float, t1: float) -> None:
        """``reader_core`` drained a chunk from ``window_core``'s window
        over ``[t0, t1]``."""
        last = self._mpb_last_write.get(window_core)
        if last is None:
            return
        src, w0, w1 = last
        if src != reader_core and t0 < w1 and w0 < t1:
            key = ("rw", window_core, reader_core)
            if key not in self._mpb_reported:
                self._mpb_reported.add(key)
                self.report(
                    "mpb_race",
                    f"core {reader_core} read core {window_core}'s MPB "
                    f"window while core {src} was still writing it",
                    t0, core=reader_core,
                    tile=self._tile_of(window_core))

    # -- teardown ----------------------------------------------------------
    def check_teardown(self, sim: "Simulator",
                       processes: Sequence[Any] = ()) -> None:
        """End-of-run accounting: dropped events and unfinished work.

        Call once after a run that is expected to complete (the runner
        does, under ``--sanitize``).  Flags calendar entries that still
        have waiters attached — work that was scheduled but will never
        happen — and processes that never terminated.
        """
        from ..sim.core import Simulator  # local: avoid import cycle

        stop_cb = Simulator._stop_callback
        for t, _prio, _seq, event in sorted(sim._queue):
            callbacks = event.callbacks
            if not callbacks:
                continue
            waiters = [cb for cb in callbacks if cb is not stop_cb]
            if not waiters:
                continue  # the run-horizon stop marker, not model state
            self.report(
                "event_lifecycle",
                f"{event!r} scheduled for t={t:.6f} was never processed "
                f"({len(waiters)} waiter(s) dropped at teardown)",
                sim.now)
        for proc in processes:
            if getattr(proc, "is_alive", False):
                target = getattr(proc, "target", None)
                self.report(
                    "event_lifecycle",
                    f"process {proc.name!r} never finished; still "
                    f"waiting on {target!r} at teardown", sim.now)

    def __repr__(self) -> str:
        return f"<SanitizerSuite diagnostics={len(self.diagnostics)}>"
