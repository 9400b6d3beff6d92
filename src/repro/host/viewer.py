"""The visualization client.

Always runs on the MCPC: receives the assembled frames from the transfer
stage over UDP and "displays" them (here: records arrival metadata; the
pixels themselves come from :func:`repro.pipeline.film.render_film`).
Frame-rate statistics derived from the arrival trace feed the
walkthrough metrics.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim import Simulator, StatAccumulator

__all__ = ["VisualizationClient"]


class VisualizationClient:
    """Sink for finished frames.

    Parameters
    ----------
    sim:
        Owning simulator.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.arrivals: List[Tuple[int, float]] = []
        self.inter_arrival = StatAccumulator("inter_arrival")
        self._last_arrival: Optional[float] = None
        self._out_of_order = 0

    def display(self, frame_index: int) -> None:
        """Record the arrival of a finished frame."""
        now = self.sim.now
        if self.arrivals and frame_index <= self.arrivals[-1][0]:
            self._out_of_order += 1
        self.arrivals.append((frame_index, now))
        if self._last_arrival is not None:
            self.inter_arrival.add(now - self._last_arrival)
        self._last_arrival = now

    # -- statistics ------------------------------------------------------------
    @property
    def frames_displayed(self) -> int:
        return len(self.arrivals)

    @property
    def out_of_order_count(self) -> int:
        """Frames that arrived behind an already-displayed later frame."""
        return self._out_of_order

    @property
    def first_frame_time(self) -> float:
        if not self.arrivals:
            raise ValueError("no frames displayed")
        return self.arrivals[0][1]

    @property
    def last_frame_time(self) -> float:
        if not self.arrivals:
            raise ValueError("no frames displayed")
        return self.arrivals[-1][1]

    def average_fps(self) -> float:
        """Mean displayed frame rate over the steady-state window."""
        if len(self.arrivals) < 2:
            raise ValueError("need at least two frames for a rate")
        span = self.last_frame_time - self.first_frame_time
        if span <= 0:
            raise ValueError("all frames arrived at the same instant")
        return (len(self.arrivals) - 1) / span

    def __repr__(self) -> str:
        return f"<VisualizationClient frames={self.frames_displayed}>"
