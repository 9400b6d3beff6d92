"""Run metrics: everything the paper's evaluation section reports.

One :class:`RunMetrics` instance accompanies a pipeline run; the stages
feed it idle intervals and busy times, the runner finalizes it into a
:class:`RunResult` with walkthrough time, power/energy and utilizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim import StatAccumulator

__all__ = ["RunMetrics", "RunResult"]


class RunMetrics:
    """Mutable collector the stages write into during a run."""

    def __init__(self) -> None:
        #: per stage-key idle-time samples (seconds per frame waited)
        self.idle: Dict[str, StatAccumulator] = {}
        #: per stage-key busy-time totals (seconds of service)
        self.busy: Dict[str, StatAccumulator] = {}
        #: (frame, time) completion log from the transfer stage
        self.frame_completions: List[Tuple[int, float]] = []
        #: frame index -> time its first render work started
        self.frame_birth: Dict[int, float] = {}
        #: end-to-end frame latency samples (birth -> display)
        self.latency = StatAccumulator("frame_latency")

    def record_idle(self, stage_key: str, seconds: float) -> None:
        """One wait-for-input interval of a stage."""
        if seconds < 0:
            raise ValueError("idle time must be >= 0")
        self.idle.setdefault(stage_key, StatAccumulator(stage_key)).add(seconds)

    def record_busy(self, stage_key: str, seconds: float) -> None:
        """One service interval of a stage."""
        if seconds < 0:
            raise ValueError("busy time must be >= 0")
        self.busy.setdefault(stage_key, StatAccumulator(stage_key)).add(seconds)

    def record_stage_samples(self, idle: Dict[str, List[float]],
                             busy: Dict[str, List[float]]) -> None:
        """Every idle and busy interval of a run at once: the keys, order
        and running sums ``record_idle``/``record_busy`` would build
        sample by sample, without the per-sample call."""
        for accs, samples in ((self.idle, idle), (self.busy, busy)):
            for key, vals in samples.items():
                if not vals:
                    continue
                # min() steps over a NaN unless the list starts with one,
                # and then returns it: only then is a second scan needed
                low = min(vals)
                if low < 0 or (low != low and any(v < 0 for v in vals)):
                    raise ValueError(f"{key}: negative stage time")
                acc = accs[key] = StatAccumulator(key)
                acc.extend(vals)

    def mark_frame_birth(self, frame: int, time: float) -> None:
        """First render work on ``frame`` started (first writer wins —
        with per-pipeline renderers the earliest strip counts)."""
        self.frame_birth.setdefault(frame, time)

    def record_frame_done(self, frame: int, time: float) -> None:
        """The transfer stage finished assembling ``frame``."""
        self.frame_completions.append((frame, time))
        birth = self.frame_birth.get(frame)
        if birth is not None:
            if time < birth:
                raise ValueError("frame displayed before it was rendered")
            self.latency.add(time - birth)

    def idle_quartiles(self) -> Dict[str, Tuple[float, float, float]]:
        """Per-stage (Q1, median, Q3) idle times — the Fig. 15 data."""
        return {k: acc.quartiles() for k, acc in self.idle.items()}


@dataclass
class RunResult:
    """Summary of one simulated walkthrough."""

    config: str
    arrangement: str
    pipelines: int
    frames: int
    #: wall-clock (simulated) seconds for the whole walkthrough
    walkthrough_seconds: float
    #: SCC cores used by the run
    cores_used: int
    #: joules drawn by the SCC over the run
    scc_energy_j: float
    #: mean SCC power over the run (watts)
    scc_avg_power_w: float
    #: joules the MCPC drew *above idle* (the paper's accounting)
    mcpc_energy_above_idle_j: float
    #: per-stage idle quartiles (seconds)
    idle_quartiles: Dict[str, Tuple[float, float, float]] = field(
        default_factory=dict)
    #: per-stage mean service time (seconds per frame)
    busy_means: Dict[str, float] = field(default_factory=dict)
    #: per-memory-controller busy fraction
    mc_utilizations: List[float] = field(default_factory=list)
    #: sampled SCC power trace [(t, watts)]
    power_trace: List[Tuple[float, float]] = field(default_factory=list)
    #: end-to-end frame latency (Q1, median, Q3), seconds; None when the
    #: run recorded no births (custom stage graphs)
    latency_quartiles: Optional[Tuple[float, float, float]] = None

    @property
    def seconds_per_frame(self) -> float:
        """Mean pipeline period."""
        return self.walkthrough_seconds / self.frames

    def speedup_vs(self, baseline_seconds: float) -> float:
        """Speed-up w.r.t. a baseline walkthrough time."""
        if self.walkthrough_seconds <= 0:
            raise ValueError("run has non-positive duration")
        return baseline_seconds / self.walkthrough_seconds

    def total_energy_j(self) -> float:
        """SCC energy plus MCPC above-idle energy (the paper's §VI-B
        comparison metric)."""
        return self.scc_energy_j + self.mcpc_energy_above_idle_j

    def __repr__(self) -> str:
        return (
            f"<RunResult {self.config}/{self.arrangement} "
            f"pl={self.pipelines} t={self.walkthrough_seconds:.1f}s "
            f"P={self.scc_avg_power_w:.1f}W>"
        )
