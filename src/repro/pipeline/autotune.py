"""Auto-tuning: pick the best pipeline count for a configuration.

What a user of the original system would actually want: "how many
pipelines should I run?".  The tuner runs every pipeline count the
arrangement can place on the exact batched engine (milliseconds per
400-frame walkthrough) and returns the fastest — the paper's answer
(5 for the MCPC configuration, 7 for n-renderers) falls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .arrangements import max_pipelines
from .metrics import RunResult
from .runner import PipelineRunner

__all__ = ["TuneResult", "autotune"]


@dataclass
class TuneResult:
    """Outcome of an auto-tuning pass."""

    config: str
    best_pipelines: int
    best: RunResult
    #: one exact run per placeable pipeline count
    verified: Dict[int, RunResult]

    def summary(self) -> str:
        lines = [f"{self.config}: best = {self.best_pipelines} pipeline(s), "
                 f"{self.best.walkthrough_seconds:.1f} s"]
        for n in sorted(self.verified):
            mark = "  <-- best" if n == self.best_pipelines else ""
            lines.append(f"  n={n}: "
                         f"{self.verified[n].walkthrough_seconds:.1f} s{mark}")
        return "\n".join(lines)


def autotune(config: str, frames: int = 400, **runner_kwargs) -> TuneResult:
    """Find the pipeline count minimizing the walkthrough time.

    Parameters
    ----------
    config:
        One of the parallel configurations (``single_core`` has nothing
        to tune).
    frames:
        Walkthrough length of every run.
    runner_kwargs:
        Passed to :class:`PipelineRunner`; ``engine`` defaults to
        ``"batched"`` and ``arrangement`` to ``"ordered"``, whose
        placement limit bounds the candidate counts.
    """
    if config == "single_core":
        raise ValueError("single_core has no pipeline count to tune")
    kwargs = {"engine": "batched", "arrangement": "ordered", **runner_kwargs}
    limit = max_pipelines(per_pipeline_input=(config == "n_renderers"),
                          arrangement=kwargs["arrangement"])
    verified = {n: PipelineRunner(config=config, pipelines=n, frames=frames,
                                  **kwargs).run()
                for n in range(1, limit + 1)}
    best_n = min(verified, key=lambda n: verified[n].walkthrough_seconds)
    return TuneResult(config=config, best_pipelines=best_n,
                      best=verified[best_n], verified=verified)
