"""Parameter sweeps: the experiment campaigns behind the figures.

Thin, tested wrappers that run :class:`PipelineRunner` /
:class:`~repro.cluster.ClusterRunner` across a parameter axis and
return the results as ordered structures.  The CLI and notebooks use
these instead of re-implementing loops.

Since the :mod:`repro.exec` layer landed, every sweep accepts

* ``jobs`` — shard the points across worker processes (results are
  aggregated in submission order, so they are bit-identical for any
  value, including the default serial 1);
* ``cache`` — a :class:`~repro.exec.ResultCache`; already-computed
  points are answered from disk and never simulated again.

Sweep points whose keyword arguments cannot be expressed as a
:class:`~repro.exec.RunSpec` (live objects: a custom workload, chip
config or cost model) transparently fall back to the serial in-process
path — same results, no sharding, no caching.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .arrangements import ARRANGEMENTS
from .metrics import RunResult
from .runner import PipelineRunner
from .workload import WalkthroughWorkload

__all__ = ["sweep_pipelines", "sweep_arrangements", "sweep_image_sizes",
           "series"]

#: PipelineRunner kwargs a RunSpec can express (anything else forces the
#: serial fallback — live objects cannot cross a process boundary or be
#: content-hashed)
_SPEC_KEYS = frozenset({"seed", "power_trace_dt", "image_side",
                        "frequency_plan", "placement"})


def _run_specs(points: Sequence[dict], runner_kwargs: dict, jobs: int,
               cache) -> Optional[List[RunResult]]:
    """Try the executor path; None when the kwargs are not spec-able."""
    if set(runner_kwargs) - _SPEC_KEYS:
        return None
    # Imported lazily: repro.exec depends on this package.
    from ..exec import RunSpec, SweepExecutor

    specs = [RunSpec(platform="scc", **point, **runner_kwargs)
             for point in points]
    return SweepExecutor(jobs=jobs, cache=cache).run(specs)


def sweep_pipelines(config: str, pipelines: Iterable[int],
                    arrangement: str = "ordered", frames: int = 400,
                    jobs: int = 1, cache=None,
                    **runner_kwargs) -> List[RunResult]:
    """One run per pipeline count, in the given order."""
    pipelines = list(pipelines)
    points = [dict(config=config, pipelines=n, arrangement=arrangement,
                   frames=frames) for n in pipelines]
    results = _run_specs(points, runner_kwargs, jobs, cache)
    if results is not None:
        return results
    return [PipelineRunner(config=config, pipelines=n,
                           arrangement=arrangement, frames=frames,
                           **runner_kwargs).run()
            for n in pipelines]


def sweep_arrangements(config: str, pipelines: int, frames: int = 400,
                       arrangements: Sequence[str] = ARRANGEMENTS,
                       jobs: int = 1, cache=None,
                       **runner_kwargs) -> Dict[str, RunResult]:
    """One run per arrangement at a fixed pipeline count."""
    arrangements = list(arrangements)
    points = [dict(config=config, pipelines=pipelines, arrangement=arr,
                   frames=frames) for arr in arrangements]
    results = _run_specs(points, runner_kwargs, jobs, cache)
    if results is None:
        results = [PipelineRunner(config=config, pipelines=pipelines,
                                  arrangement=arr, frames=frames,
                                  **runner_kwargs).run()
                   for arr in arrangements]
    return dict(zip(arrangements, results))


def sweep_image_sizes(sides: Iterable[int], config: str = "mcpc_renderer",
                      pipelines: int = 1, frames: int = 400,
                      jobs: int = 1, cache=None,
                      **runner_kwargs) -> Dict[int, RunResult]:
    """The Fig. 12 axis: one run per frame side length.

    Each size gets its own workload (strip geometry changes with the
    frame size); on the executor path workers build it through the
    process-wide memo, once per worker instead of once per run.
    """
    sides = list(sides)
    points = [dict(config=config, pipelines=pipelines, frames=frames,
                   image_side=side) for side in sides]
    results = _run_specs(points, runner_kwargs, jobs, cache)
    if results is None:
        results = []
        for side in sides:
            workload = WalkthroughWorkload(frames=frames, image_side=side)
            results.append(PipelineRunner(config=config, pipelines=pipelines,
                                          frames=frames, image_side=side,
                                          workload=workload,
                                          **runner_kwargs).run())
    return dict(zip(sides, results))


def series(results: Iterable[RunResult],
           attribute: str = "walkthrough_seconds") -> List[float]:
    """Extract one numeric attribute from each result, in order."""
    out = []
    for r in results:
        value = getattr(r, attribute)
        out.append(float(value() if callable(value) else value))
    return out
