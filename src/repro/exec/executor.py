"""Declarative run specs and the process-pool sweep executor.

A :class:`RunSpec` is a frozen, hashable description of one simulated
run — everything that determines its result (configuration,
arrangement, frames, image size, DVFS plan, seed, platform) and nothing
that doesn't.  Because the simulator is deterministic, a spec *is* its
result's identity: :meth:`RunSpec.digest` gives the content address the
:class:`~repro.exec.cache.ResultCache` stores under.

:class:`SweepExecutor` schedules many specs at once:

* cache lookups first — already-computed points never reach a worker;
* misses are sharded across ``jobs`` worker processes (``fork`` start
  method where available, so workers inherit the parent's warm workload
  memo; with ``spawn`` each worker builds the memoized workload once
  and reuses it for every run it executes — the per-worker warm start);
* results aggregate in **submission order**, so the output is
  bit-identical for any ``jobs`` value, including 1;
* when a ``progress`` callback is supplied, workers stream live
  :class:`~repro.obsv.progress.ProgressEvent` records (state changes,
  frame heartbeats) back over a multiprocessing queue that a parent
  drain thread forwards — a strictly observational side channel, so the
  result list stays bit-identical with the stream on or off, and the
  disabled path (``progress=None``, the default) is byte-for-byte the
  pre-streaming code path.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cluster import CLUSTER_CONFIGURATIONS, ClusterRunner
from ..obsv.eventlog import EVENT_LOG
from ..obsv.progress import (FrameProgressSink, ProgressCallback,
                             state_event, sweep_event)
from ..pipeline.arrangements import ARRANGEMENTS, Placement
from ..pipeline.metrics import RunResult
from ..pipeline.runner import CONFIGURATIONS, ENGINES, PipelineRunner, whole
from ..pipeline.workload import default_workload
from ..telemetry import Telemetry
from .cache import ResultCache
from .hashing import engine_fingerprint, spec_digest

__all__ = ["RunSpec", "SweepExecutor", "ExecutionStats", "execute_spec",
           "build_runner"]

PlacementSpec = Tuple[str, Tuple[int, ...], Tuple[Tuple[int, ...], ...], int]


def _freeze_plan(plan: Any) -> Optional[Tuple[Tuple[str, float], ...]]:
    if plan is None:
        return None
    if isinstance(plan, dict):
        return tuple(sorted((str(k), float(v)) for k, v in plan.items()))
    return tuple((str(k), float(v)) for k, v in plan)


def _freeze_placement(placement: Any) -> Optional[PlacementSpec]:
    if placement is None:
        return None
    if isinstance(placement, Placement):
        placement = (placement.arrangement, placement.input_cores,
                     placement.filter_cores, placement.transfer_core)
    arr, inputs, chains, transfer = placement
    core = partial(whole, name="placement core")
    return (str(arr), tuple(map(core, inputs)),
            tuple(tuple(map(core, chain)) for chain in chains),
            core(transfer))


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one run's result, and nothing else."""

    #: ``"scc"`` (:class:`PipelineRunner`) or ``"hpc"``
    #: (:class:`~repro.cluster.ClusterRunner`)
    platform: str = "scc"
    config: str = "one_renderer"
    pipelines: int = 1
    arrangement: str = "ordered"
    frames: int = 400
    image_side: int = 400
    seed: int = 0
    power_trace_dt: Optional[float] = None
    #: stage key -> MHz, normalised to a sorted item tuple
    frequency_plan: Optional[Tuple[Tuple[str, float], ...]] = None
    #: explicit core placement, normalised to nested tuples
    placement: Optional[PlacementSpec] = None
    #: execution engine: ``"event"`` (discrete-event kernel) or
    #: ``"batched"`` (steady-state frame-wave engine, repro.engine).
    #: Part of the digest, so the cache never conflates engines.  On the
    #: ``"hpc"`` platform it must stay ``"event"``: there it names the
    #: cluster's one exact model (a max-plus recurrence, bit-identical
    #: to the event simulation it replaced), so existing digests hold.
    engine: str = "event"

    def __post_init__(self) -> None:
        for name in ("pipelines", "frames", "image_side", "seed"):
            object.__setattr__(self, name, whole(getattr(self, name), name))
        object.__setattr__(self, "frequency_plan",
                           _freeze_plan(self.frequency_plan))
        object.__setattr__(self, "placement",
                           _freeze_placement(self.placement))
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose from {ENGINES}")
        if self.platform == "scc":
            if self.config not in CONFIGURATIONS:
                raise ValueError(f"unknown SCC config {self.config!r}")
            if self.placement is None and self.arrangement not in ARRANGEMENTS:
                raise ValueError(f"unknown arrangement {self.arrangement!r}")
        elif self.platform == "hpc":
            if self.config not in CLUSTER_CONFIGURATIONS:
                raise ValueError(f"unknown cluster config {self.config!r}")
            # the cluster has no arrangements/DVFS/power model; pin the
            # irrelevant axes so equivalent specs hash identically
            object.__setattr__(self, "arrangement", "cluster")
            if (self.frequency_plan is not None
                    or self.placement is not None
                    or self.power_trace_dt is not None):
                raise ValueError("DVFS/placement/power options do not "
                                 "apply to the hpc platform")
            if self.engine != "event":
                raise ValueError("the hpc platform has one exact model, "
                                 "named engine='event'")
        else:
            raise ValueError(f"unknown platform {self.platform!r}")

    # -- identity ----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (tuples become lists; key order irrelevant)."""
        return {
            "platform": self.platform,
            "config": self.config,
            "pipelines": self.pipelines,
            "arrangement": self.arrangement,
            "frames": self.frames,
            "image_side": self.image_side,
            "seed": self.seed,
            "power_trace_dt": self.power_trace_dt,
            "frequency_plan": ([[k, v] for k, v in self.frequency_plan]
                               if self.frequency_plan is not None else None),
            "placement": ([self.placement[0], list(self.placement[1]),
                           [list(c) for c in self.placement[2]],
                           self.placement[3]]
                          if self.placement is not None else None),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def digest(self, fingerprint: Optional[str] = None) -> str:
        """Content address of this run under the current (or given)
        engine fingerprint."""
        return spec_digest(self.as_dict(),
                           fingerprint or engine_fingerprint())


def build_runner(spec: RunSpec, telemetry: Optional[Telemetry] = None
                 ) -> Union[PipelineRunner, ClusterRunner]:
    """Materialise the runner for a spec.

    Both platforms share the process-wide memoized workload for the
    spec's ``(frames, image_side)``, which is what makes a worker warm:
    the geometry and culling profiles are built once per process, then
    reused by every run the worker executes.
    """
    workload = default_workload(spec.frames, spec.image_side)
    if spec.platform == "hpc":
        return ClusterRunner(config=spec.config, pipelines=spec.pipelines,
                             frames=spec.frames, image_side=spec.image_side,
                             workload=workload)
    placement = None
    if spec.placement is not None:
        arr, inputs, chains, transfer = spec.placement
        placement = Placement(arr, list(inputs),
                              [list(c) for c in chains], transfer)
    return PipelineRunner(
        config=spec.config,
        pipelines=spec.pipelines,
        arrangement=spec.arrangement,
        frames=spec.frames,
        image_side=spec.image_side,
        workload=workload,
        power_trace_dt=spec.power_trace_dt,
        seed=spec.seed,
        placement=placement,
        frequency_plan=(dict(spec.frequency_plan)
                        if spec.frequency_plan is not None else None),
        telemetry=telemetry,
        engine=spec.engine,
    )


def execute_spec(spec: RunSpec,
                 telemetry: Optional[Telemetry] = None) -> RunResult:
    """Run one spec in this process."""
    return build_runner(spec, telemetry=telemetry).run()


def _short_verdict(result: RunResult) -> str:
    """Best-effort one-line bottleneck verdict for progress events."""
    try:
        # Imported lazily: repro.analysis depends on repro.exec siblings.
        from ..analysis import verdict_from_result

        return verdict_from_result(result).describe()
    except Exception:
        return ""


#: per-worker progress queue, installed by the pool initializer
_PROGRESS_QUEUE: Optional[Any] = None


def _pool_init(queue: Any) -> None:
    """Pool initializer: give this worker the parent's progress queue."""
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = queue


def _run_payload(spec: RunSpec, index: int, digest: str,
                 emit: Optional[ProgressCallback]) -> RunResult:
    """Execute one spec, optionally narrating progress through ``emit``."""
    if emit is None:
        # Nothing to narrate: no hub, no sinks, no clock reads.
        return execute_spec(spec)

    worker = multiprocessing.current_process().name
    # A disabled hub records nothing; it only carries frame completions
    # to the progress sink.
    hub = Telemetry(enabled=False)
    sink = FrameProgressSink(emit, index, digest, spec.frames,
                             worker=worker)
    hub.add_sink(sink)
    emit(state_event("running", index, digest, worker=worker,
                     frames_total=spec.frames))
    t0 = time.perf_counter()
    try:
        result = execute_spec(spec, telemetry=hub)
    except BaseException as exc:
        emit(state_event("failed", index, digest, worker=worker,
                         wall_s=time.perf_counter() - t0,
                         error=repr(exc)))
        raise
    finally:
        hub.remove_sink(sink)
    emit(state_event("done", index, digest, worker=worker,
                     wall_s=time.perf_counter() - t0,
                     frames_done=sink.frames_done,
                     frames_total=spec.frames,
                     verdict=_short_verdict(result)))
    return result


def _pool_worker(payload: Tuple[RunSpec, int, str, bool]) -> RunResult:
    """Top-level worker entry point (must be picklable for ``spawn``)."""
    spec, index, digest, stream = payload
    emit: Optional[ProgressCallback] = None
    if stream and _PROGRESS_QUEUE is not None:
        emit = _PROGRESS_QUEUE.put
    return _run_payload(spec, index, digest, emit)


def _drain_progress(queue: Any, callback: Optional[ProgressCallback]
                    ) -> None:
    """Forward worker events to the callback until the ``None`` sentinel.

    Callback failures are swallowed: progress display must never be
    able to wedge or kill the sweep itself.
    """
    while True:
        event = queue.get()
        if event is None:
            return
        if callback is None:
            continue
        try:
            callback(event)
        except Exception:
            pass


@dataclass
class ExecutionStats:
    """What one :meth:`SweepExecutor.run` call did."""

    #: points answered from the result cache
    hits: int = 0
    #: points not found in the cache
    misses: int = 0
    #: simulations actually executed (== misses after a run)
    executed: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.executed += other.executed


class SweepExecutor:
    """Schedule independent run specs across workers, with caching.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` executes in-process (no pool, no
        pickling) but follows the identical aggregation path, so results
        are bit-identical for any value.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    progress:
        Optional :class:`~repro.obsv.progress.ProgressCallback`.  When
        set, every point's lifecycle (``queued``/``running``/``cached``/
        ``done``/``failed``) plus frame heartbeats stream to it live —
        from worker processes over a multiprocessing queue drained on a
        parent thread.  Purely observational: results are bit-identical
        with or without it, and ``None`` (default) keeps the exact
        pre-streaming execution path.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressCallback] = None,
                 async_workers: Optional[int] = None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        #: thread count for :meth:`submit` (defaults to ``jobs``)
        self.async_workers = max(1, int(async_workers if async_workers
                                        is not None else self.jobs))
        #: cumulative over every .run() of this executor
        self.stats = ExecutionStats()  # guarded-by: self._stats_lock
        #: stats of the most recent .run() only
        self.last_stats = ExecutionStats()  # guarded-by: self._stats_lock
        # run() may be called from several threads at once (the service
        # front-end does); the stats merge is the only shared mutation.
        self._stats_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._submit_pool: Optional[concurrent.futures.ThreadPoolExecutor] \
            = None  # guarded-by: self._pool_lock

    # -- scheduling --------------------------------------------------------
    def digests(self, specs: Sequence[RunSpec]) -> List[str]:
        """Cache keys for the specs (one fingerprint computation)."""
        fp = engine_fingerprint()
        return [spec.digest(fp) for spec in specs]

    def run(self, specs: Sequence[RunSpec],
            progress: Optional[ProgressCallback] = None) -> List[RunResult]:
        """Execute the sweep; results come back in submission order.

        ``progress`` overrides the executor-level callback for this call
        only — the hook that lets one executor serve many concurrent
        submissions (each with its own subscriber fan-out) from worker
        threads.  ``None`` falls back to ``self.progress``.
        """
        specs = list(specs)
        digests = self.digests(specs)
        stats = ExecutionStats()
        results: List[Optional[RunResult]] = [None] * len(specs)
        if progress is None:
            progress = self.progress
        log = EVENT_LOG
        if progress is not None:
            progress(sweep_event("start", len(specs)))
            for i, digest in enumerate(digests):
                progress(state_event("queued", i, digest,
                                     frames_total=specs[i].frames))
        if log.enabled:
            log.info("exec.sweep.start", points=len(specs), jobs=self.jobs,
                     cache=self.cache is not None)

        pending: List[int] = []
        for i, digest in enumerate(digests):
            cached = self.cache.get(digest) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                stats.hits += 1
                if progress is not None:
                    progress(state_event("cached", i, digest,
                                         frames_total=specs[i].frames))
                if log.enabled:
                    log.info("run.cached", digest=digest, index=i)
            else:
                pending.append(i)
                stats.misses += 1

        try:
            outputs = self._execute(
                [(i, specs[i], digests[i]) for i in pending], progress)
        except BaseException:
            if progress is not None:
                progress(sweep_event("finish", len(specs)))
            if log.enabled:
                log.error("exec.sweep.abort", points=len(specs),
                          pending=len(pending))
            raise

        for i, result in zip(pending, outputs):
            results[i] = result
            stats.executed += 1
            if self.cache is not None:
                self.cache.put(digests[i], specs[i].as_dict(), result)
            if log.enabled:
                log.info("run.executed", digest=digests[i], index=i,
                         walkthrough_s=result.walkthrough_seconds)

        if progress is not None:
            progress(sweep_event("finish", len(specs)))
        if log.enabled:
            log.info("exec.sweep.finish", points=len(specs),
                     hits=stats.hits, executed=stats.executed)
        with self._stats_lock:
            self.last_stats = stats
            self.stats.merge(stats)
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec,
                progress: Optional[ProgressCallback] = None) -> RunResult:
        """Convenience wrapper: a one-point sweep."""
        return self.run([spec], progress=progress)[0]

    # -- async submission --------------------------------------------------
    def submit(self, spec: RunSpec,
               progress: Optional[ProgressCallback] = None
               ) -> "concurrent.futures.Future[RunResult]":
        """Submit one spec for asynchronous execution.

        Runs :meth:`run_one` on a lazily created thread pool of
        ``async_workers`` threads and returns the
        :class:`concurrent.futures.Future`.  The per-call ``progress``
        callback streams the run's lifecycle to the submitter, so many
        pending submissions each keep their own event fan-out.  A future
        whose work has not started yet can still be ``cancel()``-ed —
        the hook the service front-end's admission control relies on.
        """
        # pool.submit must happen under the lock: capturing the pool and
        # submitting outside it races close() — shutdown() between the
        # two raises "cannot schedule new futures after shutdown".
        # Holding the lock makes the interleavings well-defined: either
        # the submit lands first (close drains it) or close wins and
        # this call lazily reopens a fresh pool.
        with self._pool_lock:
            if self._submit_pool is None:
                self._submit_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.async_workers,
                    thread_name_prefix="repro-exec")
            return self._submit_pool.submit(self.run_one, spec, progress)

    def close(self, cancel_pending: bool = True) -> None:
        """Shut down the :meth:`submit` pool (idempotent).

        Running work always drains to completion — a worker is never
        orphaned mid-simulation — but queued-not-started futures are
        cancelled when ``cancel_pending`` is true.
        """
        with self._pool_lock:
            pool, self._submit_pool = self._submit_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_pending)

    def _execute(self, work: List[Tuple[int, RunSpec, str]],
                 progress: Optional[ProgressCallback]) -> List[RunResult]:
        stream = progress is not None
        if self.jobs == 1 or len(work) <= 1:
            return [_run_payload(spec, i, digest, progress)
                    for i, spec, digest in work]
        payloads = [(spec, i, digest, stream)
                    for i, spec, digest in work]
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        workers = min(self.jobs, len(work))
        queue: Optional[Any] = None
        drain: Optional[threading.Thread] = None
        if stream:
            # Workers put ProgressEvents here; a parent daemon thread
            # forwards them to the callback while pool.map blocks below.
            queue = ctx.Queue()
            drain = threading.Thread(
                target=_drain_progress, args=(queue, progress),
                name="repro-progress-drain", daemon=True)
            drain.start()
        try:
            with ctx.Pool(processes=workers,
                          initializer=_pool_init if stream else None,
                          initargs=(queue,) if stream else ()) as pool:
                # map() preserves submission order; chunksize 1
                # load-balances heterogeneous points (a 7-pipeline run
                # outweighs a 1-pipeline run several-fold).
                return pool.map(_pool_worker, payloads, chunksize=1)
        finally:
            if queue is not None:
                queue.put(None)  # sentinel: stream closed
                assert drain is not None
                drain.join(timeout=10)

    def __repr__(self) -> str:
        with self._stats_lock:
            return (f"<SweepExecutor jobs={self.jobs} "
                    f"cache={'on' if self.cache is not None else 'off'} "
                    f"hits={self.stats.hits} executed={self.stats.executed}>")
